"""Deterministic fault injection at the Enoki-C boundary.

The containment machinery (:mod:`repro.core.failover`) is only worth
having if it can be *proven* to hold, so this module provides a seeded,
declarative way to break a running scheduler on purpose:

* a :class:`FaultSpec` names one fault — crash the Nth invocation of a
  callback, hang a callback past its virtual-time budget, corrupt or
  duplicate a ``Schedulable`` token, drop or delay hint-ring entries;
* a :class:`FaultPlan` bundles specs with a seed so probabilistic plans
  replay identically;
* a :class:`FaultInjector` executes a plan at the libEnoki dispatch
  boundary — the same place a real scheduler bug would surface, which is
  what makes an injected fault indistinguishable from a genuine one to
  the containment boundary.

``BUILTIN_PLANS`` holds the chaos suite run by ``repro chaos`` and CI:
every built-in plan must complete with zero lost tasks (see
``tests/test_faults.py``).
"""

import random
from dataclasses import dataclass, field, replace

from repro import dataclass_kwargs
from repro.core.errors import FaultError, InjectedFault
from repro.core.schedulable import Schedulable

#: fault kinds injected before/after a message dispatch
DISPATCH_KINDS = ("raise", "hang")
#: fault kinds that mutate a pick_next_task response token
TOKEN_KINDS = ("corrupt_token", "duplicate_token")
#: fault kinds applied to the user->kernel hint path
HINT_KINDS = ("drop_hint", "delay_hint")

FAULT_KINDS = DISPATCH_KINDS + TOKEN_KINDS + HINT_KINDS

#: offset added to a forged token's generation so it can never collide
#: with a genuinely issued one
_CORRUPT_GENERATION_SKEW = 1_000_000


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    ``at`` is the 1-based invocation index (of ``callback`` for dispatch
    faults, of ``pick_next_task`` for token faults, of ``send_hint`` for
    hint faults) at which the fault starts firing; it keeps firing for
    ``count`` consecutive invocations.  ``probability`` below 1.0 makes
    each firing a seeded coin flip, so chaos runs stay reproducible.
    """

    kind: str
    callback: str = ""          # required for raise/hang
    at: int = 1
    count: int = 1
    hang_ns: int = 0            # required for hang
    probability: float = 1.0

    def validate(self):
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {FAULT_KINDS})"
            )
        if self.kind in DISPATCH_KINDS and not self.callback:
            raise FaultError(
                f"{self.kind!r} fault needs a target callback"
            )
        if self.kind == "hang" and self.hang_ns <= 0:
            raise FaultError("hang fault needs a positive hang_ns")
        if self.at < 1 or self.count < 1:
            raise FaultError(
                f"fault window must satisfy at >= 1 and count >= 1 "
                f"(got at={self.at}, count={self.count})"
            )
        if not 0.0 < self.probability <= 1.0:
            raise FaultError(
                f"probability must be in (0, 1]: {self.probability}"
            )

    def in_window(self, invocation):
        return self.at <= invocation < self.at + self.count

    def to_dict(self):
        return {
            "kind": self.kind,
            "callback": self.callback,
            "at": self.at,
            "count": self.count,
            "hang_ns": self.hang_ns,
            "probability": self.probability,
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; raises :class:`FaultError` naming
        an unknown, missing or wrong-typed key."""
        spec = cls(**dataclass_kwargs(cls, data, FaultError))
        spec.validate()
        return spec


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault specs."""

    name: str
    specs: tuple
    seed: int = 0
    description: str = ""

    def validate(self):
        if not self.specs:
            raise FaultError(f"fault plan {self.name!r} has no specs")
        for spec in self.specs:
            spec.validate()
        return self

    def with_seed(self, seed):
        return replace(self, seed=seed)

    def to_dict(self):
        return {
            "name": self.name,
            "seed": self.seed,
            "description": self.description,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; raises :class:`FaultError` naming
        an unknown, missing or wrong-typed key, in the plan or a spec."""
        known = dataclass_kwargs(cls, data, FaultError)
        known["specs"] = tuple(FaultSpec.from_dict(s) for s in data["specs"])
        return cls(**known).validate()

    @staticmethod
    def builtin(name):
        plan = BUILTIN_PLANS.get(name)
        if plan is None:
            raise FaultError(
                f"no built-in fault plan {name!r} "
                f"(available: {', '.join(sorted(BUILTIN_PLANS))})"
            )
        return plan

    @staticmethod
    def builtin_names():
        return tuple(sorted(BUILTIN_PLANS))


@dataclass
class FaultEvent:
    """One fault that actually fired (the injector's audit log)."""

    kind: str
    callback: str
    invocation: int
    action: str


@dataclass
class _HeldHint:
    pid: int
    cpu: int
    tgid: int
    payload: object = field(default=None)


class FaultInjector:
    """Executes one :class:`FaultPlan` at the dispatch boundary.

    Installed on an :class:`~repro.core.enoki_c.EnokiSchedClass` via
    ``install_faults``; libEnoki consults it inside the locked dispatch
    region (so upgrade-path ``reregister_init`` faults fire exactly where
    a real init bug would), and Enoki-C consults it on the hint path.
    """

    def __init__(self, plan):
        self.plan = plan.validate()
        self._rng = random.Random(plan.seed ^ 0xFA17)
        self.calls = {}             # callback -> invocation count
        self.fired = []             # FaultEvent audit log
        self.pending_overrun_ns = 0
        self.hints_seen = 0
        self._held_hints = []
        self._last_pick_token = None

    # ------------------------------------------------------------------
    # dispatch-side hooks (called by libEnoki)
    # ------------------------------------------------------------------

    def on_dispatch(self, callback):
        """Count one invocation of ``callback`` and fire matching faults.

        Raises :class:`InjectedFault` for ``raise`` specs; accrues virtual
        overrun time for ``hang`` specs (the containment boundary charges
        it and treats budget violations as watchdog strikes).
        """
        invocation = self.calls.get(callback, 0) + 1
        self.calls[callback] = invocation
        for spec in self.plan.specs:
            if spec.kind not in DISPATCH_KINDS or spec.callback != callback:
                continue
            if not spec.in_window(invocation) or not self._roll(spec):
                continue
            if spec.kind == "hang":
                self.pending_overrun_ns += spec.hang_ns
                self._note(spec, callback, invocation,
                           f"hang +{spec.hang_ns}ns")
            else:
                self._note(spec, callback, invocation, "raise")
                raise InjectedFault(
                    f"fault plan {self.plan.name!r}: injected crash in "
                    f"{callback} (invocation {invocation})"
                )

    def take_overrun_ns(self):
        """Collect (and reset) virtual time accrued by hang faults."""
        overrun = self.pending_overrun_ns
        self.pending_overrun_ns = 0
        return overrun

    def filter_response(self, callback, response):
        """Possibly substitute a corrupted/stale token for a pick answer."""
        if callback != "pick_next_task" or not isinstance(response,
                                                          Schedulable):
            return response
        invocation = self.calls.get(callback, 0)
        out = response
        for spec in self.plan.specs:
            if spec.kind not in TOKEN_KINDS:
                continue
            if not spec.in_window(invocation) or not self._roll(spec):
                continue
            if spec.kind == "corrupt_token":
                out = Schedulable(
                    response.pid, response.cpu,
                    response.generation + _CORRUPT_GENERATION_SKEW,
                    response._registry_id,
                )
                self._note(spec, callback, invocation, "corrupt")
            elif self._last_pick_token is not None:
                # Replay the previously spent token: the classic
                # double-use bug linearity is meant to forbid.
                out = self._last_pick_token
                self._note(spec, callback, invocation, "duplicate")
        self._last_pick_token = response
        return out

    # ------------------------------------------------------------------
    # hint-side hooks (called by Enoki-C's send_hint)
    # ------------------------------------------------------------------

    def hint_disposition(self):
        """Decide the fate of the next hint: None, "drop", or "hold"."""
        self.hints_seen += 1
        invocation = self.hints_seen
        for spec in self.plan.specs:
            if spec.kind not in HINT_KINDS:
                continue
            if not spec.in_window(invocation) or not self._roll(spec):
                continue
            if spec.kind == "drop_hint":
                self._note(spec, "send_hint", invocation, "drop")
                return "drop"
            self._note(spec, "send_hint", invocation, "hold")
            return "hold"
        return None

    def hold_hint(self, pid, cpu, tgid, payload):
        self._held_hints.append(_HeldHint(pid, cpu, tgid, payload))

    def take_held_hints(self):
        """Release delayed hints (flushed ahead of the next hint push)."""
        held = self._held_hints
        self._held_hints = []
        return held

    # ------------------------------------------------------------------

    def _roll(self, spec):
        if spec.probability >= 1.0:
            return True
        return self._rng.random() < spec.probability

    def _note(self, spec, callback, invocation, action):
        self.fired.append(FaultEvent(spec.kind, callback, invocation,
                                     action))

    def summary(self):
        """Counts of fired faults by (kind, callback)."""
        out = {}
        for event in self.fired:
            key = f"{event.kind}:{event.callback}"
            out[key] = out.get(key, 0) + 1
        return out


def _plan(name, description, *specs):
    return FaultPlan(name=name, description=description,
                     specs=tuple(specs)).validate()


#: the chaos suite: every plan here must be survivable (zero lost tasks)
#: when containment + watchdog escalation + a fallback class are in place
BUILTIN_PLANS = {
    plan.name: plan for plan in (
        _plan(
            "tick-crash",
            "one exception in task_tick: contained as a no-op, no failover",
            FaultSpec(kind="raise", callback="task_tick", at=5),
        ),
        _plan(
            "balance-crash",
            "two exceptions in balance: degraded to no-pull, no failover",
            FaultSpec(kind="raise", callback="balance", at=10, count=2),
        ),
        _plan(
            "pick-crash",
            "exception in pick_next_task: non-recoverable, immediate "
            "failover",
            FaultSpec(kind="raise", callback="pick_next_task", at=10),
        ),
        _plan(
            "strike-out",
            "repeated task_tick crashes cross the strike threshold and "
            "force failover",
            FaultSpec(kind="raise", callback="task_tick", at=5, count=8),
        ),
        _plan(
            "token-corrupt",
            "pick returns a forged-generation token: pnt_err path, "
            "watchdog recovers the dropped task",
            FaultSpec(kind="corrupt_token", at=8, count=2),
        ),
        _plan(
            "token-duplicate",
            "pick replays an already-spent token: linearity violation "
            "routed to pnt_err",
            FaultSpec(kind="duplicate_token", at=8, count=4),
        ),
        _plan(
            "callback-hang",
            "task_tick exceeds its virtual-time budget twice: strikes "
            "recorded, still below the failover threshold",
            FaultSpec(kind="hang", callback="task_tick", at=3, count=2,
                      hang_ns=5_000_000),
        ),
        _plan(
            "hang-out",
            "task_tick blows its budget until the strike threshold "
            "forces failover",
            FaultSpec(kind="hang", callback="task_tick", at=3, count=8,
                      hang_ns=5_000_000),
        ),
        _plan(
            "hint-drop",
            "three hint-ring entries silently dropped at the boundary",
            FaultSpec(kind="drop_hint", at=2, count=3),
        ),
        _plan(
            "hint-delay",
            "two hints held back and delivered with the next push",
            FaultSpec(kind="delay_hint", at=2, count=2),
        ),
        _plan(
            "upgrade-abort",
            "reregister_init of the incoming module crashes: the upgrade "
            "rolls back to the old module",
            FaultSpec(kind="raise", callback="reregister_init", at=1),
        ),
        _plan(
            "rampage",
            "mixed crashes, hangs and token corruption until failover",
            FaultSpec(kind="raise", callback="task_tick", at=4, count=2),
            FaultSpec(kind="hang", callback="balance", at=12, count=2,
                      hang_ns=3_000_000),
            FaultSpec(kind="corrupt_token", at=15),
            FaultSpec(kind="raise", callback="task_wakeup", at=20,
                      count=2),
        ),
    )
}
