"""The ``Schedulable`` token: proof that a task may run on a core.

Paper, section 3.1:

    "The pick_next_task function in Linux expects the scheduler to choose a
    task on the CPU's run-queue, and if this expectation is violated, the
    kernel can crash. [...] we introduce a new type called Schedulable that
    represents a task and what core it can safely be scheduled on."

Semantics reproduced here:

* Only Enoki-C (via :class:`TokenRegistry`) can mint tokens.  A token names
  a ``(pid, cpu)`` pair and carries a generation number.
* Tokens are *linear*: they cannot be copied or cloned (``__copy__`` /
  ``__deepcopy__`` raise), and returning one to the framework consumes it.
* Issuing a new token for a pid (wakeup, migration) invalidates every older
  token for that pid, so a scheduler holding a stale token cannot use it as
  validation — exactly the Rust move-semantics discipline.
* Validation failure is not a crash: the framework routes it to ``pnt_err``
  and hands ownership back to the scheduler (section 3.1).
"""

from operator import attrgetter

from repro.core.errors import TokenError
from repro.simkernel.tracing import GEN


class Schedulable:
    """A linear capability to run ``pid`` on ``cpu``.

    Scheduler code may read ``pid`` and ``cpu`` freely but can only obtain
    instances from framework calls and can only spend them by returning
    them to the framework.
    """

    __slots__ = ("_pid", "_cpu", "_generation", "_consumed", "_registry_id")

    def __init__(self, pid, cpu, generation, registry_id):
        self._pid = pid
        self._cpu = cpu
        self._generation = generation
        self._registry_id = registry_id
        self._consumed = False

    # Read-only, and frameless (``attrgetter``): read on every crossing.
    pid = property(attrgetter("_pid"))
    cpu = property(attrgetter("_cpu"))

    @property
    def generation(self):
        return self._generation

    @property
    def consumed(self):
        return self._consumed

    def __copy__(self):
        raise TokenError("Schedulable cannot be copied (it is a linear token)")

    def __deepcopy__(self, memo):
        raise TokenError("Schedulable cannot be cloned (it is a linear token)")

    def __reduce__(self):
        raise TokenError("Schedulable cannot be pickled (it is a linear token)")

    def describe(self):
        """Plain-data description for record logs (not a usable token)."""
        return {
            "pid": self._pid,
            "cpu": self._cpu,
            "gen": self._generation,
        }

    def __repr__(self):
        state = "consumed" if self._consumed else "live"
        return (
            f"Schedulable(pid={self._pid}, cpu={self._cpu}, "
            f"gen={self._generation}, {state})"
        )


class TokenRegistry:
    """Enoki-C's book of truth about which tokens are current.

    One registry exists per loaded scheduler.  ``issue`` mints a token and
    invalidates all prior tokens for the pid; ``is_valid`` checks a token
    offered back by the scheduler; ``spend`` checks and consumes it.
    """

    _next_registry_id = 0

    def __init__(self):
        TokenRegistry._next_registry_id += 1
        self._id = TokenRegistry._next_registry_id
        self._current = {}    # pid -> (generation, cpu)
        self._next_generation = 0
        #: optional tap: a tracer intake, called as ``on_event(kind, t,
        #: cpu, ("gen",), generation, pid=pid)`` with ``kind`` one of
        #: ``token_issue``/``token_consume``/``token_revoke`` and ``t``
        #: read off ``clock``, which whoever sets the tap sets too.  The
        #: verify sanitizers install one to audit token discipline; left
        #: None (a single attribute test) on the fast path.
        self.on_event = None
        self.clock = None

    def issue(self, pid, cpu):
        """Mint the now-unique valid token for ``pid`` on ``cpu``."""
        self._next_generation += 1
        generation = self._next_generation
        self._current[pid] = (generation, cpu)
        if self.on_event is not None:
            self.on_event("token_issue", self.clock.now, cpu, GEN,
                          generation, pid=pid)
        return Schedulable(pid, cpu, generation, self._id)

    def peek(self, pid):
        """The (generation, cpu) currently valid for pid, or None."""
        return self._current.get(pid)

    def is_valid(self, token, cpu=None):
        """True when ``token`` is this registry's live token for its pid
        (optionally also checking it authorises ``cpu``)."""
        if type(token) is not Schedulable:
            return False
        if token._registry_id != self._id or token._consumed:
            return False
        current = self._current.get(token._pid)
        if current is None or current[0] != token._generation:
            return False
        return cpu is None or token._cpu == cpu

    def spend(self, token, cpu=None):
        """Validate and spend in one step.

        True when ``token`` was this registry's live proof (for ``cpu``,
        when given) and is now consumed; False — token untouched — when
        it is stale, foreign, already spent or not a token at all.
        """
        # ``is_valid``, inline: every pick spends one token.
        if (type(token) is not Schedulable
                or token._registry_id != self._id or token._consumed):
            return False
        live, pid = self._current, token._pid
        if (pid not in live or live[pid][0] != token._generation
                or (cpu is not None and token._cpu != cpu)):
            return False
        token._consumed = True
        del live[pid]
        if self.on_event is not None:
            self.on_event("token_consume", self.clock.now, token._cpu,
                          GEN, token._generation, pid=pid)
        return True

    def revoke(self, pid):
        """Invalidate any live token for ``pid`` (task died/departed)."""
        live = self._current
        if pid not in live:
            return
        current = live[pid]
        del live[pid]
        if self.on_event is not None:
            self.on_event("token_revoke", self.clock.now, current[1],
                          GEN, current[0], pid=pid)

    def live_pids(self):
        return tuple(self._current)
