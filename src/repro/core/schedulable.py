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

from repro.core.errors import TokenError


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

    @property
    def pid(self):
        return self._pid

    @property
    def cpu(self):
        return self._cpu

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
    invalidates all prior tokens for the pid; ``validate`` checks a token
    offered back by the scheduler; ``consume`` spends it.
    """

    _next_registry_id = 0

    def __init__(self):
        TokenRegistry._next_registry_id += 1
        self._id = TokenRegistry._next_registry_id
        self._current = {}    # pid -> (generation, cpu)
        self._next_generation = 0
        #: optional ``callback(op, pid, cpu, generation)`` observability
        #: tap; ``op`` is one of ``issue``/``consume``/``revoke``.  The
        #: verify sanitizers install one to audit token discipline; left
        #: None (a single attribute test) on the fast path.
        self.on_event = None

    def issue(self, pid, cpu):
        """Mint the now-unique valid token for ``pid`` on ``cpu``."""
        self._next_generation += 1
        generation = self._next_generation
        self._current[pid] = (generation, cpu)
        if self.on_event is not None:
            self.on_event("issue", pid, cpu, generation)
        return Schedulable(pid, cpu, generation, self._id)

    def peek(self, pid):
        """The (generation, cpu) currently valid for pid, or None."""
        return self._current.get(pid)

    def is_valid(self, token, cpu=None):
        """True when ``token`` is this registry's live token for its pid
        (optionally also checking it authorises ``cpu``)."""
        if not isinstance(token, Schedulable):
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
        if not self.is_valid(token, cpu):
            return False
        token._consumed = True
        del self._current[token._pid]
        if self.on_event is not None:
            self.on_event("consume", token._pid, token._cpu,
                          token._generation)
        return True

    def consume(self, token):
        """Spend a valid token.  Raises :class:`TokenError` on misuse."""
        if self.spend(token):
            return
        if not isinstance(token, Schedulable):
            raise TokenError(f"not a Schedulable: {token!r}")
        if token._consumed:
            raise TokenError(f"{token!r} already consumed")
        raise TokenError(f"{token!r} is stale or foreign")

    def revoke(self, pid):
        """Invalidate any live token for ``pid`` (task died/departed)."""
        current = self._current.pop(pid, None)
        if current is not None and self.on_event is not None:
            self.on_event("revoke", pid, current[1], current[0])

    def live_pids(self):
        return tuple(self._current)

    def adopt(self, other):
        """Take over another registry's live tokens (live upgrade).

        Token objects minted by the old registry stay valid: the new
        registry assumes the old identity mapping.
        """
        self._current.update(other._current)
        self._next_generation = max(
            self._next_generation, other._next_generation
        )
        self._id = other._id
        return self
