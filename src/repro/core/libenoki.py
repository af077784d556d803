"""libEnoki: the library linked with the scheduler module.

It owns the message dispatch ("the processing function in libEnoki parses
each message to determine which scheduler function is being invoked",
section 3.1), the per-scheduler read-write lock used for quiescing, the
recorded lock wrappers, and the :class:`EnokiEnv` facade through which
scheduler code reaches the few kernel services it may use (locks, resched
timers, reverse hint queues).
"""

from repro.core.errors import EnokiError
from repro.core.rwlock import SchedulerRwLock
from repro.simkernel.tracing import LOCK


class EnokiSpinLock:
    """A scheduler-visible lock.

    In the simulated kernel there is no true concurrency, so acquisition
    never blocks — but every acquire/release is reported, with the
    acquiring kernel-thread id, straight to the recorder and the kernel
    trace hook the env holds, which is exactly the stream the
    record/replay system needs (section 3.4: "we include recording
    functionality in the shim wrappers around the kernel lock
    functions").  ``acquire``/``release`` are ``__enter__``/``__exit__``,
    so both spellings share one emit path (``with lock:``, which
    brackets every scheduler callback, is the hot one).
    """

    __slots__ = ("lock_id", "name", "_env", "_held_by")

    def __init__(self, lock_id, name, env):
        self.lock_id = lock_id
        self.name = name
        self._env = env
        self._held_by = None

    def __enter__(self):
        if self._held_by is not None:
            raise EnokiError(
                f"lock {self.name} re-acquired while held by thread "
                f"{self._held_by} (self-deadlock)"
            )
        env = self._env
        thread = self._held_by = env._thread
        if not env._lock_quiet:
            if env.recorder is not None:
                env.recorder.note_lock_op("acquire", self.lock_id, thread)
            if env._trace is not None:
                env._trace("lock_acquire", env._clock.now, thread, LOCK,
                           self.lock_id)
        return self

    def __exit__(self, exc_type=None, exc=None, tb=None):
        if self._held_by is None:
            raise EnokiError(f"lock {self.name} released while not held")
        self._held_by = None
        env = self._env
        if not env._lock_quiet:
            thread = env._thread
            if env.recorder is not None:
                env.recorder.note_lock_op("release", self.lock_id, thread)
            if env._trace is not None:
                env._trace("lock_release", env._clock.now, thread, LOCK,
                           self.lock_id)
        return False

    acquire = __enter__
    release = __exit__


class EnokiEnv:
    """The only view of the kernel an Enoki scheduler gets.

    Deliberately excludes a clock: all timing information reaches the
    scheduler inside messages, which is what makes record/replay exact
    (section 3.4's determinism assumption).  ``_clock`` only stamps the
    spin locks' events for whoever watches them.
    """

    def __init__(self, enoki_c=None, recorder=None):
        self._enoki_c = enoki_c
        self.recorder = recorder
        #: the kernel thread whose call is being dispatched (``dispatch``
        #: saves and restores it around each call)
        self._thread = -1
        self._next_lock_id = 0
        self.locks = []
        #: the spin locks' event taps, kept fresh by the hosting shim's
        #: ``refresh_mode``: ``_lock_quiet`` is True while neither a
        #: recorder nor a trace hook wants lock events (False, always
        #: notify, is the safe default); ``_trace`` / ``_clock`` are the
        #: kernel's trace hook and the clock it stamps lock events with.
        #: A live upgrade runs the new module's init before that refresh.
        kernel = getattr(enoki_c, "kernel", None)
        self._trace = kernel.trace if kernel is not None else None
        self._clock = kernel.clock if kernel is not None else None
        self._lock_quiet = False

    @property
    def current_thread(self):
        return self._thread

    # -- locks ------------------------------------------------------------

    def create_lock(self, name=None):
        self._next_lock_id += 1
        lock = EnokiSpinLock(
            self._next_lock_id, name or f"lock-{self._next_lock_id}", self
        )
        self.locks.append(lock)
        if self.recorder is not None:
            self.recorder.note_lock_created(self._next_lock_id, lock.name)
        return lock

    # -- timers ------------------------------------------------------------

    def start_resched_timer(self, cpu, delay_ns):
        """Arm a one-shot preemption timer on ``cpu``.

        When it fires the kernel reschedules the CPU, producing the usual
        ``task_preempt`` / ``pick_next_task`` sequence.  The Enoki Shinjuku
        scheduler arms one of these on every pick (section 4.2.2).
        """
        if self.recorder is not None:
            self.recorder.note_output(
                "timer", {"cpu": cpu, "delay_ns": delay_ns},
                self.current_thread,
            )
        if self._enoki_c is not None:
            self._enoki_c.arm_resched_timer(cpu, delay_ns)

    # -- reverse hint queue --------------------------------------------------

    def send_rev_message(self, queue_id, payload):
        """Push a kernel-to-user message onto a registered reverse queue."""
        if self.recorder is not None:
            self.recorder.note_output(
                "rev_msg", {"queue_id": queue_id, "payload": payload},
                self.current_thread,
            )
        if self._enoki_c is not None:
            return self._enoki_c.push_rev_message(queue_id, payload)
        return True


class _TraitMethods(dict):
    """Trait function name -> bound scheduler method, bound on first use.

    A plain subscript on the crossing; the miss path runs once per
    function per loaded module (a live upgrade builds a fresh table with
    its fresh :class:`LibEnoki`, so no stale bound method survives it).
    """

    def __init__(self, scheduler):
        super().__init__()
        self.scheduler = scheduler

    def __missing__(self, func):
        method = getattr(self.scheduler, func, None)
        if method is None:
            raise EnokiError(
                f"scheduler {type(self.scheduler).__name__} lacks {func}"
            )
        self[func] = method
        return method


class LibEnoki:
    """Dispatch messages to one scheduler instance, under the rwlock."""

    def __init__(self, scheduler, enoki_c=None, recorder=None, env=None):
        self.scheduler = scheduler
        self.rwlock = SchedulerRwLock(
            name=f"enoki-{type(scheduler).__name__}"
        )
        self.recorder = recorder
        self.env = env if env is not None else EnokiEnv(enoki_c, recorder)
        self.methods = _TraitMethods(scheduler)
        scheduler.set_env(self.env)
        scheduler.module_init()

    def dispatch(self, func, args, thread=-1, extra=None):
        """Process one call: lock, invoke, record, return the response.

        ``args`` is trait method ``func``'s positional argument tuple, in
        the message's declared field order.  ``extra`` carries out-of-band
        payloads (ring buffers for queue registration, the transfer
        structure for ``reregister_init``) that are passed by reference
        rather than through the message, exactly as the real
        implementation shares memory under the message-passing interface
        (section 6).

        This is the *watched* crossing (and the replayer's): Enoki-C's
        quiet mode calls the trait method directly (see
        ``EnokiSchedClass._call``).  The read section is
        :meth:`SchedulerRwLock.acquire_read` / ``release_read`` written
        out, counters and tap alike, as the quiet mode's is.
        """
        rwlock = self.rwlock
        if rwlock._writer:
            raise EnokiError(
                "dispatch while the upgrade writer holds the lock"
            )
        rwlock._readers += 1
        rwlock.read_acquisitions += 1
        if rwlock.on_event is not None:
            rwlock.on_event("rwlock_read_acquire", rwlock.clock.now, -1,
                            LOCK, rwlock.name)
        env = self.env
        previous_thread = env._thread
        env._thread = thread
        try:
            shim = env._enoki_c
            injector = None if shim is None else shim.fault_injector
            if injector is not None:
                injector.on_dispatch(func)
            response = (self.methods[func](*args)
                        if func not in self._OUT_OF_BAND
                        else self._invoke(func, args, extra))
            if injector is not None:
                response = injector.filter_response(func, response)
        finally:
            env._thread = previous_thread
            rwlock._readers -= 1
            if rwlock.on_event is not None:
                rwlock.on_event("rwlock_read_release", rwlock.clock.now,
                                -1, LOCK, rwlock.name)
        if self.recorder is not None:
            self.recorder.note_call(func, args, response, thread)
        return response

    def dispatch_locked(self, func, args, thread=-1, extra=None):
        """Dispatch while the caller holds the upgrade write lock.

        Only the upgrade manager uses this, for ``reregister_prepare`` /
        ``reregister_init`` — the one situation where the module must be
        entered with the readers excluded (section 3.2).
        """
        if not self.rwlock.write_held:
            raise EnokiError("dispatch_locked without the write lock")
        env = self.env
        previous_thread = env._thread
        env._thread = thread
        try:
            # Upgrade-path faults (fail reregister_init) fire here, inside
            # the quiesced region — exactly where a real init bug would.
            shim = env._enoki_c
            injector = None if shim is None else shim.fault_injector
            if injector is not None:
                injector.on_dispatch(func)
            response = self._invoke(func, args, extra)
        finally:
            env._thread = previous_thread
        if self.recorder is not None:
            self.recorder.note_call(func, args, response, thread)
        return response

    #: calls whose payload travels out of band (``extra``) rather than as
    #: positional message fields
    _OUT_OF_BAND = frozenset((
        "register_queue", "register_reverse_queue",
        "reregister_prepare", "reregister_init",
    ))

    def _invoke(self, func, args, extra):
        if func not in self._OUT_OF_BAND:
            return self.methods[func](*args)
        sched = self.scheduler
        if func == "register_queue":
            return sched.register_queue(extra)
        if func == "register_reverse_queue":
            return sched.register_reverse_queue(extra)
        if func == "reregister_prepare":
            return sched.reregister_prepare()
        return sched.reregister_init(extra)
