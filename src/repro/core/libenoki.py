"""libEnoki: the library linked with the scheduler module.

It owns the message dispatch ("the processing function in libEnoki parses
each message to determine which scheduler function is being invoked",
section 3.1), the per-scheduler read-write lock used for quiescing, the
recorded lock wrappers, and the :class:`EnokiEnv` facade through which
scheduler code reaches the few kernel services it may use (locks, resched
timers, reverse hint queues).
"""

import copy
import threading

from repro.core.errors import EnokiError
from repro.core.hints import UserMessage
from repro.core.rwlock import SchedulerRwLock

#: spin-lock op -> trace kind
_LOCK_KINDS = {"acquire": "lock_acquire", "release": "lock_release"}


class EnokiSpinLock:
    """A scheduler-visible lock.

    In the simulated kernel there is no true concurrency, so acquisition
    never blocks — but every acquire/release is reported to the lock
    observer with the acquiring kernel-thread id, which is exactly the
    stream the record/replay system needs (section 3.4: "we include
    recording functionality in the shim wrappers around the kernel lock
    functions").
    """

    __slots__ = ("lock_id", "name", "_env", "_held_by")

    def __init__(self, lock_id, name, env):
        self.lock_id = lock_id
        self.name = name
        self._env = env
        self._held_by = None

    def acquire(self):
        if self._held_by is not None:
            raise EnokiError(
                f"lock {self.name} re-acquired while held by thread "
                f"{self._held_by} (self-deadlock)"
            )
        env = self._env
        self._held_by = (env._thread if not env._threaded
                         else env.current_thread)
        if not env._lock_quiet:
            env.note_lock_op("acquire", self.lock_id)

    def release(self):
        if self._held_by is None:
            raise EnokiError(f"lock {self.name} released while not held")
        self._held_by = None
        env = self._env
        if not env._lock_quiet:
            env.note_lock_op("release", self.lock_id)

    def __enter__(self):
        # acquire(), inlined: `with lock:` brackets every scheduler
        # callback, so the context-manager protocol is itself hot.
        if self._held_by is not None:
            raise EnokiError(
                f"lock {self.name} re-acquired while held by thread "
                f"{self._held_by} (self-deadlock)"
            )
        env = self._env
        self._held_by = (env._thread if not env._threaded
                         else env.current_thread)
        if not env._lock_quiet:
            env.note_lock_op("acquire", self.lock_id)
        return self

    def __exit__(self, exc_type, exc, tb):
        # release(), inlined (see __enter__).
        if self._held_by is None:
            raise EnokiError(f"lock {self.name} released while not held")
        self._held_by = None
        env = self._env
        if not env._lock_quiet:
            env.note_lock_op("release", self.lock_id)
        return False


class EnokiEnv:
    """The only view of the kernel an Enoki scheduler gets.

    Deliberately excludes a clock: all timing information reaches the
    scheduler inside messages, which is what makes record/replay exact
    (section 3.4's determinism assumption).
    """

    def __init__(self, enoki_c=None, recorder=None):
        self._enoki_c = enoki_c
        self.recorder = recorder
        # A plain attribute carries the current thread id in the (default)
        # single-threaded simulation; the threaded replayer switches to
        # thread-local storage via make_threaded() so concurrent dispatches
        # don't clobber each other.
        self._threaded = False
        self._thread = -1
        self._tls = threading.local()
        self._next_lock_id = 0
        self.locks = []
        #: cached "no lock observers" flag: True while neither a recorder
        #: nor a kernel trace hook wants lock events, letting spin-lock
        #: acquire/release skip ``note_lock_op`` entirely.  Kept fresh by
        #: the hosting shim's ``refresh_mode`` (trace attach/detach goes
        #: through ``Kernel.set_trace``).  False (always notify) is the
        #: safe default for envs without a shim.
        self._lock_quiet = False

    def make_threaded(self):
        """Route ``current_thread`` through thread-local storage."""
        self._threaded = True

    def __deepcopy__(self, memo):
        # Thread-local storage cannot be deep-copied (and never needs to
        # be: only the threaded replayer populates it, and snapshots are
        # taken from quiescent single-threaded simulations).  Copy every
        # other attribute through the memo and give the clone fresh TLS.
        cls = self.__class__
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        for key, value in self.__dict__.items():
            if key == "_tls":
                clone._tls = threading.local()
            else:
                clone.__dict__[key] = copy.deepcopy(value, memo)
        return clone

    @property
    def current_thread(self):
        if self._threaded:
            return getattr(self._tls, "thread", -1)
        return self._thread

    @current_thread.setter
    def current_thread(self, value):
        if self._threaded:
            self._tls.thread = value
        else:
            self._thread = value

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

    def note_lock_op(self, op, lock_id):
        thread = self.current_thread if self._threaded else self._thread
        if self.recorder is not None:
            self.recorder.note_lock_op(op, lock_id, thread)
        shim = self._enoki_c
        kernel = shim.kernel if shim is not None else None
        trace = kernel.trace if kernel is not None else None
        if trace is not None:
            trace(_LOCK_KINDS[op], t=kernel.clock.now, cpu=thread,
                  lock=lock_id)

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

    def dispatch(self, message, thread=-1, extra=None):
        """Process one message: lock, invoke, record, return the response.

        ``extra`` carries out-of-band payloads (ring buffers for queue
        registration, the transfer structure for ``reregister_init``) that
        are passed by reference rather than through the message, exactly as
        the real implementation shares memory under the message-passing
        interface (section 6).

        This is the *watched* crossing (and the replayer's): Enoki-C's
        quiet mode calls the trait method directly and never builds the
        message (see ``EnokiSchedClass._call``).
        """
        rwlock = self.rwlock
        if not rwlock.acquire_read(blocking=False):
            raise EnokiError(
                "dispatch while the upgrade writer holds the lock"
            )
        env = self.env
        # The thread id is a plain attribute unless real OS threads are
        # dispatching (threaded replay keeps it in thread-local storage).
        threaded = env._threaded
        if threaded:
            previous_thread = env.current_thread
            env.current_thread = thread
        else:
            previous_thread = env._thread
            env._thread = thread
        try:
            shim = env._enoki_c
            injector = None if shim is None else shim.fault_injector
            if injector is not None:
                injector.on_dispatch(message.FUNCTION)
            response = self._invoke(message, extra)
            if injector is not None:
                response = injector.filter_response(message.FUNCTION,
                                                    response)
        finally:
            if threaded:
                env.current_thread = previous_thread
            else:
                env._thread = previous_thread
            rwlock.release_read()
        if self.recorder is not None:
            self.recorder.note_call(message, response, thread)
        return response

    def dispatch_locked(self, message, thread=-1, extra=None):
        """Dispatch while the caller holds the upgrade write lock.

        Only the upgrade manager uses this, for ``reregister_prepare`` /
        ``reregister_init`` — the one situation where the module must be
        entered with the readers excluded (section 3.2).
        """
        if not self.rwlock.write_held:
            raise EnokiError("dispatch_locked without the write lock")
        previous_thread = self.env.current_thread
        self.env.current_thread = thread
        try:
            # Upgrade-path faults (fail reregister_init) fire here, inside
            # the quiesced region — exactly where a real init bug would.
            shim = self.env._enoki_c
            injector = None if shim is None else shim.fault_injector
            if injector is not None:
                injector.on_dispatch(message.FUNCTION)
            response = self._invoke(message, extra)
        finally:
            self.env.current_thread = previous_thread
        if self.recorder is not None:
            self.recorder.note_call(message, response, thread)
        return response

    #: messages whose payload travels out of band (``extra``) rather than
    #: as positional message fields
    _OUT_OF_BAND = frozenset((
        "parse_hint", "register_queue", "register_reverse_queue",
        "reregister_prepare", "reregister_init",
    ))

    def _invoke(self, message, extra):
        func = message.FUNCTION
        if func in self._OUT_OF_BAND:
            sched = self.scheduler
            if func == "parse_hint":
                return sched.parse_hint(
                    UserMessage(message.pid, message.payload)
                )
            if func == "register_queue":
                return sched.register_queue(extra)
            if func == "register_reverse_queue":
                return sched.register_reverse_queue(extra)
            if func == "reregister_prepare":
                return sched.reregister_prepare()
            return sched.reregister_init(extra)
        method = self.methods[func]
        getter = message._ARG_GETTER
        if getter is None:
            return method()
        if message._ARG_MULTI:
            return method(*getter(message))
        return method(getter(message))
