"""The Enoki-C -> scheduler crossing: one positional call, two modes.

``EnokiSchedClass._call(func, args)`` hands the policy an argument tuple in
the message's declared field order.  *Quiet* (nothing attached) it calls
the trait method directly; *watched* (trace hook, profiler, recorder,
fault injector, rwlock tap) it passes the same tuple through
``LibEnoki.dispatch(func, args, ...)``, which the recorder encodes
straight from ``(func, args)``.  Neither mode builds a message unless a
panic record needs its repr.  These tests pin what keeps the two equal:
the positional contract, identical arguments either way, identical
containment, the writer guard, and a mode flag that is never stale.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.schedulers
from repro.core import FaultPlan, FaultSpec, Recorder, UpgradeManager
from repro.core import messages as msgs
from repro.core.errors import EnokiError
from repro.core.libenoki import LibEnoki
from repro.core.schedulable import Schedulable
from repro.core.trait import EnokiScheduler
from repro.obs import Observer
from repro.obs.profiler import CallbackProfiler
from repro.exp import KernelBuilder
from repro.schedulers.wfq import EnokiWfq
from repro.simkernel import SimConfig
from repro.simkernel.program import (Run, SendHint, SetAffinity, SetNice,
                                     Sleep, YieldCpu)
from repro.simkernel.task import TaskState
from repro.verify import SanitizerSuite

POLICY = 7
NR_CPUS = 4

#: trait function -> message class, for every in-band function (the
#: out-of-band four pass their payload by reference, not positionally)
IN_BAND = {
    func: cls for func, cls in msgs._MESSAGE_FOR.items()
    if func not in LibEnoki._OUT_OF_BAND
}


def scheduler_classes():
    """The trait base plus every subclass defined under repro.schedulers."""
    for info in pkgutil.iter_modules(repro.schedulers.__path__):
        importlib.import_module(f"repro.schedulers.{info.name}")
    found, todo = [], [EnokiScheduler]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in found
            if cls is EnokiScheduler
            or cls.__module__.startswith("repro.schedulers.")]


def _plain(value):
    """Tokens differ by identity between twin sessions, not by content."""
    return value.describe() if isinstance(value, Schedulable) else value


class SpyWfq(EnokiWfq):
    """WFQ that logs every in-band call's positional arguments."""

    def __init__(self, *args, bogus_pick_at=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []
        self.bogus_pick_at = bogus_pick_at
        self.picks = 0

    def pick_next_task(self, *args):
        self.seen.append(("pick_next_task", args[:3] + (dict(args[3]),)))
        self.picks += 1
        if self.picks == self.bogus_pick_at:
            return "bogus"         # not a token: the pnt_err route
        return super().pick_next_task(*args)


def _spy(func):
    def method(self, *args):
        self.seen.append((func, tuple(_plain(a) for a in args)))
        return getattr(super(SpyWfq, self), func)(*args)
    method.__name__ = func
    return method


for _func in IN_BAND:
    if _func != "pick_next_task":
        setattr(SpyWfq, _func, _spy(_func))


def make(sched=SpyWfq, recorder=None, config=None, **options):
    session = (KernelBuilder(f"smp:{NR_CPUS}", config).with_native("cfs")
               .with_enoki(sched, policy=POLICY, recorder=recorder,
                           **options).build())
    return session.kernel, session.shim, session.shim.scheduler


def mixed(i, hints=True):
    """Run/sleep phases plus one of each rarer state change."""
    def prog():
        for phase in range(6):
            yield Run(300_000 + 40_000 * i)
            if phase == 1:
                yield SetNice(i % 3)
            elif phase == 2:
                yield SetAffinity(frozenset({i % NR_CPUS,
                                             (i + 1) % NR_CPUS}))
            elif phase == 3 and hints:
                yield SendHint({"i": i}, policy=POLICY)
            elif phase == 4:
                yield YieldCpu()
            yield Sleep(120_000)
    return prog


def spawn_mixed(kernel, count=8, hints=True):
    # Everything starts on CPU 0 so idle CPUs steal (migrate_task_rq).
    return [kernel.spawn(mixed(i, hints), policy=POLICY, origin_cpu=0)
            for i in range(count)]


class TestPositionalContract:
    def test_table_covers_every_in_band_message(self):
        assert len(IN_BAND) == 19
        for func, cls in IN_BAND.items():
            assert cls.FUNCTION == func
            assert msgs.message_for(func) is cls

    @pytest.mark.parametrize("cls", scheduler_classes(),
                             ids=lambda cls: cls.__name__)
    def test_method_parameters_are_the_message_fields(self, cls):
        for func, message_cls in IN_BAND.items():
            params = list(inspect.signature(getattr(cls, func)).parameters)
            assert tuple(params[1:]) == message_cls._ARG_NAMES, (
                f"{cls.__name__}.{func}{tuple(params[1:])} does not match "
                f"{message_cls.__name__}{message_cls._ARG_NAMES}")

    def test_message_roundtrips_its_argument_tuple(self):
        args = (3, 17, 2, 0, (0, 1))
        message = msgs.message_for("select_task_rq")(*args)
        assert tuple(getattr(message, name)
                     for name in message._ARG_NAMES) == args
        record = msgs.encode_call("select_task_rq", args)
        assert record == {"type": "MsgSelectTaskRq",
                          "fields": dict(zip(message._ARG_NAMES, args))}
        assert msgs.decode_call(record, None) == ("select_task_rq", args)


class TestTwoModesSeeTheSameArguments:
    REQUIRED = {
        "select_task_rq", "task_new", "task_wakeup", "task_blocked",
        "task_yield", "task_preempt", "task_dead", "task_departed",
        "task_prio_changed", "task_affinity_changed", "pick_next_task",
        "pnt_err", "balance", "migrate_task_rq", "task_tick",
        "enter_queue",
    }

    def run(self, observed):
        config = SimConfig().scaled(record_overhead_ns=0)
        recorder = Recorder() if observed else None
        kernel, shim, spy = make(bogus_pick_at=9, recorder=recorder,
                                 config=config)
        if observed:
            Observer.attach(kernel)
        assert shim._quiet is not observed
        tasks = spawn_mixed(kernel)
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)
        shim.task_departed(tasks[0], 0)
        return spy.seen

    def test_identical_argument_tuples(self):
        bare = self.run(observed=False)
        watched = self.run(observed=True)
        assert {func for func, _ in bare} >= self.REQUIRED
        assert bare == watched


class WakeupCrasher(EnokiWfq):
    def task_wakeup(self, *args):
        raise RuntimeError("wakeup bug")


class TestContainmentIsModeIndependent:
    def run(self, observed):
        kernel, shim, _ = make(WakeupCrasher)
        if observed:
            Observer.attach(kernel)
        assert shim._quiet is not observed
        tasks = spawn_mixed(kernel, count=6, hints=False)
        kernel.run_until_idle()
        assert shim.failed
        assert shim.containment.failover_report is not None
        assert all(t.state is TaskState.DEAD for t in tasks)
        return [(p.hook, p.kind, p.message, p.strike)
                for p in shim.containment.panics]

    def test_same_panic_records_and_no_task_lost(self):
        quiet = self.run(observed=False)
        watched = self.run(observed=True)
        assert [p[3] for p in quiet] == [1, 2, 3]      # struck out
        assert all(p[:2] == ("task_wakeup", "exception") for p in quiet)
        assert quiet[0][2].startswith("MsgTaskWakeup(pid=")
        assert quiet == watched


class TestWriterGuard:
    def test_quiet_crossing_under_the_upgrade_writer_raises(self):
        kernel, shim, _ = make()
        assert shim._quiet
        assert shim.lib.rwlock.try_acquire_write()
        try:
            with pytest.raises(EnokiError):
                shim.balance(0)
            assert not shim.containment.panics
        finally:
            shim.lib.rwlock.release_write()
        assert shim.balance(0) is None


class _TickingClock:
    """A clock that moves on at every read, so each stamp tells which
    read made it."""

    def __init__(self):
        self.reads = 0

    @property
    def now(self):
        self.reads += 1
        return self.reads * 10


class CountingWfq(EnokiWfq):
    """Notes its lib's read counters from inside each ``balance``."""

    lib = None

    def balance(self, cpu):
        rwlock = self.lib.rwlock
        self.inside = (rwlock.readers, rwlock.read_acquisitions)
        if cpu < 0:
            raise RuntimeError("planted balance bug")
        return super().balance(cpu)


def reference_dispatch(lib, func, args):
    """``LibEnoki.dispatch``'s read section spelt with the rwlock's own
    ``acquire_read`` / ``release_read``."""
    rwlock = lib.rwlock
    if not rwlock.acquire_read():
        raise EnokiError("dispatch while the upgrade writer holds the lock")
    try:
        return lib.methods[func](*args)
    finally:
        rwlock.release_read()


class TestInlineReadSection:
    """``LibEnoki.dispatch`` writes the read section out inline; the
    rwlock's ``acquire_read`` / ``release_read`` are the reference it is
    held to: the same counters inside and after the call, the same two
    events with the same stamps, and the same refusal under the
    upgrade writer."""

    def watched_lib(self):
        lib = LibEnoki(CountingWfq(NR_CPUS, POLICY))
        lib.scheduler.lib = lib
        events, rwlock = [], lib.rwlock
        rwlock.clock = _TickingClock()
        rwlock.on_event = lambda kind, t, cpu, keys, *values: events.append(
            (kind, t, cpu, keys, values, rwlock.readers,
             rwlock.read_acquisitions))
        return lib, events

    def run(self, dispatch, cpu):
        lib, events = self.watched_lib()
        outcomes = []
        for _ in range(2):
            try:
                outcomes.append(dispatch(lib, "balance", (cpu,)))
            except RuntimeError as exc:
                outcomes.append(repr(exc))
            outcomes.append((lib.scheduler.inside, lib.rwlock.readers,
                             lib.rwlock.read_acquisitions))
        return outcomes, events

    @pytest.mark.parametrize("cpu", [0, -1], ids=["returns", "raises"])
    def test_counters_and_events_match_the_reference(self, cpu):
        inline = self.run(lambda lib, func, args: lib.dispatch(func, args),
                          cpu)
        assert inline == self.run(reference_dispatch, cpu)
        outcomes, events = inline
        assert outcomes[1] == ((1, 1), 0, 1) and outcomes[3] == ((1, 2), 0, 2)
        name = ("enoki-CountingWfq",)
        assert events == [
            ("rwlock_read_acquire", 10, -1, ("lock",), name, 1, 1),
            ("rwlock_read_release", 20, -1, ("lock",), name, 0, 1),
            ("rwlock_read_acquire", 30, -1, ("lock",), name, 1, 2),
            ("rwlock_read_release", 40, -1, ("lock",), name, 0, 2)]

    def test_under_the_writer_both_refuse_alike(self):
        seen = []
        for dispatch in (lambda lib, func, args: lib.dispatch(func, args),
                         reference_dispatch):
            lib, events = self.watched_lib()
            assert lib.rwlock.try_acquire_write()
            with pytest.raises(EnokiError, match="upgrade writer"):
                dispatch(lib, "balance", (0,))
            seen.append((events, lib.rwlock.readers,
                         lib.rwlock.read_acquisitions,
                         lib.scheduler.__dict__.get("inside")))
        assert seen[0] == seen[1]
        assert seen[0] == ([("rwlock_write_acquire", 10, -1, ("lock",),
                             ("enoki-CountingWfq",), 0, 0)], 0, 0, None)


class TestModeFlagFreshness:
    """Each watcher, applied mid-run, sees the very next crossing."""

    def start(self):
        kernel, shim, spy = make()
        tasks = spawn_mixed(kernel, hints=False)
        kernel.run_until(700_000)
        assert shim._quiet and spy.seen
        return kernel, shim, spy, tasks

    def finish(self, kernel, tasks):
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)

    def test_install_faults(self):
        kernel, shim, spy, tasks = self.start()
        picks_before = spy.picks
        injector = shim.install_faults(FaultPlan(
            name="late-hang", description="first pick after install",
            specs=(FaultSpec(kind="hang", callback="pick_next_task",
                             at=1, hang_ns=1_000),)))
        assert not shim._quiet
        self.finish(kernel, tasks)
        assert injector.fired[0].invocation == 1
        assert injector.calls["pick_next_task"] == spy.picks - picks_before

    def test_attach_observer_then_detach(self):
        kernel, shim, spy, tasks = self.start()
        before = len(spy.seen)
        observer = Observer.attach(kernel)
        assert not shim._quiet
        kernel.run_until(1_400_000)
        during = len(spy.seen) - before
        assert during > 0
        assert len(observer.events_of_kind("enoki_msg")) == during
        assert observer.profilers[POLICY].total_calls() == during
        observer.detach()
        assert shim._quiet
        self.finish(kernel, tasks)
        assert len(observer.events_of_kind("enoki_msg")) == during

    def test_callback_profiler_then_uninstall(self):
        kernel, shim, spy, tasks = self.start()
        before = len(spy.seen)
        profiler = CallbackProfiler().install(shim)
        assert not shim._quiet
        kernel.run_until(1_400_000)
        during = len(spy.seen) - before
        assert profiler.total_calls() == during > 0
        profiler.uninstall()
        assert shim._quiet
        self.finish(kernel, tasks)
        assert profiler.total_calls() == during

    def test_failover(self):
        kernel, shim, spy, tasks = self.start()
        report = shim.containment.engage_failover(reason="test")
        assert report is not None and not shim._quiet
        silent_from = len(spy.seen)
        self.finish(kernel, tasks)
        assert len(spy.seen) == silent_from

    def test_live_upgrade(self):
        kernel, shim, old, tasks = self.start()
        new = SpyWfq(NR_CPUS, POLICY)
        report = UpgradeManager(kernel, shim).upgrade_now(new)
        assert not report.aborted and shim._quiet
        assert shim.lib.env._lock_quiet       # the new module's env too
        old_seen = len(old.seen)
        self.finish(kernel, tasks)
        assert len(old.seen) == old_seen
        assert new.seen

    # The lock and rwlock taps hold copies of the trace hook and the
    # clock; a stale copy would hide lock events from a watcher.

    LOCK_KINDS = ("lock_acquire", "lock_release", "rwlock_read_acquire",
                  "rwlock_read_release")

    def counted(self, kernel, policy):
        """Count, and time, every entry into ``policy``'s lock."""
        lock, entries = policy.lock, []

        class Counted:
            def __enter__(self):
                entries.append(kernel.clock.now)
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)
        policy.lock = Counted()
        return entries

    def times(self, observer, kind):
        return [event.t_ns for event in observer.events_of_kind(kind)]

    def test_lock_taps_follow_the_observer(self):
        kernel, shim, spy, tasks = self.start()
        before = len(spy.seen)
        entries = self.counted(kernel, spy)
        observer = Observer.attach(kernel)
        kernel.run_until(1_400_000)
        crossings = self.times(observer, "enoki_msg")
        assert len(crossings) == len(spy.seen) - before > 0
        # Each lock event is stamped with the kernel's time at the
        # crossing that took the lock; each rwlock event with its
        # crossing's.
        assert entries
        assert self.times(observer, "lock_acquire") == entries
        assert self.times(observer, "lock_release") == entries
        assert self.times(observer, "rwlock_read_acquire") == crossings
        assert self.times(observer, "rwlock_read_release") == crossings
        seen = {kind: len(observer.events_of_kind(kind))
                for kind in self.LOCK_KINDS}
        observer.detach()
        assert shim.lib.env._trace is None
        assert shim.lib.rwlock.on_event is None
        taken = len(entries)
        self.finish(kernel, tasks)
        assert len(entries) > taken
        assert {kind: len(observer.events_of_kind(kind))
                for kind in self.LOCK_KINDS} == seen

    def test_lock_taps_follow_a_live_upgrade(self):
        class LockingInit(SpyWfq):
            def reregister_init(self, *args):
                with self.lock:
                    return super().reregister_init(*args)

        kernel, shim, _old, tasks = self.start()
        observer = Observer.attach(kernel)
        new = LockingInit(NR_CPUS, POLICY)
        before = len(observer.events_of_kind("lock_acquire"))
        report = UpgradeManager(kernel, shim).upgrade_now(new)
        assert not report.aborted and not shim._quiet
        assert shim.lib.env._trace == observer._hook
        # The new module's init runs before the swap refreshes the taps.
        assert self.times(observer, "lock_acquire")[before:] == [kernel.now]
        marks = {kind: len(observer.events_of_kind(kind))
                 for kind in (*self.LOCK_KINDS, "enoki_msg")}
        entries = self.counted(kernel, new)
        self.finish(kernel, tasks)

        def since(kind):
            return self.times(observer, kind)[marks[kind]:]
        assert entries
        assert since("lock_acquire") == since("lock_release") == entries
        crossings = since("enoki_msg")
        assert len(crossings) == len(new.seen) > 0
        assert since("rwlock_read_acquire") == crossings
        assert since("rwlock_read_release") == crossings

    def test_suite_over_an_observer_takes_the_lock_taps(self):
        kernel, shim, _spy, tasks = self.start()
        first = Observer.attach(kernel)
        kernel.run_until(1_000_000)
        suite = SanitizerSuite.attach(kernel)
        rwlock = shim.lib.rwlock
        assert rwlock.on_event == suite._hook
        assert shim.lib.env._trace == suite._hook
        frozen = first.summary()
        reads = rwlock.read_acquisitions
        self.finish(kernel, tasks)
        assert first.summary() == frozen
        counts = suite.summary()
        assert counts["rwlock_read_acquire"] == \
            counts["rwlock_read_release"] == \
            rwlock.read_acquisitions - reads > 0
        assert counts["lock_acquire"] == counts["lock_release"] > 0
        # (Tokens issued before the suite came cannot be audited.)
        suite.check()
        assert not [v for v in suite.violations if v.sanitizer == "lock"]
