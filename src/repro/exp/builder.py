"""The single kernel-construction path: ``KernelBuilder`` -> ``Session``.

Describe the stack once — either imperatively (``with_native`` /
``with_enoki`` / ``with_ghost``) or declaratively from a
:class:`~repro.exp.spec.ScenarioSpec` — and :meth:`KernelBuilder.build`
returns a :class:`Session` holding the live kernel plus the handles every
harness needs (the shim, the policy under test, a fresh-scheduler factory
for live upgrades).  :data:`SCHEDULERS` names every scheduler a session
can run.
"""

from collections import namedtuple
from importlib import import_module

from repro.exp.spec import ScenarioSpec, canonical_groups, parse_topology
from repro.simkernel import Kernel, SimConfig
from repro.simkernel.errors import SimError

#: one scheduler a session can run.  ``kind`` is ``native`` (a trusted
#: kernel class), ``enoki`` (a policy behind the checked shim),
#: ``arbiter`` (an Enoki policy that schedules Arachne runtimes' cores,
#: not tasks) or ``ghost`` (an agent stack); ``path`` is the
#: ``module:attr`` it registers through (a ghOSt stack's installer), left
#: a string until a session registers it; ``options`` are defaults under
#: the session's own; ``fuzz`` and ``upgrade`` are empty where the
#: scheduler admits that leg, else the reason it does not
SchedulerRow = namedtuple("SchedulerRow", "kind path options fuzz upgrade",
                          defaults=({}, "", ""))

_NOT_FUZZED = "not in the fuzz pool yet (ROADMAP item 3)"
_BUILT_IN = "a native class has no shim to swap it through"
_NO_SHIM = "a ghOSt agent stack has no shim to swap it through"

#: short name -> row; the one list of schedulers
SCHEDULERS = {
    "cfs": SchedulerRow("native", "repro.schedulers.cfs:CfsSchedClass",
                        fuzz="the fuzzer's native control machine",
                        upgrade=_BUILT_IN),
    "fifo_native": SchedulerRow(
        "native", "repro.schedulers.fifo_native:NativeFifoClass",
        fuzz=_NOT_FUZZED, upgrade=_BUILT_IN),
    "eevdf": SchedulerRow("enoki", "repro.schedulers.eevdf:EnokiEevdf"),
    "fifo": SchedulerRow("enoki", "repro.schedulers.fifo:EnokiFifo"),
    "locality": SchedulerRow(
        "enoki", "repro.schedulers.locality:EnokiLocality",
        fuzz=_NOT_FUZZED),
    "nest": SchedulerRow("enoki", "repro.schedulers.nest:EnokiNest",
                         fuzz=_NOT_FUZZED),
    "serverless": SchedulerRow(
        "enoki", "repro.schedulers.serverless:EnokiServerless"),
    "shinjuku": SchedulerRow(
        "enoki", "repro.schedulers.shinjuku:EnokiShinjuku",
        fuzz=_NOT_FUZZED),
    "wfq": SchedulerRow("enoki", "repro.schedulers.wfq:EnokiWfq"),
    "arachne": SchedulerRow(
        "arbiter", "repro.schedulers.arachne:EnokiCoreArbiter",
        fuzz=_NOT_FUZZED),
    "ghost_sol": SchedulerRow(
        "ghost", "repro.schedulers.ghost:install_ghost_sol",
        fuzz=_NOT_FUZZED, upgrade=_NO_SHIM),
    "ghost_percpu_fifo": SchedulerRow(
        "ghost", "repro.schedulers.ghost:install_ghost_percpu_fifo",
        fuzz=_NOT_FUZZED, upgrade=_NO_SHIM),
    # the paper's Shinjuku layout on its eight-CPU box
    "ghost_shinjuku": SchedulerRow(
        "ghost", "repro.schedulers.ghost:install_ghost_shinjuku",
        {"managed_cpus": [3, 4, 5, 6, 7], "agent_cpu": 2},
        fuzz=_NOT_FUZZED, upgrade=_NO_SHIM),
}

#: the fault harness's watchdog: scan every 200 us, and call a task
#: queued 5 ms without a pick lost (then escalate it into failover)
WATCHDOG_PERIOD_NS = 200_000
LOST_TASK_NS = 5_000_000


def scheduler_row(name, kinds=None):
    """``name``'s row; a :class:`SimError` listing the valid names when
    no row (of one of ``kinds``, if given) has it."""
    row = SCHEDULERS.get(name)
    if row is None or (kinds is not None and row.kind not in kinds):
        what = " or ".join(kinds) + " scheduler" if kinds else "scheduler"
        valid = ", ".join(n for n, r in SCHEDULERS.items()
                          if kinds is None or r.kind in kinds)
        raise SimError(f"unknown {what} {name!r}; valid: {valid}")
    return row


def load(row):
    """The object ``row.path`` names, importing its module."""
    module, _, attr = row.path.partition(":")
    return getattr(import_module(module), attr)


def _entry(name, kinds, options):
    """What ``name``'s row registers, and ``options`` over its defaults."""
    row = scheduler_row(name, kinds)
    return load(row), {**row.options, **options}


def enoki_scheduler_names():
    """Short names of the Enoki policies :meth:`KernelBuilder.with_enoki`
    runs ordinary tasks under."""
    return sorted(n for n, row in SCHEDULERS.items() if row.kind == "enoki")


class Session:
    """A built kernel plus the handles experiment harnesses need.

    ``kernel`` is the live machine; ``policy`` is the policy number of the
    scheduler under test (what workloads should spawn tasks under);
    ``shim`` is the Enoki adapter when one was registered (None for pure
    native stacks); ``scheduler_factory`` builds a fresh instance of the
    scheduler under test — the live-upgrade and replay paths need one.
    """

    def __init__(self, kernel, policy, shim=None, scheduler_factory=None,
                 spec=None):
        self.kernel = kernel
        self.policy = policy
        self.shim = shim
        self.scheduler_factory = scheduler_factory
        self.spec = spec
        self.observer = None
        self.injector = None
        self.watchdog = None
        self.upgrades = None
        self.telemetry = None

    # -- conveniences over the kernel ----------------------------------

    def spawn(self, prog, **kwargs):
        kwargs.setdefault("policy", self.policy)
        return self.kernel.spawn(prog, **kwargs)

    def group_policy(self, group):
        """The policy tasks of ``group`` should run under: the nearest
        ancestor group with an explicit policy, else the scheduler under
        test."""
        node = self.kernel.groups.group(group)
        while node is not None:
            if node.policy is not None:
                return node.policy
            node = node.parent
        return self.policy

    def spawn_in_group(self, prog, group, **kwargs):
        """Spawn into a task group, under that group's resolved policy."""
        kwargs.setdefault("policy", self.group_policy(group))
        return self.kernel.spawn(prog, group=group, **kwargs)

    def run_until_idle(self, max_events=None):
        return self.kernel.run_until_idle(max_events)

    def sched_class(self, policy=None):
        """The registered class instance serving ``policy`` (default: the
        scheduler under test)."""
        policy = self.policy if policy is None else policy
        return self.kernel._class_by_policy[policy]

    # -- optional machinery, attached post-build -----------------------

    def attach_observer(self, capacity=200_000, kinds=None):
        from repro.obs import Observer
        self.observer = Observer.attach(self.kernel, capacity=capacity,
                                        kinds=kinds)
        return self.observer

    def attach_sanitizers(self):
        from repro.verify.sanitizers import SanitizerSuite
        return SanitizerSuite.attach(self.kernel)

    def attach_telemetry(self, interval_ns, slos=(), **kw):
        """Attach inline accounting + the windowed sampler (and an
        SLO monitor when ``slos`` are given)."""
        from repro.obs.telemetry import TelemetrySampler
        registry = (self.observer.registry if self.observer is not None
                    else None)
        kw.setdefault("registry", registry)
        self.telemetry = TelemetrySampler.attach(
            self.kernel, interval_ns, slos=tuple(slos), **kw)
        return self.telemetry

    def install_faults(self, plan):
        """Wire the full containment stack the chaos/fuzz harnesses use:
        injector on the shim, the shim's containment boundary (failing
        over to the highest-priority native class), and a watchdog
        escalating lost tasks into failover."""
        from repro.core import SchedulerWatchdog
        if self.shim is None:
            raise SimError("fault injection needs an Enoki shim")
        self.injector = self.shim.install_faults(plan)
        self.watchdog = SchedulerWatchdog(
            self.kernel, self.policy, period_ns=WATCHDOG_PERIOD_NS,
            lost_task_ns=LOST_TASK_NS, escalate=self.shim.containment)
        return self.injector

    def schedule_upgrade(self, at_ns, factory=None):
        """Schedule a live upgrade to a fresh scheduler instance."""
        from repro.core import UpgradeManager
        if self.shim is None:
            raise SimError("live upgrade needs an Enoki shim")
        factory = factory if factory is not None else self.scheduler_factory
        if factory is None:
            raise SimError("no scheduler factory to upgrade to")
        if self.upgrades is None:
            self.upgrades = UpgradeManager(self.kernel, self.shim)
        self.upgrades.schedule_upgrade(factory, at_ns=at_ns)
        return self.upgrades

    def stop(self):
        """Tear down attached machinery (watchdog timers etc.)."""
        if self.watchdog is not None:
            self.watchdog.stop()
        if self.telemetry is not None:
            self.telemetry.stop()


class KernelBuilder:
    """Composable kernel assembly; every construction site goes through
    here (CLI, benches, fuzzer, tests)."""

    def __init__(self, topology=None, config=None, seed=None):
        self._topology = topology
        self._config = config
        self._config_overrides = {}
        self._seed = seed
        self._registrations = []      # thunk(kernel) -> (kind, policy, ...)
        self._policy = None           # policy under test
        self._shim_slot = {}          # filled at build time
        self._spec = None
        self._groups = ()             # canonical group definitions

    # -- configuration --------------------------------------------------

    def with_config(self, config=None, **overrides):
        if config is not None:
            self._config = config
        self._config_overrides.update(overrides)
        return self

    def with_seed(self, seed):
        """Seed the kernel's deterministic jitter RNG (``SimConfig.seed``)."""
        self._seed = seed
        return self

    def with_groups(self, groups):
        """Declare a task-group forest (sparse dicts; parents first).
        The groups are created on the kernel at build time."""
        self._groups = canonical_groups(groups)
        return self

    # -- scheduler stack -------------------------------------------------

    def with_native(self, name="cfs", policy=0, priority=5, **options):
        """Register a trusted native class (``cfs`` or ``fifo_native``)."""
        cls, options = _entry(name, ("native",), options)

        def register(kernel):
            kernel.register_sched_class(cls(policy=policy, **options),
                                        priority=priority)
        self._registrations.append(register)
        if self._policy is None:
            self._policy = policy
        return self

    def with_enoki(self, scheduler, policy=7, priority=10, recorder=None,
                   **options):
        """Register an Enoki scheduler behind the checked shim; it becomes
        the scheduler under test (``session.policy``).  ``scheduler`` is
        a table name or a policy class, built as ``cls(nr_cpus, policy,
        **options)``."""
        cls, options = ((scheduler, options) if isinstance(scheduler, type)
                        else _entry(scheduler, ("enoki", "arbiter"), options))

        def register(kernel):
            from repro.core import EnokiSchedClass
            nr = kernel.topology.nr_cpus

            def factory():
                return cls(nr, policy, **options)
            shim = EnokiSchedClass.register(
                kernel, factory(), policy,
                priority=priority, recorder=recorder)
            self._shim_slot["shim"] = shim
            self._shim_slot["factory"] = factory
        self._registrations.append(register)
        self._policy = policy
        return self

    def with_ghost(self, name="ghost_sol", **options):
        """Install a ghOSt comparison stack (``ghost_sol`` /
        ``ghost_percpu_fifo`` / ``ghost_shinjuku``)."""
        install, options = _entry(name, ("ghost",), options)

        def register(kernel):
            ghost, _agents = install(kernel, **options)
            self._policy = ghost.policy
        self._registrations.append(register)
        return self

    # -- build ------------------------------------------------------------

    def build(self):
        """Assemble the kernel and return a :class:`Session`."""
        topology = (parse_topology(self._topology)
                    if self._topology is not None else None)
        config = self._config if self._config is not None else SimConfig()
        overrides = dict(self._config_overrides)
        if self._seed is not None:
            overrides["seed"] = self._seed
        if overrides:
            config = config.scaled(**overrides)
        kernel = Kernel(topology, config)
        for g in self._groups:
            kernel.groups.create(
                g["name"], parent=g["parent"], weight=g["weight"],
                quota_ns=g["quota_ns"], period_ns=g["period_ns"],
                policy=g["policy"])
        self._shim_slot.clear()
        for register in self._registrations:
            register(kernel)
        policy = self._policy if self._policy is not None else 0
        return Session(
            kernel, policy,
            shim=self._shim_slot.get("shim"),
            scheduler_factory=self._shim_slot.get("factory"),
            spec=self._spec,
        )

    # -- declarative construction ----------------------------------------

    @classmethod
    def from_spec(cls, spec, recorder=None):
        """Translate a :class:`~repro.exp.spec.ScenarioSpec` into a
        configured builder (call :meth:`build` on the result)."""
        if isinstance(spec, dict):
            spec = ScenarioSpec.from_dict(spec)
        builder = cls(topology=spec.topology, seed=spec.seed)
        builder._spec = spec
        if spec.config:
            builder.with_config(**spec.config)
        if spec.groups:
            builder.with_groups(spec.groups)
        row = scheduler_row(spec.sched)
        scheduler_row(spec.base_sched, ("native",))
        if row.kind == "native":
            # Pure native stack: the scheduler under test is the base.
            builder.with_native(spec.sched, policy=0, priority=10,
                                **spec.sched_options)
            return builder
        builder.with_native(spec.base_sched, policy=0, priority=5)
        if row.kind == "ghost":
            builder.with_ghost(spec.sched, **spec.sched_options)
        else:
            builder.with_enoki(spec.sched, policy=spec.policy, priority=10,
                               recorder=recorder, **spec.sched_options)
        return builder

    @classmethod
    def session_from_spec(cls, spec, recorder=None):
        """One-shot: spec -> built :class:`Session`, with the spec's fault
        plan and upgrade plan already wired."""
        builder = cls.from_spec(spec, recorder=recorder)
        session = builder.build()
        if isinstance(spec, dict):
            spec = ScenarioSpec.from_dict(spec)
        if spec.fault_plan is not None:
            from repro.core import FaultPlan
            plan = (spec.fault_plan
                    if isinstance(spec.fault_plan, FaultPlan)
                    else FaultPlan.from_dict(spec.fault_plan))
            session.install_faults(plan)
        if spec.upgrade_at_ns:
            session.schedule_upgrade(spec.upgrade_at_ns)
        if spec.telemetry_ns:
            session.attach_telemetry(spec.telemetry_ns, slos=spec.slos)
        return session
