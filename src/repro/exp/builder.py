"""The single kernel-construction path: ``KernelBuilder`` -> ``Session``.

Before this layer existed, kernel assembly (topology + cost model + the
scheduler-class stack + recorder/fault/upgrade wiring) was copy-pasted
across the CLI, the benchmark suite, the fuzzer, and test fixtures.  The
builder replaces all of those: describe the stack once — either
imperatively (``with_native`` / ``with_enoki`` / ``with_ghost``) or
declaratively from a :class:`~repro.exp.spec.ScenarioSpec` — and
:meth:`KernelBuilder.build` returns a :class:`Session` holding the live
kernel plus the handles every harness needs (the shim, the policy under
test, a fresh-scheduler factory for live upgrades).
"""

from importlib import import_module

from repro.exp.spec import ScenarioSpec, canonical_groups, parse_topology
from repro.simkernel import Kernel, SimConfig
from repro.simkernel.errors import SimError

#: scheduler short name -> class name; the short name is the module's
#: name under ``repro.schedulers``
_NATIVE_SCHEDULERS = {"cfs": "CfsSchedClass",
                      "fifo_native": "NativeFifoClass"}
_ENOKI_SCHEDULERS = {
    "eevdf": "EnokiEevdf",
    "fifo": "EnokiFifo",
    "locality": "EnokiLocality",
    "nest": "EnokiNest",
    "serverless": "EnokiServerless",
    "shinjuku": "EnokiShinjuku",
    "wfq": "EnokiWfq",
}

#: short name -> class, filled as sessions first register each one: a
#: session imports only the scheduler modules it runs
_CLASSES = {}


def _scheduler_class(table, name):
    """The class ``table`` lists under ``name``, imported on first use."""
    try:
        return _CLASSES[name]
    except KeyError:
        module = import_module(f"repro.schedulers.{name}")
        cls = _CLASSES[name] = getattr(module, table[name])
        return cls


def enoki_scheduler_names():
    """Short names accepted by :meth:`KernelBuilder.with_enoki`."""
    return sorted(_ENOKI_SCHEDULERS)


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

    def install_faults(self, plan, fallback_policy=0,
                       watchdog_period_ns=None, lost_task_ns=None):
        """Wire the full containment stack the chaos/fuzz harnesses use:
        injector on the shim, containment boundary with a native fallback,
        and a watchdog escalating lost tasks into failover."""
        from repro.core import SchedulerWatchdog
        from repro.simkernel.clock import usecs
        if self.shim is None:
            raise SimError("fault injection needs an Enoki shim")
        self.injector = self.shim.install_faults(plan)
        self.shim.configure_containment(fallback_policy=fallback_policy)
        self.watchdog = SchedulerWatchdog(
            self.kernel, self.policy,
            period_ns=(watchdog_period_ns if watchdog_period_ns is not None
                       else usecs(200)),
            lost_task_ns=(lost_task_ns if lost_task_ns is not None
                          else usecs(5_000)),
            escalate=self.shim.containment,
            escalate_kinds=("lost_task",))
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

    def with_topology(self, topology):
        """``Topology`` instance or compact string ("small8", "smp:4")."""
        self._topology = topology
        return self

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
        if name not in _NATIVE_SCHEDULERS:
            raise SimError(f"unknown native scheduler {name!r}")
        cls = _scheduler_class(_NATIVE_SCHEDULERS, name)

        def register(kernel):
            kernel.register_sched_class(cls(policy=policy, **options),
                                        priority=priority)
        self._registrations.append(register)
        if self._policy is None:
            self._policy = policy
        return self

    def with_enoki(self, name, policy=7, priority=10, recorder=None,
                   **options):
        """Register an Enoki scheduler behind the checked shim; it becomes
        the scheduler under test (``session.policy``)."""
        if name not in _ENOKI_SCHEDULERS:
            raise SimError(f"unknown Enoki scheduler {name!r}")
        cls = _scheduler_class(_ENOKI_SCHEDULERS, name)

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

    def with_scheduler(self, sched_class, priority=10, under_test=True):
        """Register an already-built :class:`SchedClass` instance."""
        def register(kernel):
            kernel.register_sched_class(sched_class, priority=priority)
        self._registrations.append(register)
        if under_test or self._policy is None:
            self._policy = sched_class.policy
        return self

    def with_ghost(self, variant="sol", managed_cpus=None, agent_cpu=None,
                   **options):
        """Install a ghOSt comparison stack (sol / percpu_fifo / shinjuku)."""
        def register(kernel):
            from repro.schedulers.ghost import (
                GHOST_POLICY,
                install_ghost_percpu_fifo,
                install_ghost_shinjuku,
                install_ghost_sol,
            )
            nr = kernel.topology.nr_cpus
            if variant == "sol":
                managed = (list(managed_cpus) if managed_cpus is not None
                           else list(range(nr - 1)))
                agent = agent_cpu if agent_cpu is not None else nr - 1
                install_ghost_sol(kernel, managed_cpus=managed,
                                  agent_cpu=agent, **options)
            elif variant == "percpu_fifo":
                managed = (list(managed_cpus) if managed_cpus is not None
                           else list(range(nr)))
                install_ghost_percpu_fifo(kernel, managed_cpus=managed,
                                          **options)
            elif variant == "shinjuku":
                managed = (list(managed_cpus) if managed_cpus is not None
                           else [3, 4, 5, 6, 7])
                agent = agent_cpu if agent_cpu is not None else 2
                install_ghost_shinjuku(kernel, managed_cpus=managed,
                                       agent_cpu=agent, **options)
            else:
                raise SimError(f"unknown ghOSt variant {variant!r}")
            self._policy = GHOST_POLICY
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
        if spec.sched in _NATIVE_SCHEDULERS:
            # Pure native stack: the scheduler under test is the base.
            builder.with_native(spec.sched, policy=0, priority=10,
                                **spec.sched_options)
            return builder
        builder.with_native(spec.base_sched, policy=0, priority=5)
        if spec.sched.startswith("ghost_"):
            builder.with_ghost(spec.sched[len("ghost_"):],
                               **spec.sched_options)
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
