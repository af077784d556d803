"""Arbiter client for the Enoki core arbiter.

The runtime side of section 4.2.4's protocol: core requests ride the
user-to-kernel hint queue, reclaim requests arrive on the kernel-to-user
reverse queue, and parking/unparking of dispatcher kernel threads happens
through the scheduler itself (a parked kthread yields and is simply never
picked until its core is granted back).
"""

from repro.arachne_rt.runtime import (ArachneRuntime, NullArbiterClient,
                                      SlotState)
from repro.simkernel.program import RecvHints, SendHint, YieldCpu


class EnokiArbiterClient(NullArbiterClient):
    """Talks to :class:`repro.schedulers.arachne.EnokiCoreArbiter`."""

    def __init__(self, shim):
        #: the EnokiSchedClass hosting the arbiter (kernel-side handle,
        #: used only for queue setup — the runtime talks through hints)
        self.shim = shim
        self.rev_queue_id = None
        self._request_pending = False
        self._registered = False

    def bind(self, runtime):
        self.runtime = runtime

    def on_started(self, runtime):
        self.rev_queue_id = self.shim.ensure_rev_queue(runtime.tgid)

    # -- dispatcher-context protocol ops ---------------------------------

    def intro_ops(self, runtime, slot):
        if not self._registered:
            self._registered = True
            yield SendHint({
                "type": "register",
                "process": runtime.name,
                "rev_queue": self.rev_queue_id,
            }, policy=self.shim.policy)
        yield SendHint({
            "type": "kthread",
            "process": runtime.name,
            "core": slot.core,
        }, policy=self.shim.policy)

    def _wanted(self, runtime):
        active = len(runtime.active_slots())
        backlog = len(runtime.runnable)
        return max(runtime.min_cores,
                   min(runtime.max_cores, active + max(1, backlog // 2)))

    def loop_ops(self, runtime, slot):
        if self._request_pending:
            self._request_pending = False
            yield SendHint({
                "type": "request",
                "process": runtime.name,
                "cores": self._wanted(runtime),
            }, policy=self.shim.policy)
        messages = yield RecvHints(policy=self.shim.policy)
        for message in messages or ():
            if "reclaim" in message:
                core = message["reclaim"]
                for other in runtime.slots:
                    if other.core == core:
                        other.reclaim_requested = True
            # "grant" messages are informational: the arbiter unparks the
            # kthread through the scheduler itself.

    # -- core scaling -------------------------------------------------------

    def request_core(self, runtime):
        self._request_pending = True

    def notify_release(self, runtime, slot):
        # The park hint itself tells the arbiter the core is coming back.
        pass

    def park_ops(self, runtime, slot):
        """Park through the scheduler: hint, then yield; the arbiter will
        not pick this kthread again until the core is granted."""
        # Lower the standing request first, or the arbiter would grant the
        # core straight back (park/grant thrash).
        active_after = max(runtime.min_cores,
                           len(runtime.active_slots()) - 1)
        yield SendHint({
            "type": "request",
            "process": runtime.name,
            "cores": active_after,
        }, policy=self.shim.policy)
        yield SendHint({"type": "park", "core": slot.core},
                       policy=self.shim.policy)
        slot.state = SlotState.PARKED
        yield YieldCpu()
        # Running again means the arbiter granted the core back; any
        # reclaim noted before the park is stale.
        slot.state = SlotState.ACTIVE
        slot.reclaim_requested = False

    def unpark(self, runtime, slot):
        # Unparking is the arbiter's job (grant path); nothing to do from
        # the host side.  Ensure a request goes out so it happens.
        self._request_pending = True


#: policy number the Enoki core arbiter is registered under
ARBITER_POLICY = 11


def start_arbitrated(kernel, cores, arbiter, min_cores, name):
    """Start a runtime whose cores come from a core arbiter: ``"enoki"``
    registers :class:`~repro.schedulers.arachne.EnokiCoreArbiter` as a
    scheduler class above everything else on the kernel; ``"native"``
    starts the original userspace arbiter daemon under the default
    class.  The runtime scales between ``min_cores`` and all of
    ``cores``."""
    if arbiter == "enoki":
        from repro.core import EnokiSchedClass
        from repro.schedulers.arachne import EnokiCoreArbiter
        shim = EnokiSchedClass.register(
            kernel,
            EnokiCoreArbiter(kernel.topology.nr_cpus, ARBITER_POLICY,
                             managed_cores=cores),
            ARBITER_POLICY, priority=20)
        policy, client = ARBITER_POLICY, EnokiArbiterClient(shim)
    else:
        from repro.arachne_rt.native_arbiter import NativeCoreArbiter
        policy = 0
        client = NativeCoreArbiter(kernel, managed_cores=cores).client()
    runtime = ArachneRuntime(kernel, cores=list(cores), policy=policy,
                             arbiter=client, name=name,
                             min_cores=min_cores, max_cores=len(cores))
    return runtime.start(initial_cores=min_cores)
