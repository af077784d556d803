#!/usr/bin/env python3
"""Two-level scheduling demo (paper section 4.2.4).

An Arachne runtime multiplexes user threads over cores granted by the
Enoki core arbiter.  Watch the runtime scale up under a burst (the
arbiter grants cores through the scheduler itself) and scale back down
when the burst passes (dispatchers park and return their cores).

Run:  python examples/two_level_arachne.py
"""

from repro.arachne_rt import ArachneRuntime, URun
from repro.arachne_rt.clients import EnokiArbiterClient
from repro.exp import KernelBuilder
from repro.simkernel.clock import msecs


def main():
    session = (KernelBuilder("small8").with_native("cfs")
               .with_enoki("arachne", policy=11, priority=20,
                           managed_cores=range(1, 8)).build())
    kernel, shim = session.kernel, session.shim
    runtime = ArachneRuntime(
        kernel, cores=list(range(1, 8)), policy=11,
        arbiter=EnokiArbiterClient(shim), name="app",
        min_cores=1, max_cores=7,
    ).start(initial_cores=1)
    kernel.run_for(msecs(2))

    timeline = []

    def snapshot(label):
        timeline.append((kernel.now, label, len(runtime.active_slots())))

    snapshot("idle")
    done = []
    for i in range(24):
        runtime.submit(_work, on_done=lambda t: done.append(1))
    kernel.run_for(msecs(3))
    snapshot("burst running")
    kernel.run_for(msecs(12))
    snapshot("burst finished")
    kernel.run_for(msecs(20))
    snapshot("scaled back down")

    print("Enoki core arbiter + Arachne runtime:")
    for now, label, active in timeline:
        print(f"  t={now / 1e6:6.1f} ms  {label:18s} "
              f"active dispatchers: {active}")
    print(f"completed user threads: {len(done)}/24")
    print(f"arbiter granted cores through the scheduler "
          f"{runtime.stats_parks} park/unpark cycles occurred")


def _work():
    yield URun(msecs(2))


if __name__ == "__main__":
    main()
