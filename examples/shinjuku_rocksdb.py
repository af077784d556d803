#!/usr/bin/env python3
"""Microsecond-scale scheduling demo (paper section 5.4, Figure 2).

A RocksDB-style server mixes 4 us GETs with 10 ms range queries.  Under
CFS the long queries monopolise cores for their full 750 us+ slices and
GET tail latency explodes; the Enoki Shinjuku scheduler preempts every
10 us and keeps the tail flat — while seamlessly ceding idle cycles to a
CFS batch application.

Run:  python examples/shinjuku_rocksdb.py
"""

from repro.exp import KernelBuilder
from repro.simkernel.clock import msecs
from repro.workloads.batch import start_batch_app
from repro.workloads.rocksdb import run_rocksdb

WORKER_CPUS = (3, 4, 5, 6, 7)
LOAD = 40_000


def run(system, with_batch):
    builder = KernelBuilder("small8").with_native("cfs")
    if system == "enoki-shinjuku":
        builder.with_enoki("shinjuku", policy=8,
                           worker_cpus=list(WORKER_CPUS))
    session = builder.build()
    kernel, policy = session.kernel, session.policy
    batch = None
    if with_batch:
        batch = start_batch_app(kernel, 0, cpus=WORKER_CPUS, nice=19)
    result = run_rocksdb(
        kernel, policy, LOAD, duration_ns=msecs(250), warmup_ns=msecs(50),
        worker_cpus=WORKER_CPUS, nice=-20 if with_batch else 0,
        on_drain=batch.stop if batch is not None else None,
    )
    share = batch.cpu_share() if batch is not None else None
    return result, share


def main():
    print(f"RocksDB-style server at {LOAD // 1000}k req/s "
          "(99.5% 4us GETs, 0.5% 10ms ranges):")
    for system in ("cfs", "enoki-shinjuku"):
        result, _ = run(system, with_batch=False)
        print(f"  {system:15s}: GET p50={result.p50_us:8.1f} us  "
              f"p99={result.p99_us:8.1f} us")
    print()
    print("co-located with a nice-19 batch application:")
    for system in ("cfs", "enoki-shinjuku"):
        result, share = run(system, with_batch=True)
        print(f"  {system:15s}: GET p99={result.p99_us:8.1f} us, "
              f"batch app held {share:.2f} CPUs")
    print()
    print("the 10us preemption slice keeps GETs fast; idle cycles still "
          "flow to the batch app through the CFS class below")


if __name__ == "__main__":
    main()
