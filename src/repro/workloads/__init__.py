"""The paper's benchmark workloads, structurally ported to the substrate.

* :mod:`~repro.workloads.pipe_bench` — ``perf bench sched pipe`` (Table 3).
* :mod:`~repro.workloads.schbench` — schbench (Table 4, Table 6, §5.7).
* :mod:`~repro.workloads.rocksdb` — the RocksDB-style dispersed-load server
  (Figure 2) plus the co-located batch application.
* :mod:`~repro.workloads.memcached` — the memcached/mutilate-style workload
  (Figure 3).
* :mod:`~repro.workloads.apps` — 36 NAS/Phoronix-like application profiles
  (Table 5).
* :mod:`~repro.workloads.fairness` — the appendix A.1 functional
  equivalence suite.
* :mod:`~repro.workloads.faas` — the Azure-Functions-style serverless
  trace sampler + open-loop warm/cold container-pool executor (the
  ROADMAP's production-scale FaaS scenario).
* :mod:`~repro.workloads.multitenant` — the noisy-neighbour episode over
  hierarchical task groups: weighted tenants plus a bandwidth-capped one
  (``repro bench multitenant``).
"""
