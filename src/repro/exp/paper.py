"""The paper's evaluation as a catalogue of named sweeps.

One :class:`Artefact` per table or figure of the paper's section 5 and
appendix (plus the repo's own ablations): :meth:`~Artefact.specs` lists
the :class:`~repro.exp.spec.ScenarioSpec` cells, :meth:`~Artefact.table`
renders the rows EXPERIMENTS.md shows beside the paper's, and
:meth:`~Artefact.claims` states what the artefact is evaluated against —
orderings, factors, crossovers — as ``(claim, holds)`` pairs.

``repro bench`` runs the whole catalogue on the sharded, cached runner
and writes ``BENCH_paper.json``; ``repro bench <artefact>`` runs one.
Every cell runs at ``SimConfig().seed``; the committed
``BENCH_paper.json`` is the record of what they measure, and tier 1
(``tests/test_paper_tables.py``) holds the tree to it.

``table`` and ``claims`` take ``results``: spec name -> metrics, as
:func:`results_by_name` builds from a bench payload.

Not imported by ``repro.exp``: only ``repro bench`` and the tests that
pin it pay for loading the catalogue.
"""

from dataclasses import replace
from pathlib import Path

from repro.analysis.stats import geomean
from repro.analysis.tables import render_table
from repro.exp.spec import ScenarioSpec
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.config import SimConfig
from repro.workloads.apps import ALL_PROFILES

SEED = SimConfig().seed


def _spec(name, sched, workload, topology="small8", sched_options=None,
          **workload_options):
    return ScenarioSpec(name=name, topology=topology, seed=SEED,
                        sched=sched, sched_options=sched_options or {},
                        workload=workload,
                        workload_options=workload_options)


def results_by_name(payload):
    """Spec name -> metrics of a bench payload (or a committed record)."""
    return {row["name"]: row["metrics"] for row in payload["results"]}


class Artefact:
    """One table, figure or section of the evaluation."""

    name = ""       # what ``repro bench <name>`` calls it
    title = ""
    paper = ""      # the paper's own finding, printed under the table

    def specs(self):
        return []

    def table(self, results):
        raise NotImplementedError

    def claims(self, results):
        raise NotImplementedError


def _paper_vs_ours(title, corner, columns, keys, rows, results):
    """A table whose rows pair the paper's values with ours.  ``rows``:
    (label, the paper's value per column, cell-name template taking a
    column key, metric)."""
    body = []
    for label, paper, cell, metric in rows:
        body.append([f"paper, {label}"] + [str(value) for value in paper])
        body.append([f"ours, {label}"]
                    + [results[cell.format(key)][metric] for key in keys])
    return render_table(title, [corner] + list(columns), body)


def _load_sweep(title, systems, loads, cell, metric, results):
    """One row per offered load, one column per ``(label, key)`` system;
    ``cell`` is the cell-name template taking (key, load in k req/s)."""
    rows = [[f"{load // 1000}k req/s"]
            + [results[cell.format(key, load // 1000)][metric]
               for _, key in systems]
            for load in loads]
    return render_table(title, ["load"] + [label for label, _ in systems],
                        rows)


#: the seven columns of Tables 3 and 4: six kernel-task schedulers, and
#: Arachne's user threads on its own workloads
COLUMNS = ("CFS", "ghOSt SOL", "ghOSt FIFO", "WFQ", "Shinjuku", "Locality",
           "Arachne")
KEYS = ("cfs", "ghost_sol", "ghost_percpu_fifo", "wfq", "shinjuku",
        "locality", "arachne")


class Table3(Artefact):
    name = "table3"
    title = "Table 3 — perf bench sched pipe (us per message)"
    ROWS = (("one core", (3.0, 6.0, 9.1, 3.6, 4.0, 3.5, 0.1),
             "table3-{}-one", "latency_us_per_message"),
            ("two cores", (3.6, 5.8, 7.0, 4.0, 4.4, 3.9, 0.2),
             "table3-{}-two", "latency_us_per_message"))

    def specs(self):
        specs = []
        for config, one in (("one", True), ("two", False)):
            for sched in KEYS[:-1]:
                options = {}
                if sched.startswith("ghost_"):
                    options["managed_cpus"] = [0] if one else [0, 1]
                if sched == "ghost_sol":
                    options["agent_cpu"] = 7
                specs.append(_spec(
                    f"table3-{sched}-{config}", sched, "pipe",
                    sched_options=options, rounds=1500, same_core=one,
                    pin_two_cores=not one))
            specs.append(_spec(f"table3-arachne-{config}", "cfs",
                               "arachne-pipe", rounds=1500,
                               cores=1 if one else 2))
        return specs

    def table(self, results):
        return _paper_vs_ours(self.title, "config", COLUMNS, KEYS,
                              self.ROWS, results)

    def claims(self, results):
        one = {key: results[f"table3-{key}-one"]["latency_us_per_message"]
               for key in KEYS}
        return [
            ("Enoki WFQ adds under 1 us per message over CFS",
             one["wfq"] - one["cfs"] < 1.0),
            ("ghOSt SOL is slower than Enoki WFQ",
             one["ghost_sol"] > one["wfq"]),
            ("ghOSt per-CPU FIFO is slower than ghOSt SOL",
             one["ghost_percpu_fifo"] > one["ghost_sol"]),
            ("Arachne's user-level wakeup costs under 0.5 us",
             one["arachne"] < 0.5),
        ]


class Table4(Artefact):
    name = "table4"
    title = "Table 4 — schbench wakeup latency (us), 80-CPU machine"
    ROWS = (("2w p50", (74, 66, 101, 78, 79, 80, 1), "table4-{}-2w", "p50_us"),
            ("2w p99", (101, 132, 170, 104, 109, 105, 1),
             "table4-{}-2w", "p99_us"),
            ("40w p50", (139, 192, 152, 170, 168, 175, 1),
             "table4-{}-40w", "p50_us"),
            ("40w p99", (320, 1354, 1806, 323, 307, 324, 1),
             "table4-{}-40w", "p99_us"))

    def specs(self):
        specs = []
        for workers in (2, 40):
            specs.extend(
                _spec(f"table4-{sched}-{workers}w", sched, "schbench",
                      topology="big80", message_threads=2,
                      workers_per_thread=workers, warmup_ns=msecs(100),
                      duration_ns=msecs(1200),
                      think_ns=msecs(30) if workers == 40 else usecs(30))
                for sched in KEYS[:-1])
            specs.append(_spec(f"table4-arachne-{workers}w", "cfs",
                               "arachne-rounds", topology="big80",
                               workers=workers))
        return specs

    def table(self, results):
        return _paper_vs_ours(self.title, "metric", COLUMNS, KEYS,
                              self.ROWS, results)

    def claims(self, results):
        def cell(key, workers, pct):
            return results[f"table4-{key}-{workers}w"][f"{pct}_us"]
        return [
            ("Enoki WFQ's 2-worker median is within 50 % of CFS's",
             abs(cell("wfq", 2, "p50") - cell("cfs", 2, "p50"))
             < cell("cfs", 2, "p50") * 0.5),
            ("ghOSt per-CPU FIFO's 40-worker tail is no better than CFS's",
             cell("ghost_percpu_fifo", 40, "p99") >= cell("cfs", 40, "p99")),
            ("Arachne's user-level wakeups are microsecond-scale",
             cell("arachne", 2, "p50") < 10.0),
        ]


class Table5(Artefact):
    name = "table5"
    title = "Table 5 — NAS + Phoronix profiles, CFS vs Enoki WFQ"
    paper = ("36 benchmarks, max slowdown 8.57 % (Zstd-3-long; Cassandra "
             "8.22 %), several speedups, geomean of differences 0.74 %")

    def specs(self):
        return [_spec(f"table5-{profile.name}-{sched}", sched, "app",
                      profile=profile.name)
                for profile in ALL_PROFILES for sched in ("cfs", "wfq")]

    @staticmethod
    def _rows(results):
        """(profile, cfs score, wfq score, WFQ slowdown in percent)."""
        rows = []
        for profile in ALL_PROFILES:
            cfs = results[f"table5-{profile.name}-cfs"]["score"]
            wfq = results[f"table5-{profile.name}-wfq"]["score"]
            worse = cfs - wfq if profile.higher_is_better else wfq - cfs
            rows.append((profile, cfs, wfq, worse / cfs * 100.0))
        return rows

    @staticmethod
    def _summary(rows):
        """(max slowdown, its profile, geomean of differences), percent."""
        slowdown, name = max((row[3], row[0].name) for row in rows)
        ratios = [max(cfs, wfq) / min(cfs, wfq) for _, cfs, wfq, _ in rows]
        return slowdown, name, (geomean(ratios) - 1) * 100

    def table(self, results):
        rows = self._rows(results)
        slowdown, name, difference = self._summary(rows)
        return "\n".join([
            render_table(
                self.title, ["benchmark", "unit", "CFS", "WFQ", "slowdown"],
                [[profile.name, profile.unit, cfs, wfq, f"{pct:+.2f} %"]
                 for profile, cfs, wfq, pct in rows]),
            f"max slowdown = {slowdown:.2f} % ({name})   "
            f"geomean of differences = {difference:.2f} %"])

    def claims(self, results):
        slowdown, _, difference = self._summary(self._rows(results))
        return [
            ("no profile slows down by 10 % or more under Enoki WFQ",
             slowdown < 10.0),
            ("geomean of the CFS/WFQ differences is under 2 %",
             difference < 2.0),
        ]


#: Figure 2's three systems as (column, cell key), and the scheduler
#: stack behind each key as (sched, sched_options)
FIG2_SYSTEMS = (("CFS", "cfs"), ("Enoki-Shinjuku", "shinjuku"),
                ("ghOSt-Shinjuku", "ghost"))
FIG2_STACKS = {"cfs": ("cfs", {}),
               "shinjuku": ("shinjuku", {"worker_cpus": [3, 4, 5, 6, 7]}),
               "ghost": ("ghost_shinjuku", {})}
FIG2_LOADS = (20_000, 40_000, 60_000, 80_000)


def _fig2_specs(prefix, **extra):
    return [_spec(f"{prefix}-{key}-{load // 1000}k", sched, "rocksdb",
                  sched_options=options, offered_rps=load,
                  duration_ns=msecs(250), warmup_ns=msecs(50),
                  worker_cpus=[3, 4, 5, 6, 7], **extra)
            for key, (sched, options) in FIG2_STACKS.items()
            for load in FIG2_LOADS]


class Fig2a(Artefact):
    name = "fig2a"
    title = "Figure 2a — RocksDB alone: 99% GET latency (us) vs load"
    paper = ("log scale; CFS in the 1e3-1e4 us band, both Shinjuku "
             "schedulers low, Enoki ~30% below ghOSt at high load")

    def specs(self):
        return _fig2_specs("fig2a")

    def table(self, results):
        return _load_sweep(self.title, FIG2_SYSTEMS, FIG2_LOADS,
                           "fig2a-{}-{}k", "p99_us", results)

    def claims(self, results):
        p99 = {key: results[f"fig2a-{key}-60k"]["p99_us"]
               for key in FIG2_STACKS}
        return [
            ("at 60k req/s CFS's tail is over 10x Enoki-Shinjuku's",
             p99["cfs"] > 10 * p99["shinjuku"]),
            ("at 60k req/s Enoki-Shinjuku at least matches ghOSt-Shinjuku",
             p99["shinjuku"] <= p99["ghost"]),
        ]


class Fig2bc(Artefact):
    name = "fig2bc"
    title = "Figure 2b — RocksDB + batch app: 99% GET latency (us)"
    title_share = "Figure 2c — batch application CPU share (CPUs)"
    paper = ("2b: Shinjuku schedulers keep latency low despite the batch "
             "app, CFS worsens; 2c: CFS and Enoki give the batch app a "
             "similar share (falling with load), ghOSt substantially less")

    def specs(self):
        return _fig2_specs("fig2bc", batch=True)

    def table(self, results):
        return "\n\n".join(
            _load_sweep(title, FIG2_SYSTEMS, FIG2_LOADS, "fig2bc-{}-{}k",
                        metric, results)
            for title, metric in ((self.title, "p99_us"),
                                  (self.title_share, "batch_cpus")))

    def claims(self, results):
        at40 = {key: results[f"fig2bc-{key}-40k"] for key in FIG2_STACKS}
        return [
            ("at 40k req/s Enoki-Shinjuku's tail beats CFS's with the "
             "batch app present",
             at40["shinjuku"]["p99_us"] < at40["cfs"]["p99_us"]),
            ("Enoki-Shinjuku cedes the batch app over half of CFS's share",
             at40["shinjuku"]["batch_cpus"]
             > 0.5 * at40["cfs"]["batch_cpus"]),
            ("ghOSt-Shinjuku cedes the batch app less than 1.2x Enoki's",
             at40["ghost"]["batch_cpus"]
             < at40["shinjuku"]["batch_cpus"] * 1.2),
        ]


class Table6(Artefact):
    name = "table6"
    title = "Table 6 — modified schbench wakeup latency (us)"
    #: column -> (sched, sched_options, schbench options)
    MODES = {
        "CFS": ("cfs", {}, {}),
        "CFS one core": ("cfs", {}, {"affinity": [0]}),
        "Random": ("locality", {"mode": "random"}, {}),
        "Hints": ("locality", {"mode": "hints"}, {"hint_locality": True}),
    }
    ROWS = (("p50", (33, 17, 46, 2), "table6-{}", "p50_us"),
            ("p99", (50, 32032, 49, 4), "table6-{}", "p99_us"))

    def specs(self):
        return [_spec(f"table6-{mode}", sched, "schbench",
                      sched_options=sched_options, message_threads=2,
                      workers_per_thread=2, warmup_ns=msecs(100),
                      duration_ns=msecs(800), **options)
                for mode, (sched, sched_options, options)
                in self.MODES.items()]

    def table(self, results):
        return _paper_vs_ours(self.title, "metric", self.MODES, self.MODES,
                              self.ROWS, results)

    def claims(self, results):
        p50 = {mode: results[f"table6-{mode}"]["p50_us"]
               for mode in self.MODES}
        pinned = results["table6-CFS one core"]
        return [
            ("hints cut the median over 3x against CFS",
             p50["Hints"] < p50["CFS"] / 3),
            ("hints cut the median over 3x against random placement",
             p50["Hints"] < p50["Random"] / 3),
            ("pinning to one core lowers the median",
             p50["CFS one core"] < p50["CFS"]),
            ("pinning to one core hurts the tail",
             pinned["p99_us"] > pinned["p50_us"] * 2),
        ]


class Fig3(Artefact):
    name = "fig3"
    title = "Figure 3 — memcached 99% latency (us) vs load"
    paper = ("Enoki-Arachne ~ Arachne, both better than CFS at high load; "
             "Arachne versions scale 2-7 cores")
    SYSTEMS = (("CFS", "threads"), ("Arachne", "native"),
               ("Enoki-Arachne", "enoki"))
    LOADS = (100_000, 150_000, 200_000, 250_000, 300_000)

    def specs(self):
        specs = []
        for _, backend in self.SYSTEMS:
            # core 0 stays with background work; the runtimes scale 2-7
            cores = {} if backend == "threads" else {
                "cores": list(range(1, 8))}
            specs.extend(
                _spec(f"fig3-{backend}-{load // 1000}k", "cfs", "memcached",
                      backend=backend, offered_rps=load,
                      duration_ns=msecs(200), **cores)
                for load in self.LOADS)
        return specs

    def table(self, results):
        return _load_sweep(self.title, self.SYSTEMS, self.LOADS,
                           "fig3-{}-{}k", "p99_us", results)

    def claims(self, results):
        p99 = {backend: results[f"fig3-{backend}-250k"]["p99_us"]
               for _, backend in self.SYSTEMS}
        return [
            ("at 250k req/s Enoki-Arachne beats baseline memcached",
             p99["enoki"] < p99["threads"]),
            ("at 250k req/s Arachne beats baseline memcached",
             p99["native"] < p99["threads"]),
            ("the two arbiters are within 5x of each other",
             0.2 < p99["enoki"] / max(1e-9, p99["native"]) < 5.0),
        ]


class Upgrade(Artefact):
    name = "upgrade"
    title = "Section 5.7 — live upgrade pause under schbench (us)"
    CASES = (("1-socket, 2 workers", "small8", 2, 1.5),
             ("2-socket, 2 workers", "big80", 2, 9.9),
             ("2-socket, 40 workers", "big80", 40, 10.1))

    def specs(self):
        # three upgrades per run: the paper's "averaged over three runs"
        return [_spec(f"upgrade-{label}", "wfq", "schbench",
                      topology=topology, message_threads=2,
                      workers_per_thread=workers, warmup_ns=msecs(10),
                      duration_ns=msecs(200),
                      upgrades_at_ns=[msecs(40), msecs(100), msecs(160)])
                for label, topology, workers, _ in self.CASES]

    @staticmethod
    def _pause(results, label):
        pauses = results[f"upgrade-{label}"]["upgrade_pauses_us"]
        return sum(pauses) / len(pauses)

    def table(self, results):
        return render_table(
            self.title, ["configuration", "paper", "ours"],
            [[label, str(paper), self._pause(results, label)]
             for label, _, _, paper in self.CASES])

    def claims(self, results):
        small, big, big40 = (self._pause(results, case[0])
                             for case in self.CASES)
        return [
            ("the 8-core pause is under 3 us", small < 3.0),
            ("the 80-CPU pause is between 5 and 20 us", 5.0 < big < 20.0),
            ("worker count moves the pause by under 2 us",
             abs(big40 - big) < 2.0),
        ]


class RecordReplay(Artefact):
    name = "record-replay"
    title = "Section 5.8 — record and replay on sched-pipe + WFQ"
    paper = ("4 s normal, ~30 s recorded (7.5x), replay ~3 min dominated "
             "by lock-order blocking")

    def specs(self):
        # One core: the recording surcharge serialises fully into the
        # round trip instead of overlapping the partner core's work.
        pipe = dict(rounds=800, warmup_rounds=0, same_core=True)
        return [_spec("record-replay-normal", "wfq", "pipe", **pipe),
                replace(_spec("record-replay-recorded", "wfq",
                              "record-replay", **pipe), record=True)]

    @staticmethod
    def _slowdown(results):
        return (results["record-replay-recorded"]["simulated_ns"]
                / results["record-replay-normal"]["simulated_ns"])

    def table(self, results):
        normal = results["record-replay-normal"]
        recorded = results["record-replay-recorded"]
        rows = [
            ["normal run (virtual ms)", normal["simulated_ns"] / 1e6],
            ["recorded run (virtual ms)", recorded["simulated_ns"] / 1e6],
            ["record slowdown", self._slowdown(results)],
            ["trace entries", recorded["entries"]],
        ]
        for mode in ("sequential", "threaded"):
            rows.append([f"{mode} replay: calls / divergences",
                         "{calls_replayed} / {divergences}".format(
                             **recorded[mode])])
        return render_table(self.title, ["quantity", "value"], rows)

    def claims(self, results):
        recorded = results["record-replay-recorded"]
        return [
            ("recording costs over 2x normal execution (virtual time)",
             self._slowdown(results) > 2.0),
            ("sequential replay reproduces every response",
             recorded["sequential"]["divergences"] == 0),
            ("threaded (lock-order-enforcing) replay reproduces every "
             "response", recorded["threaded"]["divergences"] == 0),
        ]


class Fairness(Artefact):
    name = "fairness"
    title = "Appendix A.1 — functional equivalence (seconds)"
    paper = ("4.6 s vs 22.2 s (5x); nice19 finishes 4.4 s after the "
             "others; move stddev CFS 0.001 s vs WFQ 0.018 s")
    RUNS = {"spread": {}, "one-core": {"one_core": True},
            "weighted": {"mode": "weighted"},
            "placed": {"mode": "placement"},
            "moved": {"mode": "placement", "move_one": True}}

    def specs(self):
        return [_spec(f"fairness-{sched}-{run}", sched, "fairness",
                      work_ns=msecs(400), **options)
                for sched in ("cfs", "wfq")
                for run, options in self.RUNS.items()]

    @staticmethod
    def _row(results, sched):
        run = {name: results[f"fairness-{sched}-{name}"]
               for name in Fairness.RUNS}
        spread = run["spread"]["max_finish_ns"] / 1e9
        one_core = run["one-core"]["max_finish_ns"] / 1e9
        finish = run["weighted"]["finish_ns"]
        low = finish["weighted-4"] / 1e9
        others = max(t for name, t in finish.items()
                     if name != "weighted-4") / 1e9
        return [sched.upper(), spread, one_core, one_core / spread, others,
                low, run["placed"]["runtime_stddev_ns"] / 1e9,
                run["moved"]["runtime_stddev_ns"] / 1e9]

    def table(self, results):
        return render_table(
            self.title,
            ["sched", "5 tasks spread", "5 tasks 1 core", "ratio",
             "4x nice0 done", "nice19 done", "stddev placed",
             "stddev moved"],
            [self._row(results, sched) for sched in ("cfs", "wfq")])

    def claims(self, results):
        cfs, wfq = (self._row(results, sched) for sched in ("cfs", "wfq"))
        claims = []
        for row in (cfs, wfq):
            claims.append((f"{row[0]}: co-locating five hogs costs ~5x",
                           4.3 < row[3] < 5.7))
            claims.append((f"{row[0]}: the nice-19 task trails the others",
                           row[5] > row[4]))
        claims.append(("a forced move perturbs WFQ's runtimes at least as "
                       "much as CFS's", wfq[7] >= cfs[7]))
        return claims


class Overhead(Artefact):
    name = "overhead"
    title = "Ablation — per-invocation dispatch overhead on sched-pipe"
    paper = ("100-150 ns per invocation, to which the paper attributes "
             "its whole Table 3 delta")

    def specs(self):
        # Table 3's one-core CFS and WFQ cells, plus WFQ with the
        # framework's per-call dispatch cost (125 ns) zeroed.
        cells = {spec.name: spec for spec in Table3().specs()}
        wfq = cells["table3-wfq-one"]
        return [cells["table3-cfs-one"], wfq,
                replace(wfq, name="overhead-wfq-zero-dispatch",
                        config={"enoki_call_ns": 0})]

    @staticmethod
    def _latencies(results):
        return [results[name]["latency_us_per_message"]
                for name in ("table3-cfs-one", "table3-wfq-one",
                             "overhead-wfq-zero-dispatch")]

    def table(self, results):
        cfs, wfq, zeroed = self._latencies(results)
        return render_table(
            self.title, ["configuration", "us per message"],
            [["CFS", cfs], ["Enoki WFQ (125 ns dispatch)", wfq],
             ["Enoki WFQ (0 ns dispatch)", zeroed],
             ["gap with overhead (us)", wfq - cfs],
             ["gap without overhead (us)", zeroed - cfs]])

    def claims(self, results):
        cfs, wfq, zeroed = self._latencies(results)
        return [("the dispatch constant explains over half the "
                 "Enoki-vs-CFS gap", zeroed - cfs < (wfq - cfs) * 0.5)]


class UpgradeScaling(Artefact):
    name = "upgrade-scaling"
    title = "Ablation — upgrade pause vs machine size"
    paper = "anchors: 1.5 us at 8 cores, ~10 us at 80"
    SIZES = (2, 8, 20, 40, 80)

    def specs(self):
        return [_spec(f"upgrade-scaling-{n}", "wfq", "upgrade-now",
                      topology=f"smp:{n}") for n in self.SIZES]

    @staticmethod
    def _pause(results, n):
        return results[f"upgrade-scaling-{n}"]["upgrade_pauses_us"][0]

    def table(self, results):
        return render_table(self.title, ["machine", "pause (us)"],
                            [[f"{n} CPUs", self._pause(results, n)]
                             for n in self.SIZES])

    def claims(self, results):
        return [("the pause grows with core count: 2 < 8 < 80 CPUs",
                 self._pause(results, 80) > self._pause(results, 8)
                 > self._pause(results, 2))]


class Nest(Artefact):
    name = "nest"
    title = "Ablation — Nest-style warm-core reuse vs spreading placement"
    paper = ("section 2 motivation (Nest, EuroSys '22): reusing warm "
             "cores avoids cold-start penalties")
    SCHEDULERS = (("EnokiNest (warm-core)", "nest"),
                  ("EnokiWfq (spreading)", "wfq"))

    def specs(self):
        return [_spec(f"nest-{sched}", sched, "bursty")
                for _, sched in self.SCHEDULERS]

    def table(self, results):
        rows = []
        for label, sched in self.SCHEDULERS:
            run = results[f"nest-{sched}"]
            rows.append([label, run["p50_us"], run["cores_touched"],
                         f"{run['deep_wakeups']}/{run['wakeups']}"])
        return render_table(
            self.title, ["scheduler", "wakeup p50 (us)", "cores touched",
                         "deep-idle wakeups"], rows)

    def claims(self, results):
        nest, wfq = results["nest-nest"], results["nest-wfq"]
        return [
            ("the nest touches no more cores than spreading placement",
             nest["cores_touched"] <= wfq["cores_touched"]),
            ("the nest pays no more deep-idle wakeups",
             nest["deep_wakeups"] <= wfq["deep_wakeups"]),
        ]


class Hackbench(Artefact):
    name = "hackbench"
    title = "hackbench (2 groups x 4 fds x 25 loops, 800 messages)"
    paper = ("not a paper table: the artifact appendix names hackbench as "
             "the origin of the perf pipe test")
    SCHEDULERS = (("CFS", "cfs"), ("Enoki WFQ", "wfq"),
                  ("Enoki Shinjuku", "shinjuku"))

    def specs(self):
        return [_spec(f"hackbench-{sched}", sched, "hackbench", groups=2,
                      fds=4, loops=25) for _, sched in self.SCHEDULERS]

    def table(self, results):
        rows = []
        for label, sched in self.SCHEDULERS:
            run = results[f"hackbench-{sched}"]
            rows.append([label, run["elapsed_ns"] / 1e6,
                         run["total_messages"] / run["elapsed_ns"] * 1e6])
        return render_table(self.title,
                            ["scheduler", "elapsed (ms)", "k msgs/s"], rows)

    def claims(self, results):
        return [("Enoki WFQ drains the storm within 2x of CFS's time",
                 results["hackbench-wfq"]["elapsed_ns"]
                 < results["hackbench-cfs"]["elapsed_ns"] * 2.0)]


class Table2(Artefact):
    """Lines of code by component.  Not a simulation: no cells, the
    table counts the tree it is run from."""

    name = "table2"
    title = "Table 2 analogue — lines of code by component"
    paper = ("Enoki-C 2411 C, sched libEnoki 962 Rust; schedulers: WFQ 646, "
             "Shinjuku 285, locality 203, arbiter 579 — each far below "
             "CFS's 6247")

    ROOT = Path(__file__).resolve().parent.parent
    ENOKI_C = "Enoki-C equivalent (core/enoki_c.py)"
    LIBENOKI = "Scheduler libEnoki (core: trait, messages, tokens, locks)"
    SHARED = "Shared policy module (token queue + base class)"
    COMPONENTS = {
        ENOKI_C: ["core/enoki_c.py"],
        LIBENOKI: [
            "core/trait.py", "core/messages.py", "core/schedulable.py",
            "core/libenoki.py", "core/rwlock.py", "core/hints.py",
            "core/upgrade.py",
        ],
        "Record + replay": ["core/record.py", "core/replay.py"],
        "Kernel substrate (simkernel)": ["simkernel"],
        "CFS baseline": ["schedulers/cfs.py"],
        SHARED: ["schedulers/base.py"],
        "Enoki FIFO": ["schedulers/fifo.py"],
        "Enoki WFQ": ["schedulers/wfq.py"],
        "Enoki EEVDF (extends WFQ)": ["schedulers/eevdf.py"],
        "Enoki Nest (extends WFQ)": ["schedulers/nest.py"],
        "Enoki Shinjuku": ["schedulers/shinjuku.py"],
        "Enoki locality (extends FIFO)": ["schedulers/locality.py"],
        "Enoki serverless": ["schedulers/serverless.py"],
        "Enoki core arbiter": ["schedulers/arachne.py"],
        "ghOSt model": ["schedulers/ghost.py"],
        "Arachne runtime": ["arachne_rt"],
        "Workloads": ["workloads"],
    }
    #: the paper's four schedulers -> every policy file that makes one up
    PAPER_SCHEDULERS = {
        "Enoki WFQ": ("Enoki WFQ",),
        "Enoki Shinjuku": ("Enoki Shinjuku",),
        "Enoki locality": ("Enoki locality (extends FIFO)", "Enoki FIFO"),
        "Enoki core arbiter": ("Enoki core arbiter",),
    }

    @classmethod
    def count_loc(cls, path):
        """Non-blank, non-comment lines of one file or package."""
        full = cls.ROOT / path
        files = [full] if full.is_file() else sorted(full.rglob("*.py"))
        return sum(1 for file in files
                   for line in file.read_text().splitlines()
                   if line.strip() and not line.strip().startswith("#"))

    @classmethod
    def inventory(cls):
        return {name: sum(cls.count_loc(p) for p in paths)
                for name, paths in cls.COMPONENTS.items()}

    def table(self, results):
        return render_table(self.title, ["component", "LoC"],
                            [[name, loc]
                             for name, loc in self.inventory().items()])

    def claims(self, results):
        """Every Enoki scheduler of the paper — counted with the whole
        shared module it stands on — is smaller than the CFS it competes
        with, and the framework dwarfs any single policy."""
        counts = self.inventory()
        cfs = counts["CFS baseline"]
        claims = [
            (f"{sched} with the shared policy module is smaller than CFS",
             counts[self.SHARED] + sum(counts[p] for p in parts) < cfs)
            for sched, parts in self.PAPER_SCHEDULERS.items()]
        framework = counts[self.ENOKI_C] + counts[self.LIBENOKI]
        claims.append(("Enoki Shinjuku is smaller than Enoki WFQ",
                       counts["Enoki Shinjuku"] < counts["Enoki WFQ"]))
        claims.append((
            "the framework is over four times any single policy",
            all(counts[name] * 4 < framework
                for name in counts if name.startswith("Enoki "))))
        return claims


CATALOGUE = {artefact.name: artefact for artefact in (
    Table2(), Table3(), Table4(), Table5(), Fig2a(), Fig2bc(), Table6(),
    Fig3(), Upgrade(), RecordReplay(), Fairness(), Overhead(),
    UpgradeScaling(), Nest(), Hackbench())}


def catalogue_specs(names=None):
    """The cells of the named artefacts (default: the whole catalogue),
    a cell two artefacts share listed once."""
    cells = {}
    for name in (names if names is not None else CATALOGUE):
        for spec in CATALOGUE[name].specs():
            cells.setdefault(spec.name, spec)
    return list(cells.values())


def report(artefact, results):
    """An artefact's table, the paper's finding and a verdict per claim;
    returns ``(text, every claim holds)``."""
    lines = [artefact.table(results)]
    if artefact.paper:
        lines.append(f"[paper] {artefact.paper}")
    claims = artefact.claims(results)
    lines.extend(f"  {'ok  ' if holds else 'FAIL'}  {claim}"
                 for claim, holds in claims)
    return "\n".join(lines), all(holds for _, holds in claims)
