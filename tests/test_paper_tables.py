"""The paper's tables, pinned against ``BENCH_paper.json``.

Three layers keep a refactor from drifting a reproduced number unseen:

* every cheap artefact runs at full size and must reproduce its
  committed cells exactly, then satisfy its own ``claims()``; the four
  heavy ones run a reduced sweep — only the cells their claims read,
  shortened — through the same ``claims()``;
* the catalogue's spec hashes must be the committed file's, so the
  record is always of the sweep the code would run;
* every table rendered from the committed file must appear verbatim in
  EXPERIMENTS.md.

``python -m repro bench`` regenerates the record (EXPERIMENTS.md says
how); CI's ``paper-tables`` job compares all of it at full size.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.exp.bench import run_spec
from repro.exp.paper import CATALOGUE, catalogue_specs, results_by_name
from repro.simkernel.clock import msecs

ROOT = Path(__file__).resolve().parent.parent
RECORD = json.loads((ROOT / "BENCH_paper.json").read_text())
RECORDED = results_by_name(RECORD)

#: too heavy for tier 1 at full size (30-110 s each) -> the cells their
#: claims read, and the workload options that shorten those cells
REDUCED = {
    "table4": (("table4-cfs-2w", "table4-wfq-2w", "table4-arachne-2w",
                "table4-cfs-40w", "table4-ghost_percpu_fifo-40w"),
               {"warmup_ns": msecs(20), "duration_ns": msecs(250)}),
    "fig2a": (("fig2a-cfs-60k", "fig2a-shinjuku-60k", "fig2a-ghost-60k"),
              {"warmup_ns": msecs(10), "duration_ns": msecs(40)}),
    "fig2bc": (("fig2bc-cfs-40k", "fig2bc-shinjuku-40k",
                "fig2bc-ghost-40k"),
               {"warmup_ns": msecs(10), "duration_ns": msecs(40)}),
    "fig3": (("fig3-threads-250k", "fig3-native-250k", "fig3-enoki-250k"),
             {"duration_ns": msecs(30)}),
}
#: artefacts with cells, cheap enough to run whole (table2 has no cells;
#: ``test_table2_loc.py`` holds its claims)
CHEAP = [name for name, artefact in CATALOGUE.items()
         if name not in REDUCED and artefact.specs()]

_ran = {}


def run(spec):
    """A cell's metrics as the JSON record holds them; ``overhead``
    shares two of ``table3``'s cells, run once."""
    key = spec.spec_hash()
    if key not in _ran:
        _ran[key] = json.loads(json.dumps(run_spec(spec)))
    return _ran[key]


def failed_claims(artefact, results):
    return [claim for claim, holds in artefact.claims(results) if not holds]


@pytest.mark.parametrize("name", CHEAP)
def test_cheap_artefact_reproduces_its_record_and_claims(name):
    artefact = CATALOGUE[name]
    results = {spec.name: run(spec) for spec in artefact.specs()}
    for cell, metrics in results.items():
        assert metrics == RECORDED[cell], cell
    assert not failed_claims(artefact, results)


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_heavy_artefact_claims_hold_on_a_reduced_sweep(name):
    cells, shorter = REDUCED[name]
    results = {}
    for spec in CATALOGUE[name].specs():
        if spec.name in cells:
            options = dict(spec.workload_options)
            options.update((key, value) for key, value in shorter.items()
                           if key in options)
            results[spec.name] = run(replace(spec,
                                             workload_options=options))
    assert sorted(results) == sorted(cells)
    assert not failed_claims(CATALOGUE[name], results)


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_the_record_satisfies_every_claim(name):
    assert not failed_claims(CATALOGUE[name], RECORDED)


def test_the_record_is_of_the_sweep_the_catalogue_runs():
    assert ([(row["name"], row["spec_hash"]) for row in RECORD["results"]]
            == [(spec.name, spec.spec_hash()) for spec in catalogue_specs()])
    # the deterministic half only: a commit cannot hold its own hash
    assert sorted(RECORD) == ["kind", "name", "results", "specs"]


def test_the_faas_record_is_of_the_sweep_bench_faas_runs():
    """``BENCH_faas.json`` (ROADMAP's headline p99 pair) takes minutes to
    re-run; at least it cannot be the record of some other sweep."""
    from repro.exp.bench import faas_specs
    record = json.loads((ROOT / "BENCH_faas.json").read_text())
    assert ([(row["name"], row["spec_hash"]) for row in record["results"]]
            == [(spec.name, spec.spec_hash()) for spec in faas_specs()])
    assert sorted(record) == ["kind", "name", "results", "specs"]


def test_experiments_md_shows_the_recorded_tables():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for name in CHEAP + sorted(REDUCED):
        assert CATALOGUE[name].table(RECORDED) in text, name
