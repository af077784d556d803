"""Golden observed-stream digests.

The observed path (trace intake -> retention, metrics, sanitizers,
recorder) must be a pure function of the scenario: every retained event,
every counter, every ``Violation`` and every record entry.  The digests
below were recorded on the commit *before* the three stacked ``_hook``
overrides were merged into one intake and must never change because of a
refactor of that pipeline.  Only wall-clock material is left out (the
``wall_ns`` field of ``enoki_msg`` events and the ``*wall_ns*``
histograms).
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.record import Recorder
from repro.exp import KernelBuilder, ScenarioSpec
from repro.verify import fuzz, generate_episode, run_episode
from repro.workloads.pipe_bench import run_pipe_benchmark

SEEDS = (11, 202, 3003)

#: episode-generator shapes: 0 = wfq on 4 CPUs with a live upgrade,
#: 19 = eevdf under the strike-out fault plan (panics, failover),
#: 5 = serverless inside a four-group forest with quotas (recordable)
FUZZ_SHAPES = {"upgrade": 0, "faults": 19, "groups": 5}


def _plain(value):
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def stream_digest(tracer, recorder, violations=None):
    """sha256 over everything the observed path produced."""
    snapshot = tracer.collect().snapshot()
    snapshot["histograms"] = {
        name: hist for name, hist in snapshot["histograms"].items()
        if "wall_ns" not in name}
    payload = {
        "events": [
            [e.t_ns, e.kind, e.cpu, e.pid, e.cost_ns,
             [[k, v] for k, v in e.args if k != "wall_ns"]]
            for e in tracer.events],
        "events_seen": getattr(tracer, "events_seen", None),
        "filtered": tracer.filtered,
        "dropped": tracer.dropped,
        "registry": snapshot,
        "violations": [v.to_dict() for v in (
            violations if violations is not None
            else getattr(tracer, "violations", []))],
        "record": recorder.entries if recorder is not None else None,
    }
    return hashlib.sha256(
        json.dumps(_plain(payload), sort_keys=True).encode()).hexdigest()


def observed_pipe(seed, rounds=40):
    recorder = Recorder(capacity=1 << 20)
    session = KernelBuilder.session_from_spec(
        ScenarioSpec(name="golden-pipe", sched="wfq", seed=seed),
        recorder=recorder)
    observer = session.attach_observer()
    session.attach_telemetry(1_000_000)
    run_pipe_benchmark(session.kernel, session.policy, rounds=rounds)
    session.stop()
    recorder.stop()
    return stream_digest(observer, recorder)


def fuzz_episode(monkeypatch, shape, seed, bug=""):
    """One fuzz episode -> (stream digest, EpisodeResult)."""
    made = []

    class CapturingRecorder(Recorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(fuzz, "Recorder", CapturingRecorder)
    spec = replace(generate_episode(shape), seed=seed, bug=bug)
    result = run_episode(spec, capture=True)
    recorder = made[0] if made else None
    return stream_digest(result.suite, recorder, result.violations), result


GOLDEN = {
    ('faults', 11):
        "6f568c28d2ec4b0e0ff290363b14c12b7a145fb205ac782708ef29db08e4fdb4",
    ('faults', 202):
        "05d342e1eba37a94a4911135006f8f721e99cf0e8c5820791b5b7d3237d789c6",
    ('faults', 3003):
        "48e592f74d4f4695bde8293ab0f30bf73dcf8ecb72d27a349a274e085b794b94",
    ('groups', 11):
        "2cf478f880c5a3512ef4e37f40eff68670fe43de1eea5f7fd4082c7a0c15044f",
    ('groups', 202):
        "19879d7345c0e8a65c101735307a53d1989e1afb42adf4e66789ca02b37896c8",
    ('groups', 3003):
        "6b09f4aeced88eab261b6cfb863c12b07e5eda4ce4b6dd3ce19b9bef7fc5d753",
    ('pipe', 11):
        "81439c27ca1c9a1e927620e4471fba75c2f7b764ad3ef904dc7a537429a47380",
    ('pipe', 202):
        "7336f20904bce923de425a08f9d1b014c219b6b62ebf66dc3a89d981dca55240",
    ('pipe', 3003):
        "6a25de0b7046a9d6bb90d9e1982a4d9d9ae4f60f6b09b77ba8a6560cb441ad17",
    ('skip_consume', 11):
        "34b66ae9c43b0673760c2acea0398cb85717541fd2b81edecb134295891cfe2d",
    ('skip_consume', 202):
        "3acac8070af8bb384510a8eb22b2e08ffafd4228a5386477a6a789f1c52a5b86",
    ('skip_consume', 3003):
        "ed205290180ecaee5e9fe1d174484655c8418736efe083393535091d6520f5a4",
    ('upgrade', 11):
        "4f1a5efaa27a8968c62f033d4198553adccf1b706ad83aabf1048fb1ef69c9d7",
    ('upgrade', 202):
        "000d2bb57dd59a92acf849c56e63ad9933bbb9dd670abf883d24a43d1b0e8256",
    ('upgrade', 3003):
        "124132d4b13e5afe3cbed17455455985e6e7cad4d46c4a79a6899f6737e51858",
}


@pytest.mark.parametrize("seed", SEEDS)
def test_observed_pipe_stream_is_golden(seed):
    assert observed_pipe(seed) == GOLDEN["pipe", seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("leg", sorted(FUZZ_SHAPES))
def test_fuzz_episode_stream_is_golden(monkeypatch, leg, seed):
    digest, result = fuzz_episode(monkeypatch, FUZZ_SHAPES[leg], seed)
    assert result.ok, result.violations
    assert digest == GOLDEN[leg, seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_skip_consume_violations_are_golden(monkeypatch, seed):
    """``skip_consume`` is the only ``bug=`` the fuzzer supports."""
    digest, result = fuzz_episode(monkeypatch, 9, seed, bug="skip_consume")
    assert result.violations
    assert {v.sanitizer for v in result.violations} == {"token"}
    assert digest == GOLDEN["skip_consume", seed]
