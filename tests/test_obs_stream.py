"""Golden observed-stream digests.

The observed path (trace intake -> retention, metrics, sanitizers,
recorder) must be a pure function of the scenario.  Each digest hashes
``canonical_stream``: every retained event, every counter, every
``Violation`` and every record entry, less the wall clock (``wall_ns``
fields and ``*wall_ns*`` histograms).  A refactor of the pipeline must
leave every digest as it is.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.record import Recorder
from repro.exp import KernelBuilder, ScenarioSpec
from repro.simkernel.tracing import canonical_stream
from repro.verify import fuzz, generate_episode, run_episode
from repro.workloads.pipe_bench import run_pipe_benchmark

SEEDS = (11, 202, 3003)

#: episode-generator shapes: 0 = wfq on 4 CPUs with a live upgrade,
#: 19 = eevdf under the strike-out fault plan (panics, failover),
#: 5 = serverless inside a four-group forest with quotas (recordable)
FUZZ_SHAPES = {"upgrade": 0, "faults": 19, "groups": 5}


def stream_digest(tracer, recorder, violations=None):
    """sha256 over everything the observed path produced."""
    return hashlib.sha256(json.dumps(
        canonical_stream(tracer, recorder, violations),
        sort_keys=True).encode()).hexdigest()


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
        "7d17b976383797269eb7bb60944d8bcc14fc3221d58d83b6c1de229d6bfbd333",
    ('faults', 202):
        "6170b9bab4dedd442433443750a4fa833c58384c6e39ca58a5a74f775e6486b3",
    ('faults', 3003):
        "e8550fd9fc93ab01919f281dd191b0c59a07dc998a177b5d62dd1bfbc4bd0098",
    ('groups', 11):
        "5c6a0ed96f0788b1c788096c601f6ba2b353db4de08e271e7cd4c2c844101bca",
    ('groups', 202):
        "9fe5b39dc78b3474d7f06701eabf8c9a961a25632e2f4f0f8b09b86b2f0d1940",
    ('groups', 3003):
        "320f373b2e9cc60d18f1d28543566e25e6276f8051fbe22933adbb2c9b4a458c",
    ('pipe', 11):
        "a9bbc247f679695d5581fe84fe4498a09063af66556dda3ab49ed244b135efe5",
    ('pipe', 202):
        "fad8f769218d7b9efddbeb2318a001ff2547eec9bd2d696eecc33908ac1783e5",
    ('pipe', 3003):
        "2551e0a8e1c32af0d67ae921c9a3f10ec2d98ca9ded86b1871128c0168057fa0",
    ('skip_consume', 11):
        "5d4e878527cd34b16f6973228024ae274fb1fd971ee9dc6fdac60b000249eb4f",
    ('skip_consume', 202):
        "accaf89e2bd0cbcd00824d21be7fe60a60758e8cce6e835b0058a81069bed93c",
    ('skip_consume', 3003):
        "ce625390e9a1d3ee90f70579cf54200369629b2fafc2527b3cc9b8f5d25fb23a",
    ('upgrade', 11):
        "44f66442c85b9891d272c6aa6ce670c836850f3234240bd52a3b89449b5015e1",
    ('upgrade', 202):
        "2e9e50a62dbc61bc58468756eb01e27b15f7120d2a903423ccd69ca3e5e40232",
    ('upgrade', 3003):
        "1e512f333c1512723733cb878fc4f5ca97d307531ed0ffa24bbcb3ac9b8b42a0",
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
