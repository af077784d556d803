"""Failing-seed shrinker: minimise an episode while keeping its failure.

A fuzzer seed that fails usually fails for a tiny reason buried in a big
episode — eight tasks, dozens of bursts, an upgrade, a fault plan.  The
shrinker walks a fixed candidate ladder (drop tasks, halve work, strip
hints/yields/sleeps, drop the upgrade, prune the fault plan, shrink the
machine), re-running the episode after each proposed cut and keeping the
cut only when the *same sanitizers* still fire and the episode got no
bigger (by trace event count).  Deterministic replay makes this safe:
the same spec always fails the same way, so greedy minimisation cannot
flake.

The result is written as a JSON artifact carrying the shrunk spec, the
original spec, the violations, the tail of the trace, the record log
when the episode is recordable, and the one-line ``repro fuzz --repro``
command that re-runs it.
"""

import json
from dataclasses import dataclass, replace

from repro.simkernel.errors import SimError
from repro.verify.fuzz import EpisodeSpec, run_episode

#: cap on full re-runs during minimisation; the ladder converges long
#: before this on every episode the generator can produce
_MAX_ATTEMPTS = 200


class ArtifactError(ValueError):
    """A reproducer artifact that cannot be loaded; the message names the
    path and what is wrong with it."""


@dataclass
class ShrinkResult:
    original: EpisodeSpec
    shrunk: EpisodeSpec
    original_events: int
    shrunk_events: int
    violations: list          # of Violation, from the shrunk episode
    attempts: int = 0

    @property
    def reduction(self):
        """Shrunk trace size as a fraction of the original's."""
        if self.original_events == 0:
            return 1.0
        return self.shrunk_events / self.original_events


def _sanitizer_kinds(result):
    return frozenset(v.sanitizer for v in result.violations)


def _still_fails(spec, wanted_kinds):
    """Re-run ``spec``; returns the result when at least one of the
    original sanitizer kinds still fires, else None."""
    result = run_episode(spec)
    if _sanitizer_kinds(result) & wanted_kinds:
        return result
    return None


def _candidates(spec):
    """Propose progressively smaller variants of ``spec``, biggest cuts
    first (dropping half the tasks beats halving one burst)."""
    tasks = spec.tasks
    if len(tasks) > 1:
        half = len(tasks) // 2
        yield replace(spec, tasks=tasks[:half])
        yield replace(spec, tasks=tasks[half:])
        for i in range(len(tasks)):
            yield replace(spec, tasks=tasks[:i] + tasks[i + 1:])
    if spec.upgrade_at_ns:
        yield replace(spec, upgrade_at_ns=0)
    if spec.plan is not None:
        yield replace(spec, plan=None)
        specs = spec.plan.get("specs", [])
        if len(specs) > 1:
            for i in range(len(specs)):
                pruned = dict(spec.plan)
                pruned["specs"] = specs[:i] + specs[i + 1:]
                yield replace(spec, plan=pruned)
    for i, task in enumerate(tasks):
        def with_task(new_task, i=i):
            return replace(spec,
                           tasks=tasks[:i] + (new_task,) + tasks[i + 1:])
        if task.phases > 1:
            yield with_task(replace(task, phases=task.phases // 2))
            yield with_task(replace(task, phases=1))
        if task.run_ns > 40_000:
            yield with_task(replace(task, run_ns=task.run_ns // 2))
        if task.sleep_ns:
            yield with_task(replace(task, sleep_ns=0))
        if task.hints:
            yield with_task(replace(task, hints=False))
        if task.yield_every:
            yield with_task(replace(task, yield_every=0))
    if spec.nr_cpus > 1:
        yield replace(spec, nr_cpus=spec.nr_cpus // 2)


def shrink_episode(spec, result=None):
    """Greedily minimise a failing ``spec``; returns a
    :class:`ShrinkResult`.

    ``result`` is the episode's known-failing :class:`EpisodeResult`
    (re-run when omitted).  Raises ``ValueError`` when the spec does not
    actually fail — a shrinker that "minimises" a passing episode would
    only produce a misleading artifact.
    """
    if result is None:
        result = run_episode(spec)
    wanted = _sanitizer_kinds(result)
    if not wanted:
        raise ValueError(
            f"episode seed {spec.seed} does not fail; nothing to shrink")

    current_spec, current = spec, result
    attempts = 0
    progress = True
    while progress and attempts < _MAX_ATTEMPTS:
        progress = False
        for candidate in _candidates(current_spec):
            attempts += 1
            if attempts >= _MAX_ATTEMPTS:
                break
            smaller = _still_fails(candidate, wanted)
            if smaller is not None and (smaller.events_seen
                                        <= current.events_seen):
                current_spec, current = candidate, smaller
                progress = True
                break               # restart the ladder from the top
    return ShrinkResult(
        original=spec,
        shrunk=current_spec,
        original_events=result.events_seen,
        shrunk_events=current.events_seen,
        violations=list(current.violations),
        attempts=attempts,
    )


# ----------------------------------------------------------------------
# reproducer artifacts
# ----------------------------------------------------------------------

def write_artifact(path, shrink_result):
    """Write a self-contained JSON reproducer for a shrunk failure.

    The artifact re-runs with ``repro fuzz --repro <path>`` and carries
    enough context (violations, trace tail, record log when available)
    to debug without re-running at all.  Trace tail and record log both
    come from one captured run of the shrunk episode: the log is the
    failing run's own.
    """
    shrunk = shrink_result.shrunk
    failing = run_episode(shrunk, capture=True)
    trace_tail = [event.to_dict()
                  for event in list(failing.suite.events)[-200:]]
    record_log = (failing.recorder.entries[:2000]
                  if failing.recorder is not None else [])
    payload = {
        "kind": "repro.verify reproducer",
        "spec": shrunk.to_dict(),
        "original_spec": shrink_result.original.to_dict(),
        "original_events": shrink_result.original_events,
        "shrunk_events": shrink_result.shrunk_events,
        "reduction": shrink_result.reduction,
        "violations": [v.to_dict() for v in shrink_result.violations],
        "repro_command": f"python -m repro fuzz --repro {path}",
        "trace_tail": trace_tail,
        "record_log": record_log,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    return path


def load_artifact(path):
    """Load a reproducer artifact; returns (EpisodeSpec, payload).

    Raises :class:`ArtifactError` naming ``path`` when the file is
    missing or unreadable, is not a reproducer, or carries a spec that
    cannot be rebuilt.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ArtifactError(
            f"{path}: cannot read reproducer: {reason}") from exc
    if (not isinstance(payload, dict)
            or payload.get("kind") != "repro.verify reproducer"):
        raise ArtifactError(f"{path} is not a repro.verify reproducer")
    if "spec" not in payload:
        raise ArtifactError(f"{path}: reproducer has no 'spec'")
    try:
        return EpisodeSpec.from_dict(payload["spec"]), payload
    except (SimError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: bad episode spec: {exc}") from exc
