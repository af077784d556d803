"""repro.verify: invariant sanitizers, seeded fuzzing, and shrinking.

The testing subsystem the rest of the reproduction is audited with:

* :mod:`repro.verify.sanitizers` — runtime invariant checkers (token
  discipline, task conservation, clock monotonicity, lock order, hint
  ring accounting) attached through the unified Observer hook;
* :mod:`repro.verify.fuzz` — the seeded episode fuzzer behind
  ``repro fuzz``, with record/replay and native-control differential
  oracles;
* :mod:`repro.verify.shrink` — minimises a failing episode to a small
  reproducer artifact.

Each name loads its submodule on first use (:func:`repro.lazy_exports`).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "fuzz": "EpisodeResult EpisodeSpec FuzzReport SCHEDULER_NAMES TaskSpec "
            "episode_digest fuzz_run generate_episode run_episode "
            "state_digest",
    "sanitizers": "SanitizerError SanitizerSuite Violation "
                  "assert_kernel_state check_kernel_state",
    "shrink": "ArtifactError ShrinkResult load_artifact shrink_episode "
              "write_artifact",
})
