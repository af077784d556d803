"""Observation must not perturb the simulation.

For fixed fuzz seeds, running an episode with and without a full
Observer attached must produce byte-identical state digests, and the
sanitizer/replay oracles must reach the same verdicts on repeat runs.
Every hot-path optimisation is held to this contract.
"""

from repro.verify import episode_digest, generate_episode, run_episode

#: fixed seeds the fast-path equivalence is pinned on (≥3 per the
#: acceptance criteria; small recordable-or-not mix by construction)
EQUIVALENCE_SEEDS = (7, 42, 1234)


class TestFastPathEquivalence:
    def test_observer_attachment_does_not_change_digests(self):
        for seed in EQUIVALENCE_SEEDS:
            bare = episode_digest(seed, observe=False)
            observed = episode_digest(seed, observe=True)
            assert bare == observed, (
                f"seed {seed}: no-observer fast path diverged from the "
                f"observed run ({bare[:12]} != {observed[:12]})")

    def test_digest_is_deterministic_across_runs(self):
        for seed in EQUIVALENCE_SEEDS:
            assert episode_digest(seed) == episode_digest(seed)

    def test_sanitizer_verdicts_match_across_repeat_runs(self):
        # run_episode attaches the full sanitizer suite plus the replay
        # and control oracles; two runs of the same spec must agree on
        # every verdict (violations, replay check, completion counts).
        for seed in EQUIVALENCE_SEEDS:
            spec = generate_episode(seed)
            first = run_episode(spec).to_dict()
            second = run_episode(spec).to_dict()
            assert first == second

    def test_replay_oracle_runs_for_recordable_seed(self):
        # At least one fixed seed must exercise the record/replay digest
        # comparison end to end (recordable episodes replay bit-exact).
        checked = 0
        for seed in range(20):
            spec = generate_episode(seed, sched="wfq")
            if not spec.recordable:
                continue
            result = run_episode(spec)
            assert result.replay_checked
            assert not [v for v in result.violations
                        if v.sanitizer == "replay"]
            checked += 1
            if checked >= 2:
                break
        assert checked >= 2
