"""Random-system generator contract and the soundness campaign driver."""

import pytest

from conftest import assert_well_formed, small_random_system

from navlog import fuzz
from navlog.fuzz import FuzzConfig, fuzz_soundness, generate_random_system
from navlog.proof import TRANSITIVITY

ALL_PROPERTIES = {
    "reflexivity", "amnesic_implies_recall", "augmentation", "trim_corridor",
    "corridor_agreement", "zero_step", "empty_target", "transitivity",
    "transitivity_splice", "recall_transitivity", "fixture_counterexample",
}


RULE_AND_CONSTRUCTIVE = ALL_PROPERTIES - {
    "reflexivity", "amnesic_implies_recall", "recall_transitivity",
    "fixture_counterexample"}


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("trials", -1), ("max_states", 0), ("max_views", 0),
        ("max_instructions", 0), ("density", float("nan")), ("density", 2.0),
        ("density", -0.5),
    ])
    def test_rejects_a_bad_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            FuzzConfig(**{field: value})


class TestGenerator:
    def test_deterministic_in_seed_and_trial(self):
        config = FuzzConfig(seed=5)
        first = generate_random_system(config, 17)
        second = generate_random_system(config, 17)
        assert first.universe == second.universe
        assert first.states == second.states
        assert first.instructions == second.instructions
        assert first.transition_triples() == second.transition_triples()
        other = generate_random_system(config, 18)
        assert (first.states != other.states
                or first.transition_triples() != other.transition_triples())

    def test_bounds_hold_on_every_trial_including_zero(self):
        config = FuzzConfig(seed=2, max_states=3, max_views=2,
                            max_instructions=1)
        for trial in range(40):
            system = generate_random_system(config, trial)
            assert 1 <= len(system.states) <= 3
            assert 1 <= len(system.universe) <= 2
            assert len(system.instructions) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_tables_match_the_validated_twin(self, seed):
        config = FuzzConfig(seed=seed, max_states=5, max_views=3,
                            max_instructions=2, density=0.4)
        for trial in range(80):
            system = generate_random_system(config, trial)
            assert_well_formed(system)
            twin = small_random_system(fuzz._trial_rng(seed, trial), 3, 2, 5, 0.4)
            assert system.universe == twin.universe
            assert system.instructions == twin.instructions
            assert system.states == twin.states
            assert system.view_of == twin.view_of
            assert system.succ == twin.succ

    def test_density_zero_means_everything_halts(self):
        config = FuzzConfig(seed=4, density=0.0)
        for trial in range(10):
            assert generate_random_system(config, trial).transition_triples() == ()

    def test_density_one_means_complete_graphs(self):
        config = FuzzConfig(seed=4, density=1.0)
        for trial in range(10):
            system = generate_random_system(config, trial)
            expected = len(system.states) ** 2 * len(system.instructions)
            assert len(system.transition_triples()) == expected


class TestCampaign:
    def test_deterministic_report(self):
        first = fuzz_soundness(FuzzConfig(seed=9, trials=25))
        second = fuzz_soundness(FuzzConfig(seed=9, trials=25))
        assert first.trials_run == second.trials_run == 25
        assert first.checks == second.checks
        assert first.violations == second.violations

    def test_trial_zero_is_the_known_counterexample(self):
        report = fuzz_soundness(FuzzConfig(trials=1))
        assert report.ok
        assert report.checks["fixture_counterexample"] == 1
        assert len(report.notes) == 1
        assert "trial 0" in report.notes[0]

    def test_zero_trials(self):
        report = fuzz_soundness(FuzzConfig(trials=0))
        assert report.trials_run == 0
        assert report.checks == {}
        assert report.notes == ()
        assert report.ok

    def test_short_campaign_is_clean_and_covers_every_property(self):
        report = fuzz_soundness(FuzzConfig(seed=0, trials=60))
        assert report.violations == ()
        assert set(report.checks) == ALL_PROPERTIES
        assert all(count >= 1 for count in report.checks.values())
        assert report.elapsed_s >= 0

    def test_default_campaign_checks_every_rule_often(self):
        report = fuzz_soundness(FuzzConfig())
        assert report.ok
        assert all(report.checks[prop] >= 100 for prop in RULE_AND_CONSTRUCTIVE)

    def test_campaign_fires_the_proof_rule_step(self, monkeypatch):
        """A rule step that chains overlapping corridors is caught on the
        fixture's two trips, with no edit to the campaign."""
        real = fuzz.rule_steps

        def careless(premises, masks):
            (a, b, c), partners = premises[0], premises[1:]
            return real(premises, masks) + [
                ((a, b | u[1], u[2]), TRANSITIVITY, (premises[0], u))
                for u in partners if u[0] == c and b & u[1]]

        monkeypatch.setattr(fuzz, "rule_steps", careless)
        report = fuzz_soundness(FuzzConfig(trials=1))
        assert TRANSITIVITY in {v.prop for v in report.violations}
