"""FaultPlan tests: validation, content addressing, round trips, scoping."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import (
    FaultEpisode,
    FaultPlan,
    active_fault_plan,
    active_plan_key,
    clear_fault_plan,
    enabled_plan_key,
    fault_injection,
    install_fault_plan,
    load_plan,
    retry_storm_plan,
)


@pytest.fixture
def storm():
    return FaultEpisode(kind="link_retry_storm", start_ns=100.0,
                        duration_ns=500.0, retry_multiplier=300.0)


class TestEpisodeValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultEpisode(kind="cosmic_ray")

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError, match="start"):
            FaultEpisode(kind="ecc", start_ns=-1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="duration"):
            FaultEpisode(kind="ecc", duration_ns=0.0)

    def test_bad_ecc_prob_rejected(self):
        with pytest.raises(ConfigurationError, match="ecc_single_prob"):
            FaultEpisode(kind="ecc", ecc_single_prob=1.5)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_field_rejected(self, value):
        # A plan's key is canonical JSON, which has no spelling for
        # NaN or an infinity: such an episode is refused at load.
        with pytest.raises(ConfigurationError, match="finite"):
            FaultEpisode(kind="ecc", duration_ns=value)
        with pytest.raises(ConfigurationError, match="finite"):
            FaultEpisode(kind="thermal_throttle", temperature_c=value)

    def test_window_mask_half_open(self, storm):
        arrivals = np.array([0.0, 100.0, 599.9, 600.0, 1000.0])
        assert storm.window_mask(arrivals).tolist() == [
            False, True, True, False, False,
        ]

    def test_end_ns(self, storm):
        assert storm.end_ns == 600.0


class TestPlanKey:
    def test_name_excluded_from_key(self, storm):
        a = FaultPlan(name="alpha", episodes=(storm,))
        b = FaultPlan(name="beta", episodes=(storm,))
        assert a.key() == b.key()

    def test_episodes_and_seed_included(self, storm):
        base = FaultPlan(name="p", episodes=(storm,))
        other_seed = FaultPlan(name="p", episodes=(storm,), seed=999)
        other_episode = FaultPlan(
            name="p",
            episodes=(storm, FaultEpisode(kind="ecc")),
        )
        assert base.key() != other_seed.key()
        assert base.key() != other_episode.key()

    def test_empty_plan_is_disabled(self):
        plan = FaultPlan(name="nothing")
        assert not plan.enabled
        assert FaultPlan(name="renamed").key() == plan.key()

    def test_only_an_enabled_plan_has_a_folded_key(self, storm):
        plan = FaultPlan(name="p", episodes=(storm,))
        assert enabled_plan_key(None) is None
        assert enabled_plan_key(FaultPlan(name="nothing")) is None
        assert enabled_plan_key(plan) == plan.key()
        assert active_plan_key() is None
        with fault_injection(plan):
            assert active_plan_key() == plan.key()
        assert active_plan_key() is None

    def test_episodes_of_filters_by_kind(self, storm):
        plan = FaultPlan(
            name="p", episodes=(storm, FaultEpisode(kind="ecc"))
        )
        assert plan.episodes_of("link_retry_storm") == (storm,)
        assert len(plan.episodes_of("ecc")) == 1
        assert plan.episodes_of("device_dropout") == ()


class TestSerialization:
    def test_round_trip(self, storm):
        plan = FaultPlan(
            name="rt", seed=5,
            episodes=(storm, FaultEpisode(kind="thermal_throttle")),
        )
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert again.key() == plan.key()

    def test_unknown_episode_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault episode"):
            FaultEpisode.from_dict({"kind": "ecc", "blast_radius": 3})

    def test_load_plan_from_file(self, tmp_path, storm):
        plan = retry_storm_plan(0.0, 1e6, multiplier=100.0, seed=3)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert load_plan(str(path)) == plan

    def test_load_plan_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_plan(str(tmp_path / "absent.json"))

    def test_load_plan_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not JSON"):
            load_plan(str(path))


class TestInstallation:
    def test_install_and_clear(self, storm):
        plan = FaultPlan(name="p", episodes=(storm,))
        try:
            assert install_fault_plan(plan) is plan
            assert active_fault_plan() is plan
        finally:
            clear_fault_plan()
        assert active_fault_plan() is None

    def test_install_rejects_non_plan(self):
        with pytest.raises(ConfigurationError, match="expected a FaultPlan"):
            install_fault_plan({"kind": "ecc"})

    def test_context_manager_restores_previous(self, storm):
        outer = FaultPlan(name="outer", episodes=(storm,))
        inner = FaultPlan(name="inner")
        try:
            install_fault_plan(outer)
            with fault_injection(inner):
                assert active_fault_plan() is inner
            assert active_fault_plan() is outer
        finally:
            clear_fault_plan()

    def test_context_manager_restores_on_error(self, storm):
        plan = FaultPlan(name="p", episodes=(storm,))
        with pytest.raises(RuntimeError):
            with fault_injection(plan):
                raise RuntimeError("boom")
        assert active_fault_plan() is None
