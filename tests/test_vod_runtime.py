"""Runtime-level tests for prefix mode and the VoD scenarios."""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.runtime import (
    FailureEvent,
    FailureKind,
    FocusEvent,
    SessionEventKind,
    render_dashboard,
    run_runtime,
)
from repro.service.config import TimelineConfig
from repro.service.scenarios import (
    SERVICE_SCENARIOS,
    build_service_scenario,
    run_scenario_batch,
)


def _tiny_run(*, failures=(), focuses=()):
    scenario = build_service_scenario("flash_crowd", seed=5)
    config = scenario.replace(
        horizon=1800.0,
        control=dataclasses.replace(scenario.control, metrics_interval=300.0),
        timeline=TimelineConfig(failures=failures, focuses=focuses))
    return run_runtime(config.to_legacy())


class TestScenarioRegistry:
    def test_vod_scenarios_registered(self):
        for name in ("flash_crowd", "diurnal_drift", "long_tail"):
            assert name in SERVICE_SCENARIOS
            assert SERVICE_SCENARIOS[name]().configuration == "prefix"

    def test_unknown_scenario_error_is_canonical(self):
        with pytest.raises(ConfigurationError,
                           match="unknown scenario 'nope'"):
            build_service_scenario("nope")
        with pytest.raises(ConfigurationError,
                           match="unknown scenario 'nope'"):
            run_scenario_batch(["flash_crowd", "nope"], horizon=100.0)


class TestPrefixRuntime:
    def test_deterministic_given_seed(self):
        assert _tiny_run().to_json() == _tiny_run().to_json()

    def test_gauges_and_counters_present(self):
        result = _tiny_run()
        last = result.metrics.snapshots[-1].gauges
        for gauge in ("io_streams", "fanout_ratio", "fanout_cumulative",
                      "prefix_hit_rate", "prefix_resident_titles",
                      "sessions_per_mems_byte", "tail_disk_load"):
            assert gauge in last
        assert last["io_streams"] <= last["active_sessions"]
        assert 0.0 <= last["prefix_hit_rate"] <= 1.0
        assert last["tail_disk_load"] >= 0.0
        for counter in ("batched_joins", "streams_opened", "streams_closed"):
            assert counter in result.totals

    def test_admits_split_between_streams_and_joins(self):
        totals = _tiny_run().totals
        assert totals["admits"] == \
            totals["streams_opened"] + totals["batched_joins"]
        assert totals["streams_opened"] > 0

    def test_served_by_vocabulary(self):
        result = _tiny_run()
        served = {e.served_by for e in result.events
                  if e.kind is SessionEventKind.ADMIT}
        assert served <= {"prefix", "disk", "shared"}
        assert "prefix" in served or "shared" in served

    def test_summary_and_dashboard_and_json(self):
        result = _tiny_run()
        assert "fanout_sessions_per_stream" in result.notes
        assert "vod:" in result.summary()
        assert "vod:" in render_dashboard(result.metrics)
        payload = json.loads(result.to_json())
        assert payload["summary"]["notes"]["streams_opened"] == \
            result.totals["streams_opened"]

    def test_partial_bank_failure_keeps_prefix_mode(self):
        result = _tiny_run(failures=(FailureEvent(
            time=900.0, kind=FailureKind.DEVICE_LOSS, count=1),))
        assert result.totals["failures"] == 1
        assert result.k_active == 1
        assert result.final_mode == "prefix"

    def test_total_bank_loss_falls_back_and_keeps_counters(self):
        result = _tiny_run(failures=(FailureEvent(
            time=900.0, kind=FailureKind.DEVICE_LOSS, count=2),))
        assert result.k_active == 0
        assert result.final_mode == "none"
        # Cumulative fanout accounting survives the batcher teardown.
        assert result.notes["streams_opened"] > 0
        assert result.notes["batched_sessions"] >= \
            result.notes["streams_opened"]
        last = result.metrics.snapshots[-1].gauges
        assert result.active_sessions == last["active_sessions"]


class TestFocusEvents:
    def test_focus_event_validation(self):
        with pytest.raises(ConfigurationError):
            FocusEvent(time=-1.0, title=0, weight=0.5)
        with pytest.raises(ConfigurationError):
            FocusEvent(time=0.0, title=-1, weight=0.5)
        with pytest.raises(ConfigurationError):
            FocusEvent(time=0.0, title=0, weight=1.5)

    def test_focus_shifts_traffic(self):
        def share(result):
            hits = sum(1 for e in result.events
                       if e.kind is SessionEventKind.ADMIT and e.title == 3)
            return hits / max(1, result.totals["admits"])

        base = _tiny_run()
        focused = _tiny_run(
            focuses=(FocusEvent(time=0.0, title=3, weight=0.9),))
        assert share(focused) > share(base) + 0.3

    def test_focus_weight_zero_restores_base_draws(self):
        released = _tiny_run(
            focuses=(FocusEvent(time=0.0, title=3, weight=0.0),))
        base = _tiny_run()
        # Engine event counts differ (the focus event itself executes),
        # but the session log and metrics must match draw for draw.
        assert released.events == base.events
        assert released.metrics.to_json() == base.metrics.to_json()

    def test_config_validation(self):
        scenario = build_service_scenario("flash_crowd", seed=5)
        placement = scenario.placement
        with pytest.raises(ConfigurationError):
            dataclasses.replace(placement, prefix_safety=0.0)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(placement, prefix_floor=-1.0)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(placement, batch_window=-5.0)
        with pytest.raises(ConfigurationError):
            scenario.replace(configuration="bogus")


class TestFlashCrowdAcceptance:
    """The issue's headline claim, asserted at the default horizon."""

    def test_fanout_and_admission_advantage(self):
        config = build_service_scenario("flash_crowd", seed=11)
        prefix = run_runtime(config.to_legacy())
        whole = run_runtime(
            config.replace(configuration="cache").to_legacy())
        assert prefix.notes["fanout_sessions_per_stream"] >= 3.0
        assert prefix.totals["admits"] > whole.totals["admits"]

    def test_prefix_replans_reuse_warm_hints(self):
        result = run_runtime(
            build_service_scenario("flash_crowd", seed=11).to_legacy())
        assert result.totals["replans"] > 0
        assert result.planner_cache["probes_warm"] > 0


class TestOtherVodScenarios:
    def test_diurnal_drift_runs_and_drifts(self):
        config = build_service_scenario("diurnal_drift", seed=3).replace(
            horizon=1800.0)
        result = run_runtime(config.to_legacy())
        assert result.totals["replans"] > 0
        assert result.final_mode == "prefix"

    def test_long_tail_fans_out_less_than_flash_crowd(self):
        crowd = run_runtime(
            build_service_scenario("flash_crowd", seed=5).to_legacy())
        tail = run_runtime(build_service_scenario(
            "long_tail", seed=5).replace(horizon=6000.0).to_legacy())
        assert crowd.notes["fanout_sessions_per_stream"] > \
            tail.notes["fanout_sessions_per_stream"]

    def test_batch_covers_all_scenarios(self):
        results = run_scenario_batch(sorted(SERVICE_SCENARIOS),
                                     horizon=600.0, seed=3, jobs=2)
        assert sorted(results) == sorted(SERVICE_SCENARIOS)
        for name in ("flash_crowd", "diurnal_drift", "long_tail"):
            assert results[name].totals["admits"] > 0
