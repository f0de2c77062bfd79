"""End-to-end tests for the online server runtime."""

import hashlib
import json

import pytest

from repro.runtime import MetricsLog, SessionEventKind, run_runtime
from repro.service.scenarios import (
    SERVICE_SCENARIOS,
    build_service_scenario,
    run_scenario,
)
from repro.workloads.arrivals import predicted_blocking


class TestDeterminism:
    def test_same_seed_reproduces_the_whole_run(self):
        first = run_scenario("device-failure", seed=5)
        second = run_scenario("device-failure", seed=5)
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("name", list(SERVICE_SCENARIOS))
    def test_one_config_object_replays_identically(self, name):
        # Drifts, surges and focuses move the engine's own workload
        # copy, so a second run of the same object starts afresh.
        config = build_service_scenario(name, seed=0,
                                        horizon=4_000.0).to_legacy()
        first, second = (
            hashlib.sha256(run_runtime(config).to_json().encode()).digest()
            for _ in range(2))
        assert first == second, f"{name}: the second run diverged"

    def test_different_seeds_diverge(self):
        first = run_scenario("adaptive-cache", seed=1, horizon=2_000)
        second = run_scenario("adaptive-cache", seed=2, horizon=2_000)
        assert first.to_json() != second.to_json()


class TestLifecycle:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("steady-disk", seed=0, horizon=10_000)

    def test_session_conservation(self, result):
        totals = result.totals
        assert totals["arrivals"] == totals["admits"] + totals["rejects"]
        assert result.active_sessions == (
            totals["admits"] - totals["departures"] - totals["drops"])
        assert result.active_sessions >= 0

    def test_event_log_is_time_ordered(self, result):
        times = [e.time for e in result.events]
        assert times == sorted(times)

    def test_rejections_carry_reasons(self, result):
        rejects = [e for e in result.events
                   if e.kind is SessionEventKind.REJECT]
        assert rejects, "a near-capacity run must block someone"
        assert all(e.reason for e in rejects)

    def test_every_departure_matches_an_admission(self, result):
        admitted = {e.session_id for e in result.events
                    if e.kind is SessionEventKind.ADMIT}
        ended = [e.session_id for e in result.events
                 if e.kind in (SessionEventKind.DEPART,
                               SessionEventKind.DROP)]
        assert set(ended) <= admitted
        assert len(ended) == len(set(ended))  # nobody departs twice


class TestErlangValidation:
    def test_blocking_probability_tracks_erlang_b(self):
        result = run_scenario("steady-disk", seed=0)
        config = build_service_scenario("steady-disk", seed=0)
        predicted = predicted_blocking(config.workload.arrival_rate,
                                       config.workload.mean_holding,
                                       result.final_capacity)
        assert result.blocking_probability > 0
        # Finite horizon (the system starts empty) biases the empirical
        # value slightly low; 0.025 absolute is ~3 sigma at this length.
        assert result.blocking_probability == pytest.approx(predicted,
                                                            abs=0.025)


class TestFailureInjection:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("device-failure", seed=7)

    def test_failure_is_survived_with_a_feasible_design(self, result):
        assert result.totals["failures"] == 1
        assert result.k_active == 1
        assert result.final_mode in ("cache", "buffer", "none")
        assert result.final_dram_required <= result.dram_budget * (1 + 1e-9)
        assert result.active_sessions <= result.final_capacity

    def test_failure_is_visible_in_exported_metrics(self, result):
        assert result.degraded_time > 0
        log = MetricsLog.from_json(result.metrics.to_json())
        degraded_intervals = [s for s in log.snapshots
                              if s.gauges["degraded"] == 1.0]
        assert degraded_intervals
        assert all(s.gauges["k_active"] == 1.0 for s in degraded_intervals)
        assert log.totals()["failures"] == 1

    def test_shed_sessions_are_logged_as_drops(self, result):
        drops = [e for e in result.events
                 if e.kind is SessionEventKind.DROP]
        assert len(drops) == result.totals["drops"]
        assert drops, "a near-capacity failure must shed someone"
        failure_time = build_service_scenario(
            "device-failure").timeline.failures[0].time
        assert all(e.time >= failure_time for e in drops)
        assert all(e.reason for e in drops)

    def test_bandwidth_degrade_also_recovers(self):
        result = run_scenario("degraded-bandwidth", seed=3)
        assert result.degraded_time > 0
        assert result.final_dram_required <= result.dram_budget * (1 + 1e-9)


class TestAdaptivePlacement:
    def test_drift_triggers_migrations(self):
        result = run_scenario("adaptive-cache", seed=4)
        config = build_service_scenario("adaptive-cache", seed=4)
        first_drift = min(d.time for d in config.timeline.drifts)
        later = [m for m in result.migrations if m.time > first_drift]
        assert later, "popularity drift must cause re-placements"
        assert any(m.migrations_in for m in later)
        assert any(m.migrations_out for m in later)

    def test_cache_serves_sessions(self):
        result = run_scenario("adaptive-cache", seed=4)
        served = {e.served_by for e in result.events
                  if e.kind is SessionEventKind.ADMIT}
        assert "cache" in served and "disk" in served

    def test_flash_crowd_raises_blocking(self):
        calm = run_scenario("steady-disk", seed=0, horizon=15_000)
        surged = run_scenario("flash-crowd", seed=0, horizon=15_000)
        assert surged.blocking_probability > calm.blocking_probability


class TestMetricsExport:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("adaptive-cache", seed=2, horizon=3_000)

    def test_metrics_round_trip_through_json(self, result):
        text = result.metrics.to_json(indent=2)
        restored = MetricsLog.from_json(text)
        assert restored.snapshots == result.metrics.snapshots
        assert restored.to_json(indent=2) == text

    def test_result_json_is_valid_and_complete(self, result):
        payload = json.loads(result.to_json())
        assert payload["schema"] == 1
        assert payload["summary"]["totals"]["arrivals"] > 0
        assert len(payload["events"]) == len(result.events)
        assert len(payload["metrics"]["snapshots"]) == len(
            result.metrics.snapshots)

    def test_intervals_tile_the_horizon(self, result):
        snapshots = result.metrics.snapshots
        assert snapshots[0].t_start == 0.0
        assert snapshots[-1].t_end == pytest.approx(result.horizon)
        for a, b in zip(snapshots, snapshots[1:]):
            assert b.t_start == pytest.approx(a.t_end)
            assert b.index == a.index + 1

    def test_dashboard_renders(self, result):
        text = result.dashboard()
        assert "totals:" in text
        assert "Erlang-B" in text
        assert "warm probes" in text

    def test_planner_probe_gauges_exported(self, result):
        last = result.metrics.snapshots[-1].gauges
        assert {"planner_probe_cold", "planner_probe_warm",
                "planner_probe_total"} <= last.keys()
        assert last["planner_probe_total"] == (
            last["planner_probe_cold"] + last["planner_probe_warm"])
        assert last["planner_probe_total"] > 0
        # Counters are cumulative: monotone across snapshots.
        totals = [s.gauges["planner_probe_total"]
                  for s in result.metrics.snapshots]
        assert totals == sorted(totals)

    def test_summary_reports_probe_counts(self, result):
        assert "planner probes:" in result.summary()

    def test_custom_horizon_respected(self):
        result = run_scenario("steady-disk", seed=0, horizon=5_000)
        assert result.horizon == 5_000
        assert result.metrics.snapshots[-1].t_end == pytest.approx(5_000)
