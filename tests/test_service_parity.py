"""Parity harness: the service path is byte-identical to the legacy loop.

The tentpole guarantee of the control-plane refactor: driving every
named scenario through ``MediaService`` + ``TrafficProgram`` (built
from the declarative :class:`RuntimeConfig`) produces the *same JSON
document* as the pre-refactor ``run_runtime`` loop — same admissions,
same rejections, same metrics, same seq numbers.  Horizons are trimmed
for test-suite speed; the CLI smoke step in CI re-proves one scenario
at a longer horizon.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.runtime.runtime import DriftEvent, run_runtime
from repro.service.config import ControlConfig, TimelineConfig
from repro.service.events import (
    AdmitPending,
    BackpressureChanged,
    EventBus,
    EventLog,
    Reconfigured,
    SessionAdmitted,
    SessionRejected,
)
from repro.service.facade import MediaService
from repro.service.parity import (
    compare_config,
    compare_scenario,
    verify_all,
)
from repro.service.scenarios import (
    SERVICE_SCENARIOS,
    build_service_scenario,
)
from repro.service.traffic import TrafficProgram, run_service

#: Per-scenario horizons: long enough to cross epochs, failures, and
#: every timeline event, short enough for the suite.
_HORIZONS = {
    "steady-disk": 2_500.0,
    "adaptive-cache": 4_000.0,
    "device-failure": 2_500.0,
    "degraded-bandwidth": 2_500.0,
    "flash-crowd": 2_500.0,
    "overload": 1_500.0,
    "flash_crowd": 2_500.0,
    "diurnal_drift": 3_000.0,
    "long_tail": 2_500.0,
}


class TestParity:
    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    def test_scenario_is_byte_identical(self, name):
        report = compare_scenario(name, seed=0, horizon=_HORIZONS[name])
        assert report.matches, report.first_divergence()

    def test_parity_survives_a_different_seed(self):
        report = compare_scenario("adaptive-cache", seed=11,
                                  horizon=3_000.0)
        assert report.matches, report.first_divergence()

    def test_verify_all_covers_every_scenario(self):
        reports = verify_all(seed=0, horizon=1_200.0)
        assert sorted(reports) == sorted(SERVICE_SCENARIOS)
        assert all(r.matches for r in reports.values())

    def test_report_pinpoints_a_divergence(self):
        # Same scenario, different seeds: a real divergence the report
        # must localize rather than just flag.
        base = build_service_scenario("steady-disk", horizon=1_500.0)
        legacy_json = run_runtime(base.to_legacy()).to_json(indent=None)
        other = base.replace(seed=9)
        report = compare_config("steady-disk", other)
        report = type(report)(name="steady-disk", matches=False,
                              legacy_json=legacy_json,
                              service_json=report.service_json)
        divergence = report.first_divergence()
        assert "at byte" in divergence
        assert "legacy" in divergence and "service" in divergence

    def test_timeline_events_fire_identically(self):
        # The scenario whose timeline carries every event family.
        report = compare_scenario("flash_crowd", seed=0, horizon=4_000.0)
        assert report.matches, report.first_divergence()


class TestEventFlowEquivalence:
    def test_replan_latency_changes_the_path_not_the_plans(self):
        # With a replan window the service parks admits, so the RNG
        # schedule differs from legacy — but the run still completes
        # and serves comparable traffic under the same plans.
        config = build_service_scenario(
            "adaptive-cache", horizon=4_000.0)
        windowed = config.replace(control=ControlConfig(
            epoch=config.control.epoch,
            metrics_interval=config.control.metrics_interval,
            replan_latency=10.0))
        result = run_service(windowed)
        baseline = run_service(config)
        totals = result.totals
        assert totals.get("arrivals", 0) > 0
        assert totals.get("admits", 0) > 0
        ratio = (totals.get("admits", 0)
                 / max(1, baseline.totals.get("admits", 0)))
        assert 0.5 < ratio < 1.5


class TestScenarioValidation:
    def test_unknown_scenario_lists_the_catalog(self):
        with pytest.raises(ConfigurationError, match="steady-disk"):
            build_service_scenario("no-such-thing")

    def test_bad_horizon_is_rejected(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            build_service_scenario("steady-disk", horizon=0.0)


def _without_events_executed(result):
    payload = json.loads(result.to_json(indent=None))
    payload["summary"].pop("events_executed")
    return json.dumps(payload, sort_keys=True)


class TestTableCoreParity:
    """On the table core both drivers drain arrivals in windows, so the
    service JSON equals the run loop's byte for byte, executed-event
    count included, and the object core's JSON minus that count."""

    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    def test_service_equals_run_loop_and_object_core(self, name):
        config = build_service_scenario(name, seed=0,
                                        horizon=_HORIZONS[name])
        table = config.replace(session_core="table")
        report = compare_config(name, table)
        assert report.matches, report.first_divergence()
        objects = run_service(config.replace(session_core="objects"))
        service = run_service(table)
        assert (_without_events_executed(service)
                == _without_events_executed(objects))
        # Control events only: no arrival or departure reaches the
        # calendar on the table core.
        assert service.events_executed < objects.events_executed


def _bus_run(config, *, calls=()):
    """Drive ``config`` through the traffic program with a recording
    subscriber.  ``calls`` are ``(time, operation)`` pairs, each
    operation called with the service from a timeline callback; returns
    (events, tickets_issued, events_published, operation results)."""
    bus = EventBus()
    log = EventLog()
    bus.subscribe(None, log)
    service = MediaService(config, bus=bus)
    program = TrafficProgram(service)
    results = []
    for time, operation in calls:
        service.sim.at(time, lambda sim, op=operation:
                       results.append(op(service)), "probe")
    program.run()
    stats = service.stats()
    return ([event.to_dict() for event in log.events],
            stats["tickets_issued"], stats["events_published"], results)


def _with_replan_latency(name, *, latency_share, drift_offset):
    """``name`` with off-path replans and one drift inside a window."""
    config = build_service_scenario(name, seed=3,
                                    horizon=_HORIZONS[name])
    epoch = config.control.epoch
    timeline = config.timeline
    drift = DriftEvent(time=2 * epoch + drift_offset * epoch, shift=7)
    return config.replace(
        control=ControlConfig(
            epoch=epoch, metrics_interval=config.control.metrics_interval,
            replan_latency=latency_share * epoch),
        timeline=TimelineConfig(
            failures=timeline.failures,
            drifts=timeline.drifts + (drift,),
            surges=timeline.surges, focuses=timeline.focuses))


class TestBusStreamAcrossCores:
    """The service's event bus sees the same stream on both session
    cores: kinds, times, ticket ids, loads and ``was_pending`` — the
    table core's windowed drain publishes what the object core's
    per-arrival ``admit`` calls would have."""

    @staticmethod
    def _assert_same_stream(config, **kwargs):
        objects = _bus_run(config.replace(session_core="objects"), **kwargs)
        table = _bus_run(config.replace(session_core="table"), **kwargs)
        assert objects[0], "the run published nothing"
        assert objects[0] == table[0]
        assert objects[1:3] == table[1:3]
        return objects, table

    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    def test_every_scenario_publishes_the_same_stream(self, name):
        config = build_service_scenario(name, seed=0,
                                        horizon=_HORIZONS[name])
        (events, tickets, published, _), _ = self._assert_same_stream(config)
        kinds = {event["kind"] for event in events}
        assert "SessionAdmitted" in kinds
        assert published == len(events)
        assert tickets == sum(
            1 for event in events
            if event["kind"] in ("SessionAdmitted", "SessionRejected"))

    def test_overload_sheds_identically(self):
        config = build_service_scenario("overload", seed=0,
                                        horizon=_HORIZONS["overload"])
        (events, *_), _ = self._assert_same_stream(config)
        states = [event["state"] for event in events
                  if event["kind"] == BackpressureChanged.__name__]
        assert "shedding" in states

    @pytest.mark.parametrize("name", ["adaptive-cache", "diurnal_drift"])
    def test_replan_windows_park_identically(self, name):
        # The drift lands 1/16 epoch into the third replan window
        # (which stays open for 1/8 epoch), so arrivals before it must
        # park, and publish, before the Reconfigured event.
        config = _with_replan_latency(name, latency_share=0.125,
                                      drift_offset=0.0625)
        (events, *_), _ = self._assert_same_stream(config)
        drift_time = 2.0625 * config.control.epoch
        reconfigured = next(
            i for i, event in enumerate(events)
            if event["kind"] == Reconfigured.__name__
            and event["time"] == drift_time
            and "popularity_shift=7" in event["changes"])
        parked_before = [event for event in events[:reconfigured]
                         if event["kind"] == AdmitPending.__name__
                         and event["time"] > 2 * config.control.epoch]
        assert parked_before
        assert all(event["kind"] != AdmitPending.__name__
                   or event["time"] < drift_time
                   for event in events[:reconfigured])
        assert any(event.get("was_pending") for event in events)

    @pytest.mark.parametrize("core", ["objects", "table"])
    def test_external_admit_sees_earlier_arrivals(self, core):
        config = build_service_scenario("steady-disk", seed=4,
                                        horizon=1_500.0)
        probe_at = 700.0
        events, _, _, probe = _bus_run(
            config.replace(session_core=core),
            calls=[(probe_at, MediaService.admit)])
        (ticket,) = probe
        outcomes = (SessionAdmitted.__name__, SessionRejected.__name__)
        positions = [i for i, event in enumerate(events)
                     if event["kind"] in outcomes]
        earlier = [i for i in positions if events[i]["time"] < probe_at]
        own = next(i for i in positions
                   if events[i]["ticket_id"] == ticket.ticket_id)
        # Every self-driven arrival due before the call already holds a
        # ticket, published ahead of the probe's own event.
        assert ticket.ticket_id == len(earlier)
        assert earlier and max(earlier) < own
        assert events[own]["time"] == probe_at

    def test_external_admit_is_core_independent(self):
        config = build_service_scenario("steady-disk", seed=4,
                                        horizon=1_500.0)
        objects, table = self._assert_same_stream(
            config, calls=[(700.0, MediaService.admit)])
        assert objects[3] == table[3]

    def test_drain_mid_run_refuses_identically(self):
        # The drain lands inside a replan window: the parked tickets
        # are refused at replan-done, later arrivals at once.
        config = _with_replan_latency("adaptive-cache", latency_share=0.125,
                                      drift_offset=0.0625)
        drain_at = 2.1 * config.control.epoch
        (events, *_), _ = self._assert_same_stream(
            config, calls=[(drain_at, MediaService.drain)])
        refused = [event for event in events
                   if event["kind"] == SessionRejected.__name__
                   and event["reason"] == "draining"]
        assert any(event["was_pending"] for event in refused)
        assert any(not event["was_pending"] and event["time"] > drain_at
                   for event in refused)
