"""The declarative RuntimeConfig tree: validation, JSON, compilation."""

import json
import re

import pytest

from repro.core.parameters import SystemParameters
from repro.errors import ConfigurationError
from repro.runtime.failures import FailureKind
from repro.service.backpressure import BackpressureConfig
from repro.service.config import (
    ControlConfig,
    PlacementConfig,
    PopularityConfig,
    RuntimeConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.service.scenarios import (
    SERVICE_SCENARIOS,
    build_service_scenario,
)
from repro.units import KB, MB


def _minimal(**overrides):
    fields = dict(
        configuration="none", dram_budget=50 * MB, horizon=1_000.0,
        system=SystemConfig.from_params(SystemParameters.table3_default(
            n_streams=1, bit_rate=500 * KB, k=1)),
        workload=WorkloadConfig(
            arrival_rate=0.1, mean_holding=600.0, n_titles=50,
            popularity=PopularityConfig(kind="zipf", alpha=1.0)))
    fields.update(overrides)
    return RuntimeConfig(**fields)


class TestValidation:
    def test_rejects_unknown_configuration(self):
        with pytest.raises(ConfigurationError, match="configuration"):
            _minimal(configuration="turbo")

    def test_rejects_bad_horizon_and_budget(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            _minimal(horizon=0.0)
        with pytest.raises(ConfigurationError, match="dram_budget"):
            _minimal(dram_budget=-1.0)

    def test_rejects_unknown_device(self):
        with pytest.raises(ConfigurationError, match="device"):
            _minimal(device="G9")

    def test_control_bounds(self):
        with pytest.raises(ConfigurationError, match="epoch"):
            ControlConfig(epoch=0.0)
        with pytest.raises(ConfigurationError, match="replan_latency"):
            ControlConfig(replan_latency=-1.0)
        with pytest.raises(ConfigurationError, match="replan_latency"):
            ControlConfig(epoch=100.0, replan_latency=100.0)

    def test_workload_bounds(self):
        with pytest.raises(ConfigurationError, match="arrival_rate"):
            WorkloadConfig(arrival_rate=0.0, mean_holding=1.0, n_titles=5,
                           popularity=PopularityConfig(kind="uniform"))
        with pytest.raises(ConfigurationError, match="n_titles"):
            WorkloadConfig(arrival_rate=1.0, mean_holding=1.0, n_titles=0,
                           popularity=PopularityConfig(kind="uniform"))

    def test_popularity_kind_needs_its_parameters(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            PopularityConfig(kind="zipf")
        with pytest.raises(ConfigurationError, match="bimodal"):
            PopularityConfig(kind="bimodal", x_percent=5.0)
        with pytest.raises(ConfigurationError, match="kind"):
            PopularityConfig(kind="flat")

    def test_placement_bounds(self):
        with pytest.raises(ConfigurationError, match="decay"):
            PlacementConfig(decay=1.0)
        with pytest.raises(ConfigurationError, match="batch_window"):
            PlacementConfig(batch_window=0.0)


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    def test_every_scenario_round_trips_through_json(self, name):
        config = build_service_scenario(name, seed=3, horizon=2_000.0)
        clone = RuntimeConfig.from_json(config.to_json())
        assert clone == config
        assert clone.to_json() == config.to_json()

    def test_rejects_wrong_schema(self):
        payload = _minimal().to_dict()
        payload["schema"] = 99
        with pytest.raises(ConfigurationError, match="schema"):
            RuntimeConfig.from_dict(payload)

    def test_rejects_unknown_keys(self):
        payload = _minimal().to_dict()
        payload["turbo"] = True
        with pytest.raises(ConfigurationError, match="turbo"):
            RuntimeConfig.from_dict(payload)

    def test_rejects_missing_required_keys(self):
        payload = _minimal().to_dict()
        del payload["workload"]
        with pytest.raises(ConfigurationError, match="workload"):
            RuntimeConfig.from_dict(payload)

    def test_rejects_non_json_text(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            RuntimeConfig.from_json("{not json")
        with pytest.raises(ConfigurationError, match="object"):
            RuntimeConfig.from_json("[1, 2]")

    def test_timeline_serializes_events(self):
        config = build_service_scenario("device-failure", horizon=2_000.0)
        payload = config.to_dict()["timeline"]
        assert payload["failures"] == [
            {"time": 1_000.0, "kind": "device_loss", "count": 1,
             "factor": 1.0}]
        clone = RuntimeConfig.from_dict(config.to_dict())
        failure = clone.timeline.failures[0]
        assert failure.kind is FailureKind.DEVICE_LOSS

    def test_backpressure_thresholds_ride_along(self):
        config = _minimal(control=ControlConfig(
            backpressure=BackpressureConfig(throttle_enter=0.6,
                                            throttle_exit=0.4,
                                            shed_enter=0.9,
                                            shed_exit=0.8)))
        clone = RuntimeConfig.from_json(config.to_json())
        assert clone.control.backpressure.throttle_enter == pytest.approx(0.6)


def _from_json_with(edit):
    payload = build_service_scenario("device-failure",
                                     horizon=2_000.0).to_dict()
    edit(payload)
    return RuntimeConfig.from_json(json.dumps(payload))


class TestMalformedJson:
    """Malformed values stop at the JSON boundary as ConfigurationErrors
    naming the JSON path, never as raw TypeError/KeyError or a run."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_arrival_rate(self, value):
        with pytest.raises(ConfigurationError,
                           match=r"workload\.arrival_rate"):
            _from_json_with(
                lambda p: p["workload"].update(arrival_rate=value))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_mean_holding(self, value):
        with pytest.raises(ConfigurationError,
                           match=r"workload\.mean_holding"):
            _from_json_with(
                lambda p: p["workload"].update(mean_holding=value))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_horizon(self, value):
        with pytest.raises(ConfigurationError, match="horizon"):
            _from_json_with(lambda p: p.update(horizon=value))

    def test_rejects_string_bit_rate(self):
        with pytest.raises(ConfigurationError, match=r"system\.bit_rate"):
            _from_json_with(lambda p: p["system"].update(bit_rate="fast"))

    def test_rejects_failure_without_kind(self):
        with pytest.raises(ConfigurationError,
                           match=r"timeline\.failures\[0\].*'kind'"):
            _from_json_with(
                lambda p: p["timeline"]["failures"][0].pop("kind"))

    def test_rejects_unknown_failure_kind(self):
        with pytest.raises(ConfigurationError,
                           match=r"timeline\.failures\[0\]\.kind"):
            _from_json_with(
                lambda p: p["timeline"]["failures"][0].update(kind="meteor"))

    @pytest.mark.parametrize("path, edit", [
        ("workload.arrival_rate",
         lambda p: p["workload"].update(arrival_rate="fast")),
        ("workload.mean_holding",
         lambda p: p["workload"].update(mean_holding="long")),
        ("workload.n_titles", lambda p: p["workload"].update(n_titles="9")),
        ("workload.popularity.alpha",
         lambda p: p["workload"]["popularity"].update(alpha="steep")),
        ("control.epoch", lambda p: p["control"].update(epoch="hourly")),
        ("placement.decay", lambda p: p["placement"].update(decay="slow")),
        ("dram_budget", lambda p: p.update(dram_budget="50MB")),
        ("horizon", lambda p: p.update(horizon="1h")),
        ("timeline.surges[0].factor", lambda p: p["timeline"].update(
            surges=[{"time": 10.0, "factor": "x2"}])),
    ])
    def test_rejects_strings_naming_the_path(self, path, edit):
        with pytest.raises(ConfigurationError,
                           match=rf"^{re.escape(path)} must be "):
            _from_json_with(edit)

    def test_rejects_a_string_seed(self):
        with pytest.raises(ConfigurationError,
                           match=r"^seed must be an integer"):
            _from_json_with(lambda p: p.update(seed="x"))

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ConfigurationError,
                           match=r"^seed must be >= 0, got -1"):
            _from_json_with(lambda p: p.update(seed=-1))

    def test_rejects_fractional_title_count(self):
        with pytest.raises(ConfigurationError,
                           match=r"^workload\.n_titles must be an integer"):
            _from_json_with(lambda p: p["workload"].update(n_titles=2.5))

    @pytest.mark.parametrize("key", ["replan_latency", "metrics_interval"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_control_times(self, key, value):
        with pytest.raises(ConfigurationError,
                           match=rf"^control\.{key} must be a finite"):
            _from_json_with(lambda p: p["control"].update({key: value}))

    def test_rejects_a_sub_config_that_is_not_an_object(self):
        with pytest.raises(ConfigurationError,
                           match=r"^control must be an object"):
            _from_json_with(lambda p: p.update(control=[1]))

    def test_rejects_a_missing_workload_field(self):
        with pytest.raises(ConfigurationError,
                           match=r"^workload is missing 'arrival_rate'"):
            _from_json_with(lambda p: p["workload"].pop("arrival_rate"))


class TestCompilation:
    @pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
    def test_to_legacy_matches_the_shim_factories(self, name):
        # Every field of the tree must reach the engine's config.
        declarative = build_service_scenario(name, seed=5, horizon=2_500.0)
        compiled = declarative.to_legacy()
        assert compiled.params == declarative.system.to_params()
        assert compiled.configuration == declarative.configuration
        assert compiled.dram_budget == declarative.dram_budget
        assert compiled.horizon == declarative.horizon
        assert compiled.epoch == declarative.control.epoch
        assert (compiled.metrics_interval
                == declarative.control.metrics_interval)
        workload = declarative.workload
        assert (compiled.workload.arrival_rate,
                compiled.workload.mean_holding,
                compiled.workload.n_titles) == (
            workload.arrival_rate, workload.mean_holding, workload.n_titles)
        assert compiled.placement_decay == declarative.placement.decay
        assert compiled.prefix_safety == declarative.placement.prefix_safety
        assert compiled.prefix_floor == declarative.placement.prefix_floor
        assert compiled.batch_window == declarative.placement.batch_window
        timeline = declarative.timeline
        assert compiled.failures == timeline.failures
        assert compiled.drifts == timeline.drifts
        assert compiled.surges == timeline.surges
        assert compiled.focuses == timeline.focuses
        assert compiled.seed == declarative.seed
        assert compiled.session_core == declarative.session_core

    def test_replace_returns_an_updated_copy(self):
        config = _minimal()
        faster = config.replace(horizon=500.0)
        assert faster.horizon == 500.0
        assert config.horizon == 1_000.0
