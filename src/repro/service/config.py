"""The declarative runtime configuration tree.

One frozen, validated dataclass tree replaces the constructor-argument
sprawl that used to configure a run — ``SystemParameters`` fields here,
``SessionWorkload`` knobs there, prefix sizing on the legacy
``RuntimeConfig``, event tuples built by hand in ``scenarios.py``.
Everything a :class:`~repro.service.facade.MediaService` needs is one
:class:`RuntimeConfig` that

* validates eagerly (every sub-config checks its own bounds),
* serialises losslessly to/from JSON (``mems-repro runtime --config``
  accepts the file; ``--emit-config`` writes one for any named
  scenario, so users fork scenarios declaratively),
* compiles, one way, to the imperative config the engine runs on
  (:meth:`RuntimeConfig.to_legacy`); the golden scenario digests rely
  on that compilation reproducing the pre-refactor configs bit for bit.

The shape follows the jeeves ``ExecutionConfig`` exemplar (SNIPPETS.md
snippet 2): bounds, timeouts, seeds and feature flags grouped into
purpose-named sub-configs rather than one flat namespace.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real

from repro.core.parameters import SystemParameters
from repro.core.popularity import (
    BimodalPopularity,
    PopularityDistribution,
    UniformPopularity,
    ZipfPopularity,
)
from repro.errors import ConfigurationError
from repro.runtime.failures import FailureEvent, FailureKind
from repro.runtime.runtime import (
    DriftEvent,
    FocusEvent,
    RuntimeConfig as LegacyRuntimeConfig,
    SurgeEvent,
)
from repro.runtime.sessions import SessionWorkload
from repro.service.backpressure import BackpressureConfig

#: Serialisation format version of the config JSON.
CONFIG_SCHEMA_VERSION = 1

#: Named MEMS devices a config may reference.
_DEVICES = ("G3",)


#: Scalar kinds of the typed pass over a config payload (each is the
#: phrase its error message uses).
_NUMBER = "a finite number"
_OPTIONAL_NUMBER = "a finite number or null"
_INTEGER = "an integer"
_TEXT = "a string"

_SYSTEM_TYPES = {name: _NUMBER for name in (
    "bit_rate", "r_disk", "r_mems", "l_disk", "l_mems", "c_dram", "c_mems")}
_SYSTEM_TYPES.update(k=_INTEGER, size_mems=_OPTIONAL_NUMBER,
                     size_disk=_OPTIONAL_NUMBER)

#: The type of every field of a config payload, keyed like the JSON.  A
#: nested dict is a sub-object; a one-element list is a list of objects
#: of that shape.  Keys a payload omits are skipped (defaults apply).
_PAYLOAD_TYPES: dict = {
    "configuration": _TEXT, "device": _TEXT, "session_core": _TEXT,
    "dram_budget": _NUMBER, "horizon": _NUMBER, "seed": _INTEGER,
    "system": _SYSTEM_TYPES,
    "workload": {
        "arrival_rate": _NUMBER, "mean_holding": _NUMBER,
        "n_titles": _INTEGER,
        "popularity": {"kind": _TEXT, "alpha": _OPTIONAL_NUMBER,
                       "x_percent": _OPTIONAL_NUMBER,
                       "y_percent": _OPTIONAL_NUMBER}},
    "control": {
        "epoch": _NUMBER, "metrics_interval": _NUMBER,
        "replan_latency": _NUMBER,
        "backpressure": {name: _NUMBER for name in (
            "throttle_enter", "throttle_exit", "shed_enter", "shed_exit")}},
    "placement": {name: _NUMBER for name in (
        "decay", "prefix_safety", "prefix_floor", "batch_window")},
    "timeline": {
        "failures": [{"time": _NUMBER, "kind": _TEXT, "count": _INTEGER,
                      "factor": _NUMBER}],
        "drifts": [{"time": _NUMBER, "shift": _INTEGER}],
        "surges": [{"time": _NUMBER, "factor": _NUMBER}],
        "focuses": [{"time": _NUMBER, "title": _INTEGER,
                     "weight": _NUMBER}]},
}


def _has_kind(value: object, kind: str) -> bool:
    if kind == _TEXT:
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    if kind == _INTEGER:
        return isinstance(value, Integral)
    if value is None:
        return kind == _OPTIONAL_NUMBER
    return isinstance(value, Real) and math.isfinite(value)


def _check_types(payload: dict, types: dict, *, where: str = "") -> None:
    """The typed pass: every present field has its declared kind.

    Raises a :class:`ConfigurationError` naming the JSON path of the
    first offending field (``workload.n_titles``,
    ``timeline.surges[0].factor``), so no malformed value reaches a
    constructor, numpy or the event engine.
    """
    for key, kind in types.items():
        if key not in payload:
            continue
        value = payload[key]
        path = f"{where}.{key}" if where else key
        if isinstance(kind, dict):
            if not isinstance(value, dict):
                raise ConfigurationError(
                    f"{path} must be an object, got {type(value).__name__}")
            _check_types(value, kind, where=path)
        elif isinstance(kind, list):
            if not isinstance(value, list):
                raise ConfigurationError(
                    f"{path} must be a list, got {type(value).__name__}")
            for index, entry in enumerate(value):
                entry_path = f"{path}[{index}]"
                if not isinstance(entry, dict):
                    raise ConfigurationError(
                        f"{entry_path} must be an object, got "
                        f"{type(entry).__name__}")
                _check_types(entry, kind[0], where=entry_path)
        elif not _has_kind(value, kind):
            raise ConfigurationError(f"{path} must be {kind}, got {value!r}")


def _require_keys(payload: dict, known: set[str], *, where: str) -> None:
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"known: {sorted(known)}")


def _require_present(payload: dict, cls: type, *, where: str) -> None:
    """Every field of dataclass ``cls`` without a default is in ``payload``."""
    for spec in dataclasses.fields(cls):
        if (spec.default is dataclasses.MISSING
                and spec.default_factory is dataclasses.MISSING
                and spec.name not in payload):
            raise ConfigurationError(f"{where} is missing {spec.name!r}")


def _require_finite_positive(value: float, *, where: str) -> None:
    """``0 < value < inf``; NaN fails every comparison, so it fails too."""
    if not 0 < value < float("inf"):
        raise ConfigurationError(
            f"{where} must be finite and > 0, got {value!r}")


def _require_entries(payload: dict, name: str,
                     required: tuple[str, ...]) -> list[dict]:
    """The ``timeline.<name>`` list, each entry (an object, by the typed
    pass) with every ``required`` key."""
    entries = list(payload.get(name, ()))
    for index, entry in enumerate(entries):
        for key in required:
            if key not in entry:
                raise ConfigurationError(
                    f"timeline.{name}[{index}] is missing {key!r}")
    return entries


def _failure_kind(value: object, *, where: str) -> FailureKind:
    try:
        return FailureKind(value)
    except ValueError:
        known = [kind.value for kind in FailureKind]
        raise ConfigurationError(
            f"{where} must be one of {known}, got {value!r}") from None


@dataclass(frozen=True)
class SystemConfig:
    """The analytical model's inputs (Table 2), declaratively.

    Field for field a :class:`~repro.core.parameters.SystemParameters`
    minus the per-run stream population (the runtime always starts one
    at ``n_streams=0`` and the demand model varies it).
    """

    bit_rate: float
    r_disk: float
    r_mems: float
    l_disk: float
    l_mems: float
    k: int = 1
    c_dram: float = 0.0
    c_mems: float = 0.0
    size_mems: float | None = None
    size_disk: float | None = None

    def __post_init__(self) -> None:
        self.to_params()  # SystemParameters carries the bound checks

    @classmethod
    def from_params(cls, params: SystemParameters) -> "SystemConfig":
        return cls(bit_rate=params.bit_rate, r_disk=params.r_disk,
                   r_mems=params.r_mems, l_disk=params.l_disk,
                   l_mems=params.l_mems, k=params.k, c_dram=params.c_dram,
                   c_mems=params.c_mems, size_mems=params.size_mems,
                   size_disk=params.size_disk)

    def to_params(self, *, n_streams: float = 1.0) -> SystemParameters:
        return SystemParameters(
            n_streams=n_streams, bit_rate=self.bit_rate, r_disk=self.r_disk,
            r_mems=self.r_mems, l_disk=self.l_disk, l_mems=self.l_mems,
            k=self.k, c_dram=self.c_dram, c_mems=self.c_mems,
            size_mems=self.size_mems, size_disk=self.size_disk)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemConfig":
        _require_keys(payload, {f.name for f in dataclasses.fields(cls)},
                      where="system")
        _require_present(payload, cls, where="system")
        return cls(**payload)


@dataclass(frozen=True)
class PopularityConfig:
    """A named popularity distribution (``zipf``/``bimodal``/``uniform``)."""

    kind: str
    alpha: float | None = None
    x_percent: float | None = None
    y_percent: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("zipf", "bimodal", "uniform"):
            raise ConfigurationError(
                f"popularity kind must be 'zipf', 'bimodal' or 'uniform', "
                f"got {self.kind!r}")
        if self.kind == "zipf" and self.alpha is None:
            raise ConfigurationError("zipf popularity needs alpha")
        if self.kind == "bimodal" and (self.x_percent is None
                                       or self.y_percent is None):
            raise ConfigurationError(
                "bimodal popularity needs x_percent and y_percent")

    def to_distribution(self, n_titles: int) -> PopularityDistribution:
        if self.kind == "zipf":
            return ZipfPopularity(alpha=self.alpha, n_titles=n_titles)
        if self.kind == "bimodal":
            return BimodalPopularity(x_percent=self.x_percent,
                                     y_percent=self.y_percent)
        return UniformPopularity()

    def to_dict(self) -> dict:
        payload = {"kind": self.kind}
        for name in ("alpha", "x_percent", "y_percent"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PopularityConfig":
        _require_keys(payload, {f.name for f in dataclasses.fields(cls)},
                      where="workload.popularity")
        _require_present(payload, cls, where="workload.popularity")
        return cls(**payload)


@dataclass(frozen=True)
class WorkloadConfig:
    """The stochastic session generator, declaratively."""

    arrival_rate: float
    mean_holding: float
    n_titles: int
    popularity: PopularityConfig

    def __post_init__(self) -> None:
        _require_finite_positive(self.arrival_rate,
                                 where="workload.arrival_rate")
        _require_finite_positive(self.mean_holding,
                                 where="workload.mean_holding")
        if self.n_titles < 1:
            raise ConfigurationError(
                f"n_titles must be >= 1, got {self.n_titles!r}")

    def to_workload(self) -> SessionWorkload:
        return SessionWorkload(
            arrival_rate=self.arrival_rate, mean_holding=self.mean_holding,
            n_titles=self.n_titles,
            popularity=self.popularity.to_distribution(self.n_titles))

    def to_dict(self) -> dict:
        return {"arrival_rate": self.arrival_rate,
                "mean_holding": self.mean_holding,
                "n_titles": self.n_titles,
                "popularity": self.popularity.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadConfig":
        _require_keys(payload, {f.name for f in dataclasses.fields(cls)},
                      where="workload")
        _require_present(payload, cls, where="workload")
        payload = dict(payload)
        payload["popularity"] = PopularityConfig.from_dict(
            payload["popularity"])
        return cls(**payload)


@dataclass(frozen=True)
class PlacementConfig:
    """Adaptive placement / prefix-cache knobs."""

    decay: float = 0.5
    prefix_safety: float = 2.0
    prefix_floor: float = 1.0
    batch_window: float = 120.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.decay < 1.0:
            raise ConfigurationError(
                f"decay must be in [0, 1), got {self.decay!r}")
        if self.prefix_safety <= 0:
            raise ConfigurationError(
                f"prefix_safety must be > 0, got {self.prefix_safety!r}")
        if self.prefix_floor < 0:
            raise ConfigurationError(
                f"prefix_floor must be >= 0, got {self.prefix_floor!r}")
        if self.batch_window <= 0:
            raise ConfigurationError(
                f"batch_window must be > 0, got {self.batch_window!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PlacementConfig":
        _require_keys(payload, {f.name for f in dataclasses.fields(cls)},
                      where="placement")
        return cls(**payload)


@dataclass(frozen=True)
class ControlConfig:
    """Control-plane timing, bounds and feature flags.

    ``replan_latency`` is the simulated seconds an epoch replan spends
    *off the request path*: 0 keeps replans synchronous (the legacy
    semantics every named scenario uses), a positive value opens the
    window in which ``admit`` returns PENDING tickets that the
    replan-done event finalizes.
    """

    epoch: float = 600.0
    metrics_interval: float = 60.0
    replan_latency: float = 0.0
    backpressure: BackpressureConfig = field(
        default_factory=BackpressureConfig)

    def __post_init__(self) -> None:
        _require_finite_positive(self.epoch, where="control.epoch")
        _require_finite_positive(self.metrics_interval,
                                 where="control.metrics_interval")
        if not 0 <= self.replan_latency < float("inf"):
            raise ConfigurationError(
                f"control.replan_latency must be finite and >= 0, got "
                f"{self.replan_latency!r}")
        if self.replan_latency >= self.epoch:
            raise ConfigurationError(
                f"replan_latency must be < epoch, got "
                f"{self.replan_latency!r} >= {self.epoch!r}")

    def to_dict(self) -> dict:
        return {"epoch": self.epoch,
                "metrics_interval": self.metrics_interval,
                "replan_latency": self.replan_latency,
                "backpressure": dataclasses.asdict(self.backpressure)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ControlConfig":
        _require_keys(payload, {f.name for f in dataclasses.fields(cls)},
                      where="control")
        payload = dict(payload)
        if "backpressure" in payload:
            bp = payload["backpressure"]
            _require_keys(
                bp, {f.name for f in dataclasses.fields(BackpressureConfig)},
                where="control.backpressure")
            payload["backpressure"] = BackpressureConfig(**bp)
        return cls(**payload)


@dataclass(frozen=True)
class TimelineConfig:
    """Scheduled mid-run happenings: faults, drift, surges, focuses."""

    failures: tuple[FailureEvent, ...] = ()
    drifts: tuple[DriftEvent, ...] = ()
    surges: tuple[SurgeEvent, ...] = ()
    focuses: tuple[FocusEvent, ...] = ()

    def to_dict(self) -> dict:
        return {
            "failures": [
                {"time": f.time, "kind": f.kind.value, "count": f.count,
                 "factor": f.factor} for f in self.failures],
            "drifts": [{"time": d.time, "shift": d.shift}
                       for d in self.drifts],
            "surges": [{"time": s.time, "factor": s.factor}
                       for s in self.surges],
            "focuses": [{"time": f.time, "title": f.title,
                         "weight": f.weight} for f in self.focuses],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TimelineConfig":
        _require_keys(payload, {"failures", "drifts", "surges", "focuses"},
                      where="timeline")
        failures = tuple(
            FailureEvent(time=f["time"],
                         kind=_failure_kind(
                             f["kind"],
                             where=f"timeline.failures[{index}].kind"),
                         count=f.get("count", 1), factor=f.get("factor", 1.0))
            for index, f in enumerate(
                _require_entries(payload, "failures", ("time", "kind"))))
        drifts = tuple(
            DriftEvent(time=d["time"], shift=d["shift"])
            for d in _require_entries(payload, "drifts", ("time", "shift")))
        surges = tuple(
            SurgeEvent(time=s["time"], factor=s["factor"])
            for s in _require_entries(payload, "surges", ("time", "factor")))
        focuses = tuple(
            FocusEvent(time=f["time"], title=f["title"], weight=f["weight"])
            for f in _require_entries(payload, "focuses",
                                      ("time", "title", "weight")))
        return cls(failures=failures, drifts=drifts, surges=surges,
                   focuses=focuses)


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything one service run needs, declaratively.

    The root of the tree; see the module docstring.  ``configuration``
    picks the serving mode ("none"/"buffer"/"cache"/"prefix"),
    ``device`` names the MEMS model from the catalog, and the
    sub-configs carry the rest.
    """

    configuration: str
    dram_budget: float
    horizon: float
    system: SystemConfig
    workload: WorkloadConfig
    control: ControlConfig = field(default_factory=ControlConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    timeline: TimelineConfig = field(default_factory=TimelineConfig)
    device: str = "G3"
    seed: int = 0
    #: Session bookkeeping core ("objects" or "table"); see the legacy
    #: config's field of the same name.  Both cores produce the same
    #: metrics/events bytes, so this is purely a speed knob.
    session_core: str = "objects"

    def __post_init__(self) -> None:
        if self.session_core not in ("objects", "table"):
            raise ConfigurationError(
                f"session_core must be 'objects' or 'table', "
                f"got {self.session_core!r}")
        if self.configuration not in ("none", "buffer", "cache", "prefix"):
            raise ConfigurationError(
                f"configuration must be 'none', 'buffer', 'cache' or "
                f"'prefix', got {self.configuration!r}")
        if self.dram_budget < 0:
            raise ConfigurationError(
                f"dram_budget must be >= 0, got {self.dram_budget!r}")
        _require_finite_positive(self.horizon, where="horizon")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed!r}")
        if self.device not in _DEVICES:
            raise ConfigurationError(
                f"unknown device {self.device!r}; available: "
                f"{', '.join(_DEVICES)}")

    # -- Compilation to the imperative layer -----------------------------

    def to_legacy(self) -> LegacyRuntimeConfig:
        """Compile to the engine's imperative config (exact)."""
        from repro.devices.catalog import MEMS_G3

        return LegacyRuntimeConfig(
            params=self.system.to_params(),
            dram_budget=self.dram_budget,
            workload=self.workload.to_workload(),
            horizon=self.horizon,
            epoch=self.control.epoch,
            metrics_interval=self.control.metrics_interval,
            configuration=self.configuration,
            device=MEMS_G3,
            placement_decay=self.placement.decay,
            failures=self.timeline.failures,
            drifts=self.timeline.drifts,
            surges=self.timeline.surges,
            focuses=self.timeline.focuses,
            prefix_safety=self.placement.prefix_safety,
            prefix_floor=self.placement.prefix_floor,
            batch_window=self.placement.batch_window,
            seed=self.seed,
            session_core=self.session_core)

    # -- Serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        payload = {
            "schema": CONFIG_SCHEMA_VERSION,
            "configuration": self.configuration,
            "dram_budget": self.dram_budget,
            "horizon": self.horizon,
            "seed": self.seed,
            "device": self.device,
            "system": self.system.to_dict(),
            "workload": self.workload.to_dict(),
            "control": self.control.to_dict(),
            "placement": self.placement.to_dict(),
            "timeline": self.timeline.to_dict(),
        }
        # Emitted only when set, so existing config files stay stable.
        if self.session_core != "objects":
            payload["session_core"] = self.session_core
        return payload

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "RuntimeConfig":
        if payload.get("schema") != CONFIG_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported config schema {payload.get('schema')!r}; "
                f"expected {CONFIG_SCHEMA_VERSION}")
        known = {"schema", "configuration", "dram_budget", "horizon",
                 "seed", "device", "system", "workload", "control",
                 "placement", "timeline", "session_core"}
        _require_keys(payload, known, where="runtime config")
        _require_present(payload, cls, where="runtime config")
        _check_types(payload, _PAYLOAD_TYPES)
        return cls(
            configuration=payload["configuration"],
            dram_budget=payload["dram_budget"],
            horizon=payload["horizon"],
            seed=payload.get("seed", 0),
            device=payload.get("device", "G3"),
            system=SystemConfig.from_dict(payload["system"]),
            workload=WorkloadConfig.from_dict(payload["workload"]),
            control=ControlConfig.from_dict(payload.get("control", {})),
            placement=PlacementConfig.from_dict(payload.get("placement", {})),
            timeline=TimelineConfig.from_dict(payload.get("timeline", {})),
            session_core=payload.get("session_core", "objects"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RuntimeConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"runtime config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"runtime config must be a JSON object, got "
                f"{type(payload).__name__}")
        return cls.from_dict(payload)

    def replace(self, **changes: object) -> "RuntimeConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)
