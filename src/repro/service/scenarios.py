"""The nine named scenarios: the one scenario registry.

Each factory returns a frozen :class:`~repro.service.config.RuntimeConfig`
tree, so any scenario serialises to JSON via ``mems-repro runtime
--emit-config`` and compiles to the engine's config with
``.to_legacy()``.  Same name + seed + horizon => identical run
(admissions, migrations, drops and metrics all derive from seeded
generators).  :func:`require_known_scenario` is the one place an
unknown scenario name turns into an error; :func:`run_scenario` and
:func:`run_scenario_batch` run scenarios on the engine's batch loop
for the CLI and the benchmarks.

The content library is modelled as 100 equal-sized titles on a 200 GB
slice of the disk, so the ``k = 2`` G3 bank caches the top 5-10% of the
catalogue depending on policy — enough for the adaptive placement to
matter without trivialising the disk path.

The VoD prefix-mode scenarios use *underscored* names (``flash_crowd``,
``diurnal_drift``, ``long_tail``); the older hyphenated ``flash-crowd``
is a plain-disk rate surge and coexists — they answer different
questions (loss-system blocking vs. multicast fan-out economics).
``overload`` is a plain-disk run offered ~3x its admission capacity,
the regime where the backpressure governor lives in ``SHEDDING`` and
the service facade's explicit states earn their keep.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.parameters import SystemParameters
from repro.errors import ConfigurationError
from repro.runtime.failures import FailureEvent, FailureKind
from repro.runtime.runtime import (
    DriftEvent,
    FocusEvent,
    RuntimeResult,
    SurgeEvent,
    run_runtime,
)
from repro.service.config import (
    ControlConfig,
    PopularityConfig,
    RuntimeConfig,
    SystemConfig,
    TimelineConfig,
    WorkloadConfig,
)
from repro.units import GB, KB, MB

#: Library size: 100 titles on a 200 GB disk slice (see module docstring).
_N_TITLES = 100
_LIBRARY_BYTES = 200 * GB
_BIT_RATE = 500 * KB


def _disk_system() -> SystemConfig:
    return SystemConfig.from_params(SystemParameters.table3_default(
        n_streams=1, bit_rate=_BIT_RATE, k=1))


def _cache_system() -> SystemConfig:
    return SystemConfig.from_params(SystemParameters.table3_default(
        n_streams=1, bit_rate=_BIT_RATE, k=2).replace(
            size_disk=_LIBRARY_BYTES))


def _zipf() -> PopularityConfig:
    return PopularityConfig(kind="zipf", alpha=1.0)


def _disk_workload(arrival_rate: float) -> WorkloadConfig:
    return WorkloadConfig(arrival_rate=arrival_rate, mean_holding=600.0,
                          n_titles=_N_TITLES, popularity=_zipf())


def _cache_workload(arrival_rate: float,
                    n_titles: int = _N_TITLES,
                    alpha: float = 1.0) -> WorkloadConfig:
    return WorkloadConfig(arrival_rate=arrival_rate, mean_holding=1_200.0,
                          n_titles=n_titles,
                          popularity=PopularityConfig(kind="zipf",
                                                      alpha=alpha))


_SLOW_CONTROL = ControlConfig(epoch=3_600.0, metrics_interval=600.0)
_FAST_CONTROL = ControlConfig(epoch=300.0, metrics_interval=120.0)


def steady_disk(*, seed: int = 0,
                horizon: float = 30_000.0) -> RuntimeConfig:
    """Plain disk-to-DRAM loss system near its admission limit.

    Fixed capacity, no adaptation — the run that validates the
    empirical blocking probability against Erlang-B.
    """
    return RuntimeConfig(
        configuration="none", dram_budget=50 * MB, horizon=horizon,
        system=_disk_system(), workload=_disk_workload(160 / 600.0),
        control=_SLOW_CONTROL, seed=seed)


def adaptive_cache(*, seed: int = 0,
                   horizon: float = 6_000.0) -> RuntimeConfig:
    """MEMS cache chasing a drifting Zipf popularity.

    The title ranking rotates twice mid-run; each epoch the placement
    re-ranks from observed admissions and migrates the cached set.
    """
    return RuntimeConfig(
        configuration="cache", dram_budget=50 * MB, horizon=horizon,
        system=_cache_system(), workload=_cache_workload(150 / 1_200.0),
        control=_FAST_CONTROL,
        timeline=TimelineConfig(
            drifts=(DriftEvent(time=horizon / 3, shift=25),
                    DriftEvent(time=2 * horizon / 3, shift=25))),
        seed=seed)


def device_failure(*, seed: int = 0,
                   horizon: float = 6_000.0) -> RuntimeConfig:
    """A MEMS device dies mid-run; the server re-plans degraded.

    The bank halves at the midpoint: the runtime recomputes a feasible
    configuration (smaller cache, or a fallback path), sheds sessions
    it can no longer carry, and keeps serving the rest.  The DRAM
    budget is deliberately tight so the run sits near capacity and the
    failure is consequential.
    """
    return RuntimeConfig(
        configuration="cache", dram_budget=10 * MB, horizon=horizon,
        system=_cache_system(), workload=_cache_workload(170 / 1_200.0),
        control=_FAST_CONTROL,
        timeline=TimelineConfig(
            failures=(FailureEvent(time=horizon / 2,
                                   kind=FailureKind.DEVICE_LOSS,
                                   count=1),)),
        seed=seed)


def degraded_bandwidth(*, seed: int = 0,
                       horizon: float = 6_000.0) -> RuntimeConfig:
    """Both MEMS devices throttle to 40% media rate mid-run."""
    return RuntimeConfig(
        configuration="cache", dram_budget=50 * MB, horizon=horizon,
        system=_cache_system(), workload=_cache_workload(150 / 1_200.0),
        control=_FAST_CONTROL,
        timeline=TimelineConfig(
            failures=(FailureEvent(time=horizon / 2,
                                   kind=FailureKind.BANDWIDTH_DEGRADE,
                                   factor=0.4),)),
        seed=seed)


def flash_crowd(*, seed: int = 0,
                horizon: float = 30_000.0) -> RuntimeConfig:
    """Arrival rate surges 2.5x through the middle third of the run."""
    return RuntimeConfig(
        configuration="none", dram_budget=50 * MB, horizon=horizon,
        system=_disk_system(), workload=_disk_workload(120 / 600.0),
        control=_SLOW_CONTROL,
        timeline=TimelineConfig(
            surges=(SurgeEvent(time=horizon / 3, factor=2.5),
                    SurgeEvent(time=2 * horizon / 3, factor=1.0))),
        seed=seed)


def overload(*, seed: int = 0, horizon: float = 30_000.0) -> RuntimeConfig:
    """Plain disk offered ~3x its admission capacity, start to finish.

    The saturation run: blocking dominates, the load fraction pins
    above 1, and the backpressure governor spends the run in
    ``SHEDDING`` — the scenario that exercises the service facade's
    explicit backpressure states rather than the happy path.
    """
    return RuntimeConfig(
        configuration="none", dram_budget=50 * MB, horizon=horizon,
        system=_disk_system(), workload=_disk_workload(480 / 600.0),
        control=_SLOW_CONTROL, seed=seed)


def vod_flash_crowd(*, seed: int = 0,
                    horizon: float = 6_000.0) -> RuntimeConfig:
    """A focused flash crowd hits the prefix-cached VoD server.

    Through the middle third the arrival rate jumps 6x *and* 70% of
    all arrivals collapse onto one title: the regime multicast batching
    exists for.  With the title's prefix resident, same-title arrivals
    inside the batching window join the open IO stream, so admitted
    sessions grow far past the IO-stream capacity that gates a
    whole-stream cache at the same MEMS/DRAM budgets — the fan-out
    economics the ``flash_crowd`` benchmark gate records.
    """
    return RuntimeConfig(
        configuration="prefix", dram_budget=50 * MB, horizon=horizon,
        system=_cache_system(), workload=_cache_workload(150 / 1_200.0),
        control=_FAST_CONTROL,
        timeline=TimelineConfig(
            surges=(SurgeEvent(time=horizon / 3, factor=6.0),
                    SurgeEvent(time=2 * horizon / 3, factor=1.0)),
            focuses=(FocusEvent(time=horizon / 3, title=7, weight=0.7),
                     FocusEvent(time=2 * horizon / 3, title=7,
                                weight=0.0))),
        seed=seed)


def vod_diurnal_drift(*, seed: int = 0,
                      horizon: float = 6_000.0) -> RuntimeConfig:
    """A day/night cycle over a 400-title catalogue in prefix mode.

    Four times the catalogue size of the cache scenarios, so the bank
    cannot hold every prefix and the adaptive replacement must chase
    the head as the ranking rotates each quarter; the rate doubles for
    the "evening" and halves for the "night".
    """
    return RuntimeConfig(
        configuration="prefix", dram_budget=50 * MB, horizon=horizon,
        system=_cache_system(),
        workload=_cache_workload(150 / 1_200.0, n_titles=4 * _N_TITLES),
        control=_FAST_CONTROL,
        timeline=TimelineConfig(
            drifts=(DriftEvent(time=horizon / 4, shift=100),
                    DriftEvent(time=horizon / 2, shift=100),
                    DriftEvent(time=3 * horizon / 4, shift=100)),
            surges=(SurgeEvent(time=horizon / 4, factor=2.0),
                    SurgeEvent(time=3 * horizon / 4, factor=0.5))),
        seed=seed)


def vod_long_tail(*, seed: int = 0,
                  horizon: float = 6_000.0) -> RuntimeConfig:
    """Weakly skewed 400-title catalogue: the prefix cache's worst case.

    With ``alpha = 0.4`` the head carries little probability mass, so
    resident prefixes buy few batched joins and the tail-disk load
    stays high — the contrast run for ``flash_crowd``.
    """
    return RuntimeConfig(
        configuration="prefix", dram_budget=50 * MB, horizon=horizon,
        system=_cache_system(),
        workload=_cache_workload(150 / 1_200.0, n_titles=4 * _N_TITLES,
                                 alpha=0.4),
        control=_FAST_CONTROL, seed=seed)


#: Canonical scenario registry (name -> declarative config factory).
SERVICE_SCENARIOS: dict[str, Callable[..., RuntimeConfig]] = {
    "steady-disk": steady_disk,
    "adaptive-cache": adaptive_cache,
    "device-failure": device_failure,
    "degraded-bandwidth": degraded_bandwidth,
    "flash-crowd": flash_crowd,
    "overload": overload,
    "flash_crowd": vod_flash_crowd,
    "diurnal_drift": vod_diurnal_drift,
    "long_tail": vod_long_tail,
}


def require_known_scenario(name: str) -> Callable[..., RuntimeConfig]:
    """Look up a scenario factory; THE canonical unknown-name error.

    Every surface that takes a scenario name — the CLI's ``runtime``
    subcommand, ``--emit-config``, :func:`run_scenario_batch` — routes
    through here, so the error text (and the list of names in it) has
    exactly one home.
    """
    try:
        return SERVICE_SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(SERVICE_SCENARIOS)}") from None


def build_service_scenario(name: str, *, seed: int = 0,
                           horizon: float | None = None) -> RuntimeConfig:
    """Instantiate a named scenario's declarative configuration."""
    factory = require_known_scenario(name)
    if horizon is None:
        return factory(seed=seed)
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon!r}")
    return factory(seed=seed, horizon=horizon)


def run_scenario(name: str, *, seed: int = 0,
                 horizon: float | None = None) -> RuntimeResult:
    """Build and run a named scenario on the engine's batch loop."""
    return run_runtime(build_service_scenario(
        name, seed=seed, horizon=horizon).to_legacy())


def _run_scenario_item(
        item: tuple[str, int, float | None]) -> RuntimeResult:
    """Worker: one named scenario (picklable; seed rides in the item)."""
    name, seed, horizon = item
    return run_scenario(name, seed=seed, horizon=horizon)


def run_scenario_batch(names: list[str] | None = None, *, seed: int = 0,
                       horizon: float | None = None,
                       jobs: int = 1) -> dict[str, RuntimeResult]:
    """Run several scenarios (default: all), optionally in parallel.

    Each scenario builds its own private planner and seeded generators
    from ``(name, seed, horizon)``, so fanning out over processes via
    :func:`repro.perf.parallel.sweep_map` returns exactly the results a
    serial loop would.
    """
    from repro.perf.parallel import sweep_map

    selected = list(SERVICE_SCENARIOS) if names is None else list(names)
    for name in selected:
        require_known_scenario(name)
    items = [(name, seed, horizon) for name in selected]
    results = sweep_map(_run_scenario_item, items, jobs=jobs)
    return dict(zip(selected, results))
