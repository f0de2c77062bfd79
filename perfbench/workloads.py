"""The four benchmark workloads and the inputs each one generates.

Every runtime workload is a ``mems-repro runtime --config`` JSON built
here from the workload's seed; nothing is read from the program's own
scenario registry, so a change to a named scenario's defaults does not
change what is measured.  Each config names ``"session_core": "table"``
explicitly for the same reason.  ``lint_cold`` lints the checkout's
``src`` tree with no cache and one job; its seed changes nothing.
"""

from __future__ import annotations

import copy

#: Table 2 disk + MEMS G3 system shared by the three runtime workloads.
_SYSTEM = {
    "bit_rate": 500000, "c_dram": 2e-08, "c_mems": 1e-09, "k": 1,
    "l_disk": 0.002844401004161716, "l_mems": 0.00059,
    "r_disk": 300000000, "r_mems": 320000000,
    "size_disk": 1000000000000, "size_mems": 10000000000,
}

_BACKPRESSURE = {"shed_enter": 1.0, "shed_exit": 0.95,
                 "throttle_enter": 0.85, "throttle_exit": 0.7}

_NO_TIMELINE = {"drifts": [], "failures": [], "focuses": [], "surges": []}


def _base(*, configuration: str, horizon: float, epoch: float,
          metrics_interval: float, arrival_rate: float, mean_holding: float,
          n_titles: int, seed: int) -> dict:
    return {
        "schema": 1, "configuration": configuration,
        "dram_budget": 50000000, "horizon": horizon, "seed": seed,
        "device": "G3", "session_core": "table",
        "system": copy.deepcopy(_SYSTEM),
        "workload": {"arrival_rate": arrival_rate,
                     "mean_holding": mean_holding, "n_titles": n_titles,
                     "popularity": {"kind": "zipf", "alpha": 1.0}},
        "control": {"epoch": epoch, "metrics_interval": metrics_interval,
                    "replan_latency": 0.0,
                    "backpressure": dict(_BACKPRESSURE)},
        "placement": {"batch_window": 120.0, "decay": 0.5,
                      "prefix_floor": 1.0, "prefix_safety": 2.0},
        "timeline": copy.deepcopy(_NO_TIMELINE),
    }


def torrent(seed: int) -> dict:
    """steady-disk under a flood of short sessions: ~50k arrivals at
    100/s over 500 s, 0.5 s holding, all admitted (the session-heavy
    path)."""
    return _base(configuration="none", horizon=500.0, epoch=3600.0,
                 metrics_interval=600.0, arrival_rate=100.0,
                 mean_holding=0.5, n_titles=100, seed=seed)


def overload(seed: int) -> dict:
    """The overload scenario re-rated to 40 arrivals/s for 1500 s:
    ~60k arrivals, >99% rejected (the reject path, SHEDDING)."""
    return _base(configuration="none", horizon=1500.0, epoch=3600.0,
                 metrics_interval=600.0, arrival_rate=40.0,
                 mean_holding=600.0, n_titles=100, seed=seed)


_VOD_HORIZON = 36000.0
_VOD_DRIFT_EVERY = 1500
#: The second device loss empties the two-device bank and ends prefix
#: mode (the recovery planner runs).  It falls between replan windows
#: (epochs at multiples of 60 s, each replan 5 s long), so no parked
#: ticket straddles it.
_VOD_COLLAPSE = 34830.0


def vod_replan(seed: int) -> dict:
    """diurnal_drift in prefix mode, tiled over ten simulated hours:
    400 titles, 60 s epochs whose replans take 5 s (arrivals park as
    PENDING tickets), a drift every 1500 s, alternating x2 / x0.5
    surges, one device loss at mid-run and a second that empties the
    bank 20 minutes before the end (the replan-heavy path, then the
    recovery planner)."""
    config = _base(configuration="prefix", horizon=_VOD_HORIZON, epoch=60.0,
                   metrics_interval=120.0, arrival_rate=0.125,
                   mean_holding=1200.0, n_titles=400, seed=seed)
    config["system"].update(k=2, size_disk=200000000000)
    config["control"]["replan_latency"] = 5.0
    ticks = range(_VOD_DRIFT_EVERY, int(_VOD_HORIZON), _VOD_DRIFT_EVERY)
    config["timeline"]["drifts"] = [{"time": float(t), "shift": 100}
                                    for t in ticks]
    config["timeline"]["surges"] = [
        {"time": float(t), "factor": 2.0 if i % 2 == 0 else 0.5}
        for i, t in enumerate(ticks[::2])]
    config["timeline"]["failures"] = [
        {"time": time, "kind": "device_loss", "count": 1, "factor": 1.0}
        for time in (_VOD_HORIZON / 2, _VOD_COLLAPSE)]
    return config


def prefix_collapse_time(config: dict) -> float | None:
    """When device losses leave a prefix-mode run no device (the runtime
    then falls back to direct-disk streams), or None if they never do."""
    lost = 0
    for failure in sorted(config["timeline"]["failures"],
                          key=lambda event: event["time"]):
        if failure["kind"] == "device_loss":
            lost += failure["count"]
            if lost >= config["system"]["k"]:
                return failure["time"]
    return None


#: workload name -> config factory (None: the lint workload).
WORKLOADS = {"torrent": torrent, "overload": overload,
             "vod_replan": vod_replan, "lint_cold": None}
