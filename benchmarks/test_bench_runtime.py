"""Online-runtime benchmarks: event throughput and steady-state memory.

The runtime is the first subsystem whose cost scales with *traffic*
rather than with a figure's sweep grid, so these benchmarks pin down
the two numbers an operator sizes by: how many calendar events per
second one core sustains, and how much memory a long run accumulates
(the audit log and metrics snapshots are the only unbounded state).
"""

import tracemalloc

from repro.runtime import run_runtime
from repro.service.scenarios import build_service_scenario

#: ~10k sessions: 160/600 arrivals/s over 40k simulated seconds.
_HORIZON = 40_000.0


def _ten_k_session_config(seed: int = 0):
    return build_service_scenario("steady-disk", seed=seed,
                                  horizon=_HORIZON).to_legacy()


def test_bench_runtime_event_throughput(benchmark):
    def run():
        return run_runtime(_ten_k_session_config())

    result = benchmark(run)
    assert result.totals["arrivals"] >= 10_000
    if benchmark.stats:  # absent under --benchmark-disable
        events_per_second = result.events_executed / benchmark.stats["mean"]
        benchmark.extra_info["events_per_second"] = round(events_per_second)
        benchmark.extra_info["sim_events"] = result.events_executed
        # One core should clear tens of thousands of calendar events/sec.
        assert events_per_second > 10_000


def test_bench_runtime_steady_state_memory():
    tracemalloc.start()
    try:
        result = run_runtime(_ten_k_session_config())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.totals["arrivals"] >= 10_000
    peak_mb = peak / 1e6
    print(f"\n10k-session run: peak {peak_mb:.1f} MB, "
          f"{len(result.events)} audit events, "
          f"{len(result.metrics.snapshots)} snapshots")
    # The audit log dominates; 10k sessions must stay well under 100 MB.
    assert peak_mb < 100


def test_bench_adaptive_cache_epoch_cost(benchmark):
    # One config replays: the engine drifts its own workload copy.
    config = build_service_scenario("adaptive-cache", seed=0).to_legacy()

    def run():
        return run_runtime(config)

    result = benchmark(run)
    assert result.totals["replans"] > 0
    assert result.horizon == config.horizon
