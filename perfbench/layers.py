"""What the traced run wraps, and what each layer is expected to move.

``LAYERS`` maps a layer name to the functions whose calls are charged to
it.  Each target is ``(module, class or None, name patterns)``; patterns
are :mod:`fnmatch` globs over the class's own attributes (or the
module's globals), so ``"[!_]*"`` means "every public method".  Plain
functions are also rebound in every ``repro`` module that imported
them by name (``from x import f``), so the wrapper is seen wherever the
name is bound.

``LINT_RULES`` lists the per-file checkers; each gets its own
``lint.rule.<id>`` layer around its ``check``.  The four graph rules
only implement ``check_project``, which is charged to ``lint.graph``.

What each layer should move, and where:

- runtime.sessions.*, service.facade, service.events, simulation.engine,
  runtime.runtime, runtime.metrics: arrivals_per_s and wall_s on
  torrent (harvest, departures) and overload (rejects); little on
  vod_replan.
- scheduling.admission: arrivals_per_s and wall_s on overload.
- planner, planner.batch, placement, runtime.failures: wall_s on
  vod_replan only.
- serialize: wall_s and peak_rss_mb on torrent and overload.
- service.config and import: setup_s on every runtime workload.
- lint.*: wall_s and arrivals_per_s on lint_cold only; no other layer
  moves lint_cold.
"""

from __future__ import annotations

LAYERS: dict[str, list[tuple[str, str | None, list[str]]]] = {
    "service.config": [
        ("repro.service.config", "RuntimeConfig", ["from_json"])],
    "service.facade": [
        ("repro.service.facade", "MediaService",
         ["admit", "admit_block", "teardown", "reconfigure", "on_epoch",
          "inject_failure", "finalize"])],
    "service.events": [
        ("repro.service.events", "EventBus", ["publish"])],
    "simulation.engine": [
        ("repro.simulation.engine", "Simulator", ["run"])],
    "runtime.runtime": [
        ("repro.runtime.runtime", "ServerRuntime",
         ["handle_arrival", "handle_arrival_block", "close_session", "sync",
          "run_epoch", "seal_metrics", "apply_failure"])],
    "runtime.sessions.sampler": [
        ("repro.runtime.sessions", "SessionSampler", ["next_*"])],
    "runtime.sessions.table": [
        ("repro.runtime.sessions", "SessionTable", ["[!_]*"])],
    "scheduling.admission": [
        ("repro.scheduling.admission", "AdmissionController",
         ["try_admit", "release", "reconfigure", "capacity"])],
    "planner": [
        ("repro.planner.solver", "Planner",
         ["plan", "max_streams", "capacity"])],
    "planner.batch": [
        ("repro.planner.batch", None,
         ["demand_at", "demand_curve", "batch_max_streams"])],
    "placement": [
        ("repro.runtime.placement", "AdaptivePlacement", ["replan"]),
        ("repro.vod.placement", "PrefixPlacement", ["replan"])],
    "runtime.failures": [
        ("repro.runtime.failures", None, ["plan_recovery"])],
    "runtime.metrics": [
        ("repro.runtime.metrics", "MetricsLog", ["[!_]*"])],
    "serialize": [
        ("repro.runtime.runtime", "RuntimeResult", ["to_json"])],
    "lint.parse": [("ast", None, ["parse"])],
    "lint.source_segment": [("ast", None, ["get_source_segment"])],
    "lint.summary": [
        ("repro.analysis.project", None, ["summarize_module"])],
    "lint.graph": [
        ("repro.analysis.project", None, ["build_graph"])],
}

#: Per-file lint rules, each traced as ``lint.rule.<id>``.
LINT_RULES = ("determinism", "exception-hygiene", "float-equality",
              "no-bare-assert", "no-shim-imports", "unit-literals")

#: Every traced layer, in report order.
ALL_LAYERS = tuple(LAYERS) + tuple(f"lint.rule.{rule}" for rule in LINT_RULES)

#: Modules the traced child imports before it installs the wrappers.
TRACED_MODULES = tuple(sorted(
    {module for targets in LAYERS.values() for module, _, _ in targets}
    | {"repro.analysis.engine", "repro.analysis.checkers",
       "repro.service.traffic", "repro.experiments.cli"}))
