"""End-to-end and per-layer benchmark of the ``mems-repro`` user path.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload torrent --seed 1 --seconds 20 --trace 0

Each operation is one fresh child process running the real CLI:
``python -m repro.experiments.cli runtime --config CFG --json OUT`` on a
config generated from the seed (``workloads.py``), or
``lint --no-cache --jobs 1 src lint-probe`` for ``lint_cold``, where
``lint-probe`` is a generated file with one violation of each per-file
rule, so a run proves that the rules ran.  Children run one at
a time with single-threaded BLAS and a fixed ``PYTHONHASHSEED``; their
configs, outputs and byte-code live in a temporary directory under
``.perfbench-tmp/`` that is removed at exit, so nothing else is written
into the checkout.

``--trace 0`` alternates set-up probes (the same command with a
near-zero ``--horizon``, or ``lint --list-rules``) with full runs for
``--seconds`` and reports medians of ``wall_s``, ``setup_s``,
``arrivals_per_s`` (arrivals, or linted files, per second of work after
set-up) and ``peak_rss_mb``.  The host's speed drifts by tens of percent
from minute to minute on a shared machine, so each full run is bracketed
by runs of ``calibrate.py``, a fixed piece of interpreter work, and the
times are reported in reference-host seconds: each round's times are
multiplied by ``NOMINAL_CALIBRATION_S`` over the mean of the round's two
calibration times before the medians are taken.  The unscaled medians
are printed on stderr (``perfbench-raw``).

``--trace 1`` runs ``trace_child.py`` in pairs: once plain and once with
wrappers around every layer of ``layers.py``; it reports per-layer calls,
self time and cost per arrival, deterministic counts and the tracing
overhead (traced / plain run-phase wall).

Every run is checked: exit code, the conservation invariants of the
metrics JSON, and a digest of the deterministic output (the JSON without
``summary.events_executed``) that must agree across the runs of a seed,
between traced and plain runs, and with ``reference.json`` for the
recorded seed.  ``lint_cold`` must report no finding in ``src`` and
exactly one per per-file rule in the probe.  The last stdout
line is the result JSON; details go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

from layers import ALL_LAYERS, LINT_RULES  # noqa: E402
from workloads import WORKLOADS, prefix_collapse_time  # noqa: E402

#: Each child is killed after this long and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Full runs per invocation, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Near-zero horizon of a runtime set-up probe (simulated seconds).
SETUP_HORIZON = "0.001"
#: Wall time of ``calibrate.py`` on the reference host.  Reported times
#: are scaled by this over the calibration time around their round.
NOMINAL_CALIBRATION_S = 1.0

#: The lint probe, relative to the child's working directory.  It sits
#: under a ``service/`` directory so every path-scoped rule applies.
LINT_PROBE_DIR = "lint-probe"
LINT_PROBE_FILE = "lint-probe/service/probe.py"
#: One violation of each per-file rule in ``layers.LINT_RULES``.
LINT_PROBE = '''"""Lint probe: one violation of each per-file rule."""
import random

from repro.core.capacity import streams_supported

BINARY_KB = 1024
SAME = 0.5 == 0.5


def probe(value):
    assert value is not None
    if value < 0:
        raise ValueError("negative")
    return random.random(), streams_supported
'''

_EVENTS_EXECUTED = re.compile(rb'^ *"events_executed": \d+,?\n', re.M)


class CheckFailed(Exception):
    """A run's output broke an invariant or a digest."""


@dataclass
class Outcome:
    """What one checked run produced."""

    digest: str
    fingerprint: dict[str, int]
    work: int  # arrivals, or linted files
    details: dict = field(default_factory=dict)


@dataclass
class Counter:
    """Operations attempted and failed in one invocation."""

    attempted: int = 0
    failed: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {message}", file=sys.stderr)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# -- Children ----------------------------------------------------------------

def child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    # Byte-code goes to the run's own cache, warmed before timing starts.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(tmp / "pycache"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(argv: list[str], *, tmp: Path, stdout: Path
          ) -> tuple[int, float, float]:
    """Run one child to completion; return (exit code, wall s, peak RSS MB).

    The wall clock runs from just before the spawn until the child has
    exited, so it includes interpreter start-up and teardown.
    """
    with open(stdout, "wb") as out, open(tmp / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=tmp,
                                env=child_env(tmp), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _stderr_tail(tmp: Path) -> str:
    text = (tmp / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    return " | ".join(text.strip().splitlines()[-3:])


# -- Workload plumbing -------------------------------------------------------

class Workload:
    """Commands and output checks for one workload at one seed."""

    def __init__(self, name: str, seed: int, tmp: Path) -> None:
        self.name = name
        self.seed = seed
        self.tmp = tmp
        make_config = WORKLOADS[name]
        self.config = None if make_config is None else make_config(seed)
        self.config_path = tmp / "config.json"
        if self.config is not None:
            self.config_path.write_text(json.dumps(self.config, indent=2),
                                        encoding="utf-8")
        else:
            probe_file = tmp / LINT_PROBE_FILE
            probe_file.parent.mkdir(parents=True)
            probe_file.write_text(LINT_PROBE, encoding="utf-8")

    @property
    def is_lint(self) -> bool:
        return self.config is None

    def cli_args(self, out: Path, *, setup: bool) -> list[str]:
        if self.is_lint:
            if setup:
                return ["lint", "--list-rules"]
            return ["lint", "--no-cache", "--jobs", "1", "--json", str(SRC),
                    LINT_PROBE_DIR]
        args = ["runtime", "--config", str(self.config_path),
                "--seed", str(self.seed), "--json", str(out)]
        if setup:
            args += ["--horizon", SETUP_HORIZON]
        return args

    @property
    def full_exit_code(self) -> int:
        """Exit code of a correct full run: lint exits 1 on the probe's
        findings."""
        return 1 if self.is_lint else 0

    def output_path(self, stem: str) -> tuple[Path, Path]:
        """(stdout file, metrics/report file) for a run named ``stem``."""
        stdout = self.tmp / f"{stem}.stdout"
        return stdout, (stdout if self.is_lint else self.tmp / f"{stem}.json")

    def check(self, report: Path) -> Outcome:
        """Validate one full run's output; raise CheckFailed if broken."""
        raw = report.read_bytes()
        if self.is_lint:
            return self._check_lint(raw)
        return self._check_runtime(raw)

    def _check_lint(self, raw: bytes) -> Outcome:
        payload = json.loads(raw)
        findings = payload["findings"]
        outside = [f for f in findings if f["path"] != LINT_PROBE_FILE]
        if outside:
            raise CheckFailed(f"lint reported {len(outside)} finding(s) in "
                              f"src, first {outside[0]}")
        rules = sorted(f["rule"] for f in findings)
        if rules != sorted(LINT_RULES) or payload["count"] != len(rules):
            raise CheckFailed(f"lint probe findings {rules}, expected one "
                              f"of each of {sorted(LINT_RULES)}")
        files = sum(1 for _ in SRC.rglob("*.py")) + 1  # and the probe
        return Outcome(digest=hashlib.sha256(raw).hexdigest(),
                       fingerprint={"lint.files": files,
                                    "lint.findings": len(outside)},
                       work=files, details={"bytes": len(raw)})

    def _check_runtime(self, raw: bytes) -> Outcome:
        payload = json.loads(raw)
        summary = payload["summary"]
        totals = summary["totals"]
        arrivals, admits = totals["arrivals"], totals["admits"]
        rejects, departures = totals["rejects"], totals["departures"]
        drops = totals["drops"]
        if arrivals != admits + rejects:
            raise CheckFailed(f"arrivals {arrivals} != admits {admits} + "
                              f"rejects {rejects}")
        if admits - departures - drops < 0:
            raise CheckFailed(f"admits {admits} - departures {departures} - "
                              f"drops {drops} < 0")
        if self.config["configuration"] == "prefix":
            # Admits after the bank is lost are direct-disk streams.
            collapse = prefix_collapse_time(self.config)
            prefix_admits = admits if collapse is None else sum(
                1 for event in payload["events"]
                if event["kind"] == "admit" and event["time"] < collapse)
            if prefix_admits != (totals["streams_opened"]
                                 + totals["batched_joins"]):
                raise CheckFailed(
                    f"prefix admits {prefix_admits} != streams_opened "
                    f"{totals['streams_opened']} + batched_joins "
                    f"{totals['batched_joins']}")
        if arrivals < 1:
            raise CheckFailed("the run saw no arrivals")
        stripped, found = _EVENTS_EXECUTED.subn(b"", raw)
        if found != 1:
            raise CheckFailed(f"expected one events_executed line, got {found}")
        cache = summary["planner_cache"]
        fingerprint = {
            "sim.arrivals": arrivals, "sim.admits": admits,
            "sim.rejects": rejects, "sim.drops": drops,
            "planner.probes": cache["probes_cold"] + cache["probes_warm"],
            "placement.migrations": (totals["migrations_in"]
                                     + totals["migrations_out"]),
        }
        lookups = cache["hits"] + cache["misses"]
        return Outcome(
            digest=hashlib.sha256(stripped).hexdigest(),
            fingerprint=fingerprint, work=arrivals,
            details={"bytes": len(raw),
                     "cache_hit_ratio": cache["hits"] / lookups if lookups
                     else 0.0,
                     "batched_join_ratio": totals["batched_joins"] / admits
                     if admits else 0.0})


class Checker:
    """Holds the first outcome of a seed and compares the rest to it."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.first: Outcome | None = None
        reference = json.loads((HERE / "reference.json").read_text(
            encoding="utf-8")).get(workload.name)
        self.reference = (reference if reference is not None
                          and reference["seed"] == workload.seed else None)

    def agree(self, outcome: Outcome) -> None:
        if self.first is None:
            self.first = outcome
        elif outcome.digest != self.first.digest:
            raise CheckFailed("digest differs between runs of one seed")
        elif outcome.fingerprint != self.first.fingerprint:
            raise CheckFailed("fingerprint differs between runs of one seed")
        if (self.reference is not None
                and outcome.digest != self.reference["digest"]):
            raise CheckFailed("digest differs from reference.json")


def run_checked(counter: Counter, checker: Checker, argv: list[str],
                report: Path, stdout: Path, tmp: Path
                ) -> tuple[float, float, Outcome] | None:
    """Spawn one full run and check it; None (and a failure) if broken."""
    counter.attempted += 1
    code, wall, rss = spawn(argv, tmp=tmp, stdout=stdout)
    if code != checker.workload.full_exit_code:
        counter.fail(f"exit {code}: {_stderr_tail(tmp)}")
        return None
    try:
        outcome = checker.workload.check(report)
        checker.agree(outcome)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        counter.fail(f"check: {exc!r}")
        return None
    return wall, rss, outcome


def probe(counter: Counter, argv: list[str], stdout: Path, tmp: Path
          ) -> float | None:
    """Spawn one set-up probe; its wall time, or None on failure."""
    counter.attempted += 1
    code, wall, _ = spawn(argv, tmp=tmp, stdout=stdout)
    if code != 0:
        counter.fail(f"set-up probe exit {code}: {_stderr_tail(tmp)}")
        return None
    return wall


# -- Untraced: end-to-end metrics -------------------------------------------

CLI = ["-m", "repro.experiments.cli"]


def measure_end_to_end(workload: Workload, seconds: float,
                       counter: Counter) -> tuple[dict, Outcome, dict] | None:
    tmp = workload.tmp
    checker = Checker(workload)
    setup_out, setup_report = workload.output_path("setup")
    full_out, full_report = workload.output_path("full")
    setup_argv = CLI + workload.cli_args(setup_report, setup=True)
    full_argv = CLI + workload.cli_args(full_report, setup=False)
    calibrate_argv = [str(HERE / "calibrate.py")]

    def calibrate() -> float | None:
        return probe(counter, calibrate_argv, tmp / "calibrate.stdout", tmp)

    # Warm-up: fills the byte-code caches; not measured.
    if probe(counter, setup_argv, setup_out, tmp) is None:
        return None
    before = calibrate()
    # One round: a set-up probe, a full run, a calibration.  Each round is
    # scaled by the mean of the calibrations on either side of it, which
    # follows the host's speed more closely than a whole-run median does.
    rounds: list[tuple[float, float, float, float, Outcome]] = []
    start = time.perf_counter()
    attempts = 0
    while True:
        round_start = time.perf_counter()
        setup = probe(counter, setup_argv, setup_out, tmp)
        result = run_checked(counter, checker, full_argv, full_report,
                             full_out, tmp)
        after = calibrate()
        attempts += 1
        if None not in (setup, result, before, after):
            wall, rss, outcome = result
            scale = NOMINAL_CALIBRATION_S / ((before + after) / 2)
            rounds.append((scale, setup, wall, rss, outcome))
        before = after
        now = time.perf_counter()
        if counter.failed > attempts * 3 // 2:
            break  # most operations fail: stop early
        if (attempts >= MIN_ROUNDS
                and now - start + (now - round_start) > seconds):
            break
    if not rounds:
        return None
    setups = [setup * scale for scale, setup, _, _, _ in rounds]
    setup_s = statistics.median(setups)
    walls = [wall * scale for scale, _, wall, _, _ in rounds]
    rates = [outcome.work / (wall - setup_s)
             for wall, (_, _, _, _, outcome) in zip(walls, rounds)
             if wall > setup_s]
    if not rates:
        counter.fail("every full run was faster than set-up")
        return None
    raw = {"wall_s": statistics.median(wall for _, _, wall, _, _ in rounds),
           "setup_s": statistics.median(setup for _, setup, *_ in rounds),
           "calibration_s": statistics.median(
               NOMINAL_CALIBRATION_S / scale for scale, *_ in rounds)}
    log(f"{workload.name} seed {workload.seed}: {len(rounds)} rounds, "
        f"scaled walls {[round(w, 4) for w in walls]}, scales "
        f"{[round(scale, 4) for scale, *_ in rounds]}")
    print("perfbench-raw " + json.dumps(raw), file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "arrivals_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (statistics.median(rss for _, _, _, rss, _ in rounds),
                        "MB"),
    }
    return metrics, checker.first, {}


# -- Traced: per-layer metrics -----------------------------------------------

def span_profile(prefix: Path) -> tuple[dict[str, tuple[int, float]],
                                        dict[str, tuple[int, float]], int]:
    """(per-layer, per-site) ``(calls, self seconds)`` of one traced run,
    plus the span count."""
    meta = json.loads(Path(f"{prefix}.sites.json").read_text(encoding="utf-8"))
    site = np.fromfile(f"{prefix}.site", dtype=np.int32)
    parent = np.fromfile(f"{prefix}.parent", dtype=np.int32)
    duration = (np.fromfile(f"{prefix}.end", dtype=np.int64)
                - np.fromfile(f"{prefix}.start", dtype=np.int64))
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent],
                           weights=duration[has_parent].astype(np.float64),
                           minlength=len(site))
    self_ns = duration - children
    n_sites = len(meta["sites"])
    calls = np.bincount(site, minlength=n_sites)
    site_self = np.bincount(site, weights=self_ns, minlength=n_sites) / 1e9
    per_site: dict[str, tuple[int, float]] = {}
    per_layer: dict[str, tuple[int, float]] = {}
    for index, (name, layer) in enumerate(zip(meta["sites"], meta["layers"])):
        per_site[name] = (int(calls[index]), float(site_self[index]))
        old_calls, old_self = per_layer.get(layer, (0, 0.0))
        per_layer[layer] = (old_calls + int(calls[index]),
                            old_self + float(site_self[index]))
    return per_layer, per_site, len(site)


def measure_layers(workload: Workload, seconds: float, counter: Counter
                   ) -> tuple[dict, Outcome, dict] | None:
    tmp = workload.tmp
    checker = Checker(workload)
    child = [str(HERE / "trace_child.py")]
    _, setup_report = workload.output_path("setup")
    warm_argv = child + ["plain", str(tmp / "warm-trace"), "--"] + \
        workload.cli_args(setup_report, setup=True)
    if probe(counter, warm_argv, tmp / "warm.stdout", tmp) is None:
        return None
    plain_phases: list[float] = []
    traced_phases: list[float] = []
    layer_runs: list[dict[str, tuple[int, float]]] = []
    start = time.perf_counter()
    outcome = traced_timing = site_profile = None
    n_spans = 0
    while True:
        pair_start = time.perf_counter()
        for mode in ("plain", "trace"):
            prefix = tmp / f"{mode}-trace"
            stdout, report = workload.output_path(mode)
            argv = child + [mode, str(prefix), "--"] + \
                workload.cli_args(report, setup=False)
            result = run_checked(counter, checker, argv, report, stdout, tmp)
            if result is None:
                return None
            _, _, outcome = result
            timing = json.loads(Path(f"{prefix}.json").read_text(
                encoding="utf-8"))
            if mode == "plain":
                plain_phases.append(timing["run_phase_s"])
                continue
            traced_phases.append(timing["run_phase_s"])
            traced_timing = timing
            per_layer, site_profile, n_spans = span_profile(prefix)
            layer_runs.append(per_layer)
            if ({k: n for k, (n, _) in per_layer.items()}
                    != {k: n for k, (n, _) in layer_runs[0].items()}):
                counter.fail("traced call counts differ between runs")
                return None
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    last = layer_runs[-1]
    calls = {layer: last.get(layer, (0, 0.0))[0] for layer in ALL_LAYERS}
    self_s = {layer: statistics.median(run.get(layer, (0, 0.0))[1]
                                       for run in layer_runs)
              for layer in ALL_LAYERS}
    fp = outcome.fingerprint
    work = outcome.work
    trace_counts = {
        "service.events.published": calls["service.events"],
        "runtime.sessions.table.harvest_calls":
            site_profile.get("SessionTable.harvest", (0, 0.0))[0],
    }
    if workload.is_lint and calls["lint.parse"] != fp["lint.files"]:
        counter.fail(f"lint parsed {calls['lint.parse']} files, src and "
                     f"the probe have {fp['lint.files']}")
        return None
    traced = statistics.median(traced_phases)
    plain = statistics.median(plain_phases)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in ALL_LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.ns_per_arrival"] = (self_s[layer] * 1e9 / work,
                                              "ns")
    admit_calls = traced_timing["admit_calls"]
    ratio = traced_timing["admitted"] / admit_calls if admit_calls else 0.0
    metrics.update({
        "sim.arrivals": (fp.get("sim.arrivals", 0), "count"),
        "sim.admits": (fp.get("sim.admits", 0), "count"),
        "sim.rejects": (fp.get("sim.rejects", 0), "count"),
        "sim.drops": (fp.get("sim.drops", 0), "count"),
        "scheduling.admission.admit_ratio": (ratio, "ratio"),
        "planner.cache_hit_ratio": (
            outcome.details.get("cache_hit_ratio", 0.0), "ratio"),
        "planner.probes": (fp.get("planner.probes", 0), "count"),
        "placement.migrations": (fp.get("placement.migrations", 0), "count"),
        "vod.batched_join_ratio": (
            outcome.details.get("batched_join_ratio", 0.0), "ratio"),
        "service.events.published": (
            trace_counts["service.events.published"], "count"),
        "runtime.sessions.table.harvest_calls": (
            trace_counts["runtime.sessions.table.harvest_calls"], "count"),
        "serialize.bytes": (outcome.details["bytes"], "bytes"),
        "lint.files": (fp.get("lint.files", 0), "count"),
        "lint.findings": (fp.get("lint.findings", 0), "count"),
        "trace.spans": (n_spans, "count"),
        "trace.run_phase_s": (traced, "s"),
        "trace.plain_run_phase_s": (plain, "s"),
        "trace.overhead_ratio": (traced / plain, "ratio"),
    })
    log(f"{workload.name} seed {workload.seed}: {len(layer_runs)} traced "
        f"pair(s), run phase plain {plain:.4f}s traced {traced:.4f}s")
    for name, (n, seconds_self) in sorted(site_profile.items(),
                                          key=lambda item: -item[1][1]):
        if n:
            log(f"  {name:<44} {n:>9} calls {seconds_self:10.4f}s self "
                f"({seconds_self / traced:6.1%})")
    return metrics, outcome, trace_counts


# -- Entry point -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "experiments" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    counter = Counter()
    try:
        workload = Workload(args.workload, args.seed, tmp)
        if args.trace:
            measured = measure_layers(workload, args.seconds, counter)
        else:
            measured = measure_end_to_end(workload, args.seconds, counter)
        metrics = None
        if measured is not None:
            metrics, outcome, trace_counts = measured
            print("perfbench-fingerprint " + json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "digest": outcome.digest,
                 "fingerprint": dict(outcome.fingerprint, **trace_counts)},
                sort_keys=True), file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    if metrics is None:
        print(f"perfbench: no result ({counter.failed} of "
              f"{counter.attempted} operations failed)", file=sys.stderr)
        return 1
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if counter.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
