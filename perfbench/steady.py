"""Steadiness check and reference recording for ``run.py``.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --seeds 1-10 --sets 2
    python3 perfbench/steady.py --write-reference

The first form runs every workload once per seed (untraced), per set.
For each end-to-end metric it prints the spread of the per-run values
(distance between the first and third quartile over the median) next to
the metric's bound from ``BENCHMARK.json``, and compares the medians of
the sets.  Every deterministic fingerprint of a seed must repeat exactly
across sets; the exit code is 1 if one does not, or if a spread or a
median shift exceeds its bound.

``--write-reference`` runs each workload traced at the default seed and
records its output digest in ``reference.json``; do it only for a
deliberate change of the program's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int
             ) -> tuple[dict, dict]:
    """One ``run.py`` invocation: (result JSON, fingerprint line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    fingerprint, raw = {}, {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench-fingerprint "):
            fingerprint = json.loads(line.split(" ", 1)[1])
        elif line.startswith("perfbench-raw "):
            raw = json.loads(line.split(" ", 1)[1])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["raw"] = raw
    return result, fingerprint


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def write_reference(manifest: dict, seconds: int) -> int:
    reference = {}
    for workload in manifest["workloads"]:
        name = workload["name"]
        result, line = run_once(name, 0, seconds, trace=1)
        if not result["correct"]:
            sys.exit(f"{name}: traced run not correct")
        reference[name] = {"seed": 0, "digest": line["digest"]}
        print(f"{name}: {line['digest'][:16]} {line['fingerprint']}")
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    seconds = manifest["run_seconds"]
    if args.write_reference:
        return write_reference(manifest, seconds)
    names = [w["name"] for w in manifest["workloads"]]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in manifest["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    runs: dict[tuple[int, str, int], tuple[dict, dict]] = {}
    for set_index in range(args.sets):
        for seed in seeds:
            for name in names:
                result, line = run_once(name, seed, seconds, trace=0)
                runs[set_index, name, seed] = result, line
                values = {k: round(v["value"], 4)
                          for k, v in result["metrics"].items()}
                print(f"set {set_index} {name} seed {seed}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"{values}", flush=True)
    ok = True
    for name in names:
        for metric, bound in bounds.items():
            medians = []
            for set_index in range(args.sets):
                values = [runs[set_index, name, seed][0]["metrics"][metric]
                          ["value"] for seed in seeds]
                medians.append(statistics.median(values))
                width = spread(values) if len(values) > 1 else 0.0
                flag = "" if width <= bound / 3 else "  <-- over bound/3"
                raw = [runs[set_index, name, seed][0]["raw"].get(metric)
                       for seed in seeds]
                if len(raw) > 1 and None not in raw:
                    flag += f"  (unscaled spread {spread(raw):.4f})"
                ok &= width <= bound
                print(f"{name:>10} {metric:>15} set {set_index}: median "
                      f"{medians[-1]:.4f} spread {width:.4f} "
                      f"(bound {bound}){flag}")
            for later in medians[1:]:
                shift = ((later - medians[0]) / medians[0]
                         * (1 if lower_is_better[metric] else -1))
                if shift > bound:
                    ok = False
                    print(f"{name:>10} {metric:>15} median worse by "
                          f"{shift:.4f} > {bound}")
    for name in names:
        for seed in seeds:
            prints = {json.dumps(runs[s, name, seed][1], sort_keys=True)
                      for s in range(args.sets)}
            if len(prints) != 1:
                ok = False
                print(f"{name} seed {seed}: fingerprints differ: {prints}")
    failed = sum(result["failed"] for result, _ in runs.values())
    print(f"{len(runs)} runs, {failed} failed operations; "
          f"{'steady' if ok and not failed else 'NOT steady'}")
    return 0 if ok and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
