"""Run the ``mems-repro`` CLI in this process, optionally traced.

Usage::

    python3 perfbench/trace_child.py {plain,trace} OUT_PREFIX -- CLI ARGS...

Both modes import the CLI and every traced module first, then time
``repro.experiments.cli.main(CLI ARGS)`` as the run phase and write
``OUT_PREFIX.json`` (run-phase seconds, admission outcomes).
``trace`` mode first wraps the functions listed in ``layers.py``; each
call records a span (site, parent span, start ns, end ns) into flat
arrays that are written as ``OUT_PREFIX.{site,parent,start,end}`` when
the run ends.  Span 0 is the whole run phase.  The program's own files
are never modified: the wrappers are installed on the imported objects.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LAYERS, LINT_RULES, TRACED_MODULES  # noqa: E402


class Tracer:
    """Span recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self.sites: list[str] = ["run"]
        self.site_layers: list[str] = ["run"]
        self.site = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.admitted = 0
        self.admit_calls = 0

    def add_site(self, layer: str, name: str) -> int:
        self.sites.append(name)
        self.site_layers.append(layer)
        return len(self.sites) - 1

    def open(self, site_id: int) -> int:
        index = len(self.site)
        self.site.append(site_id)
        self.parent.append(self.stack[-1])
        self.start.append(0)
        self.end.append(0)
        self.stack.append(index)
        self.start[index] = time.perf_counter_ns()
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, func, layer: str, name: str, *, materialize: bool = False,
             count_admits: bool = False):
        site_id = self.add_site(layer, name)
        tracer_open, tracer_close = self.open, self.close

        def traced(*args, **kwargs):
            index = tracer_open(site_id)
            try:
                result = func(*args, **kwargs)
                if materialize and inspect.isgenerator(result):
                    result = list(result)
                return result
            finally:
                tracer_close(index)

        if count_admits:
            def traced_admit(*args, **kwargs):
                decision = traced(*args, **kwargs)
                self.admit_calls += 1
                self.admitted += bool(decision.admitted)
                return decision

            return traced_admit
        return traced

    def write(self, prefix: str) -> None:
        for field in ("site", "parent", "start", "end"):
            with open(f"{prefix}.{field}", "wb") as handle:
                getattr(self, field).tofile(handle)
        with open(f"{prefix}.sites.json", "w", encoding="utf-8") as handle:
            json.dump({"sites": self.sites, "layers": self.site_layers},
                      handle)


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (names imported with ``from ... import``)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_attr(tracer: Tracer, owner, attr: str, layer: str, label: str,
               **options) -> None:
    raw = vars(owner)[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(tracer.wrap(raw.__func__, layer, label, **options))
    elif inspect.isfunction(raw):
        wrapped = tracer.wrap(raw, layer, label, **options)
    else:
        return  # properties and data attributes are not calls
    setattr(owner, attr, wrapped)
    if inspect.ismodule(owner):
        _rebind(raw, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every target of ``layers.LAYERS`` plus the lint checkers."""
    for layer, targets in LAYERS.items():
        for module_name, class_name, patterns in targets:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module,
                                                              class_name)
            names = sorted(name for name in vars(owner)
                           if any(fnmatch.fnmatchcase(name, pattern)
                                  for pattern in patterns))
            if not names:
                raise SystemExit(f"trace: nothing matches {targets!r}")
            for name in names:
                label = f"{class_name or module_name}.{name}"
                _wrap_attr(tracer, owner, name, layer, label,
                           count_admits=(class_name == "AdmissionController"
                                         and name == "try_admit"))
    from repro.analysis.base import all_rules

    for rule, checker in all_rules().items():
        own = vars(checker)
        if "check" in own:
            layer = (f"lint.rule.{rule}" if rule in LINT_RULES
                     else "lint.rule.other")
            _wrap_attr(tracer, checker, "check", layer,
                       f"{checker.__name__}.check", materialize=True)
        if "check_project" in own:
            _wrap_attr(tracer, checker, "check_project", "lint.graph",
                       f"{checker.__name__}.check_project", materialize=True)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("plain", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, prefix, cli_args = argv[0], argv[1], argv[3:]
    for module_name in TRACED_MODULES:
        importlib.import_module(module_name)
    from repro.experiments import cli

    tracer = Tracer()
    if mode == "trace":
        install(tracer)
        root = tracer.open(0)
    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        run_phase = time.perf_counter() - t0
        if mode == "trace":
            tracer.close(root)
            tracer.write(prefix)
        with open(f"{prefix}.json", "w", encoding="utf-8") as handle:
            json.dump({"run_phase_s": run_phase,
                       "admit_calls": tracer.admit_calls,
                       "admitted": tracer.admitted}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
