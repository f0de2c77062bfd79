"""``determinism``: the seed guarantee of the stochastic layers.

The runtime promises that a fixed seed reproduces a run byte-for-byte
(``docs/RUNTIME.md``), and every simulation/workload entry point takes
a ``seed``.  That only holds while *all* randomness flows through an
injected ``numpy.random.Generator`` and nothing reads the wall clock.
This rule bans, inside the scope declared by
``[tool.mems-repro.lint.scopes.determinism]`` — the stochastic layers
``simulation/``, ``runtime/``, ``workloads/``, ``perf/``, ``vod/``,
``service/`` plus the file-scoped ``planner/incremental.py`` (whose
warm-start replay must be bit-reproducible):

* wall-clock reads (``time.time()``, ``time.monotonic()``,
  ``datetime.now()``, ...) — simulated time comes from the event
  engine.  The one sanctioned read is the bench timer helper in
  ``perf/bench.py``, which carries a reviewed inline suppression;
* the :mod:`random` module's global functions (seeded or not — the
  global state is shared across callers and not part of any run's
  seed);
* :mod:`numpy.random` *module-level* state (``np.random.seed``,
  ``np.random.rand``, ...).  Constructing generators
  (``np.random.default_rng(seed)``) and naming types
  (``np.random.Generator``) is fine — that is the sanctioned idiom;
* process-pool construction (``ProcessPoolExecutor``,
  ``multiprocessing.Pool``, thread pools) — fan-out must go through
  :func:`repro.perf.parallel.sweep_map`, whose items carry explicit
  seeds and whose ordered gathering keeps results byte-identical to a
  serial run.  ``parallel.py``'s own pool carries the reviewed
  suppression.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import Checker, Finding, ParsedFile, register

#: Fully-qualified callables that read the wall clock.
WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: numpy.random attributes that do NOT touch global RNG state.
NUMPY_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})

#: Pool constructors whose scheduling is nondeterministic; fan-out in
#: the seeded layers must go through repro.perf.parallel.sweep_map.
POOL_CONSTRUCTORS = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.pool.ThreadPool",
    "multiprocessing.dummy.Pool",
})


def _dotted(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]`` (None for non-name chains)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def _import_aliases(nodes: tuple[ast.AST, ...]) -> dict[str, str]:
    """Local name -> canonical dotted prefix, from the file's imports.

    Imports are applied in source order (a later rebinding wins), the
    order a depth-first visit of the module meets them in.
    """
    imports = sorted((node for node in nodes
                      if isinstance(node, (ast.Import, ast.ImportFrom))),
                     key=lambda node: (node.lineno, node.col_offset))
    aliases: dict[str, str] = {}
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
        elif node.module is not None and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


@register
class DeterminismChecker(Checker):
    """Flag wall-clock reads and global-RNG use in the seeded layers."""

    rule = "determinism"
    description = ("no wall clocks or global RNG state in the seeded "
                   "layers (scoped via config); inject a seeded Generator")

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        path = parsed.path
        aliases = _import_aliases(parsed.nodes)
        for node in parsed.nodes:
            if not isinstance(node, ast.Call):
                continue
            parts = _dotted(node.func)
            if parts is None:
                continue
            head = aliases.get(parts[0])
            if head is None:
                continue
            full = ".".join([head, *parts[1:]])
            if full in WALL_CLOCK:
                yield self.finding(
                    path, node,
                    f"{full}() reads the wall clock; simulated time comes "
                    f"from the event engine (Simulator.now)")
            elif full in POOL_CONSTRUCTORS:
                yield self.finding(
                    path, node,
                    f"{full}() builds an ad-hoc worker pool; fan out "
                    f"through repro.perf.parallel.sweep_map (explicit "
                    f"per-item seeds, ordered gathering)")
            elif full == "random" or full.startswith("random."):
                yield self.finding(
                    path, node,
                    f"{full}() uses the random module's global state; "
                    f"inject a seeded numpy Generator instead")
            elif full.startswith("numpy.random."):
                attr = full.removeprefix("numpy.random.").split(".")[0]
                if attr not in NUMPY_RANDOM_ALLOWED:
                    yield self.finding(
                        path, node,
                        f"numpy.random.{attr} mutates/reads numpy's global "
                        f"RNG; use numpy.random.default_rng(seed)")
