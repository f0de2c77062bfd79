"""``no-shim-imports``: internal code uses the planner, not its shims.

PR 2 collapsed the duplicated capacity/hybrid solvers into the unified
planning layer; :mod:`repro.core.capacity` and :mod:`repro.core.hybrid`
remain only as deprecated re-export shims for external callers.  An
*internal* import through a shim re-entangles the layers the refactor
separated (and silently bypasses any future shim deprecation warning),
so library modules must import the planner API from
:mod:`repro.planner` (:mod:`~repro.planner.throughput`,
:mod:`~repro.planner.hybrid`) instead.  The shim modules themselves are
exempt — re-exporting is their job.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import Checker, Finding, ParsedFile, register


def _shim_of(shims: dict[str, str], module: str) -> str | None:
    for shim in shims:
        if module == shim or module.startswith(shim + "."):
            return shim
    return None


@register
class NoShimImportsChecker(Checker):
    """Flag imports of the deprecated ``core.capacity``/``core.hybrid``.

    The shim map (and the shim files' own exemption) comes from
    ``[tool.mems-repro.lint.shims]`` — the same declaration the
    ``shim-freshness`` rule enforces on the definition side.
    """

    rule = "no-shim-imports"
    description = ("import the planner API from repro.planner, not the "
                   "deprecated core.capacity / core.hybrid shims")

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        path = parsed.path
        shims = self.config.shim_map()
        parents = {shim.rpartition(".")[0] for shim in shims if "." in shim}
        for node in parsed.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    shim = _shim_of(shims, alias.name)
                    if shim is not None:
                        yield self.finding(
                            path, node,
                            f"import of deprecated shim {shim}; use "
                            f"{shims[shim]}")
            elif isinstance(node, ast.ImportFrom) and node.module:
                shim = _shim_of(shims, node.module)
                if shim is not None:
                    yield self.finding(
                        path, node,
                        f"import from deprecated shim {shim}; use "
                        f"{shims[shim]}")
                elif node.module in parents:
                    for alias in node.names:
                        shim = _shim_of(shims, f"{node.module}.{alias.name}")
                        if shim is not None:
                            yield self.finding(
                                path, node,
                                f"import of deprecated shim module "
                                f"{alias.name!r} from {node.module}; use "
                                f"{shims[shim]}")
