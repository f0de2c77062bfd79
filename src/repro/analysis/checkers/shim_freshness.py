"""``shim-freshness``: deprecated shims stay pure re-exports.

PR 3's ``no-shim-imports`` polices the *consumer* side of the shim
contract — internal code must import the planner, not the deprecated
``repro.core.capacity`` / ``repro.core.hybrid`` surfaces.  This rule
polices the *definition* side: a shim declared in
``[tool.mems-repro.lint.shims]`` may contain nothing but re-exports.
The day someone adds logic to a shim, the deprecation story is broken
twice over — new behaviour lives at the address we tell people to stop
using, and the planner copy silently diverges from the shim copy.

Allowed statements in a shim module:

* the module docstring;
* ``from __future__ import ...`` and plain imports (the re-exports);
* a literal ``__all__`` list/tuple;
* simple alias bindings of an imported name (``_max_feasible =
  max_feasible_real`` — compat aliases re-point, they don't wrap).

Everything else — function or class definitions, conditionals, calls,
computed values — is a finding pointing at the module named as the
shim's replacement.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from repro.analysis.base import Checker, Finding, ParsedFile, register


def _module_tails(dotted: str) -> list[tuple[str, ...]]:
    """Path tails a dotted module may appear as on disk."""
    parts = dotted.split(".")
    return [(*parts[:-1], parts[-1] + ".py"),
            (*parts[-2:-1], parts[-1] + ".py")] if len(parts) > 1 else \
        [(parts[0] + ".py",)]


@register
class ShimFreshnessChecker(Checker):
    """Flag logic added to modules declared as pure re-export shims."""

    rule = "shim-freshness"
    description = ("modules declared in [tool.mems-repro.lint.shims] "
                   "must stay pure re-exports (no logic)")

    def shim_for(self, path: Path) -> tuple[str, str] | None:
        for shim, replacement in self.config.shims:
            for tail in _module_tails(shim):
                if tuple(path.parts[-len(tail):]) == tail:
                    return shim, replacement
        return None

    def applies_to(self, path: Path) -> bool:
        return self.shim_for(path) is not None

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        path = parsed.path
        shim = self.shim_for(path)
        if shim is None:  # pragma: no cover - applies_to gates this
            return
        shim_name, replacement = shim
        imported: set[str] = set()
        for index, node in enumerate(parsed.tree.body):
            if isinstance(node, ast.Expr) and index == 0 and \
                    isinstance(node.value, ast.Constant) and \
                    isinstance(node.value.value, str):
                continue  # module docstring
            if isinstance(node, ast.Import):
                continue
            if isinstance(node, ast.ImportFrom):
                imported.update(alias.asname or alias.name
                                for alias in node.names)
                continue
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
                if targets == ["__all__"] and \
                        isinstance(node.value, (ast.List, ast.Tuple)):
                    continue
                if targets and len(targets) == len(node.targets) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id in imported:
                    continue  # compat alias re-pointing an import
                yield self.finding(
                    path, node,
                    f"shim {shim_name} must stay a pure re-export of "
                    f"{replacement}; this assignment computes a value "
                    f"instead of aliasing an imported name")
                continue
            kind = type(node).__name__
            label = {"FunctionDef": "function definition",
                     "AsyncFunctionDef": "function definition",
                     "ClassDef": "class definition"}.get(
                kind, f"statement ({kind})")
            yield self.finding(
                path, node,
                f"shim {shim_name} must stay a pure re-export of "
                f"{replacement}; move this {label} into the "
                f"replacement module")
