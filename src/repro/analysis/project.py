"""Whole-program import graph and symbol table.

The per-file checkers see one module at a time; the graph rules
(``layer-boundaries``, ``dead-export``, ``event-contract``) need the
*relationships* between modules.  This module condenses each parsed
file into a :class:`ModuleSummary` — a small, JSON-serializable record
of what the module imports, defines, references, and exports — and
assembles the summaries into a :class:`ProjectGraph` the graph
checkers query.

Summaries are deliberately lossy (no expression trees, no scopes):
they keep exactly the facts the graph rules consume, which keeps them
cheap to cache (the incremental cache stores the summary next to the
file's findings, so a warm run rebuilds the whole-program graph
without re-parsing a single unchanged file) and cheap to ship across
the ``sweep_map`` process pool.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.analysis.config import ROOT_LAYER, LintConfig

#: Bump when the summary shape changes (invalidates cached entries).
SUMMARY_VERSION = 1

#: String constants longer than this are not indexed (the contract
#: checkers match metric/event identifiers, not prose).
_MAX_INDEXED_STRING = 80


@dataclass(frozen=True)
class ModuleSummary:
    """What one module contributes to the whole-program graph."""

    #: Dotted module name (``repro.core.capacity``).
    module: str
    #: Path string as analyzed (findings anchor here).
    path: str
    is_package: bool = False
    #: Absolute ``(target_module, symbol_or_None, line)`` imports;
    #: ``symbol`` is None for ``import x`` and set for ``from x import y``.
    imports: tuple[tuple[str, str | None, int], ...] = ()
    #: ``(target_module, line)`` for ``from x import *``.
    star_imports: tuple[tuple[str, int], ...] = ()
    #: Top-level bindings: ``(name, line, kind, decorated)`` with kind
    #: one of ``def`` / ``class`` / ``assign``.
    defs: tuple[tuple[str, int, str, bool], ...] = ()
    #: Top-level classes with their (alias-resolved) base names.
    class_bases: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: Statically-resolvable ``__all__`` (None when absent/dynamic).
    all_names: tuple[str, ...] | None = None
    #: Names read anywhere in the module (Load context).
    used_names: tuple[str, ...] = ()
    #: Alias-resolved attribute chains read anywhere in the module.
    dotted_uses: tuple[str, ...] = ()
    #: Alias-resolved call targets (``repro.service.events.SessionAdmitted``).
    calls: tuple[str, ...] = ()
    #: ``(counter_name, line)`` from ``<metrics>.count("name")`` calls.
    metric_counts: tuple[tuple[str, int], ...] = ()
    #: ``(gauge_name, line)`` from ``gauges`` dict literals/subscripts.
    metric_gauges: tuple[tuple[str, int], ...] = ()
    #: Short string constants (identifier surface for contract sinks).
    strings: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {}
        for spec in fields(self):
            data[spec.name] = _plain(getattr(self, spec.name))
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> ModuleSummary:
        def tuples(value: object) -> tuple:
            return tuple(tuple(item) if isinstance(item, list) else item
                         for item in value)  # type: ignore[union-attr]
        return cls(
            module=str(data["module"]),
            path=str(data["path"]),
            is_package=bool(data["is_package"]),
            imports=tuples(data["imports"]),
            star_imports=tuples(data["star_imports"]),
            defs=tuples(data["defs"]),
            class_bases=tuples(data["class_bases"]),
            all_names=(None if data["all_names"] is None
                       else tuple(data["all_names"])),  # type: ignore[arg-type]
            used_names=tuple(data["used_names"]),  # type: ignore[arg-type]
            dotted_uses=tuple(data["dotted_uses"]),  # type: ignore[arg-type]
            calls=tuple(data["calls"]),  # type: ignore[arg-type]
            metric_counts=tuples(data["metric_counts"]),
            metric_gauges=tuples(data["metric_gauges"]),
            strings=tuple(data["strings"]))  # type: ignore[arg-type]


def _plain(value: object) -> object:
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def module_name_for(path: Path, src_root: Path) -> str | None:
    """Dotted module name of ``path`` under ``src_root`` (None if outside)."""
    try:
        rel = path.resolve().relative_to(src_root.resolve())
    except ValueError:
        return None
    parts = list(rel.parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else None


def _resolve_from(module: str, is_package: bool,
                  node: ast.ImportFrom) -> str | None:
    """Absolute target of a (possibly relative) ``from`` import."""
    if not node.level:
        return node.module
    base = module.split(".")
    if not is_package:
        base = base[:-1]
    drop = node.level - 1
    if drop:
        base = base[:-drop] if drop <= len(base) else []
    if node.module:
        base = [*base, node.module]
    return ".".join(base) or None


class _SummaryVisitor(ast.NodeVisitor):
    """One pass over a module collecting every summary fact."""

    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.aliases: dict[str, str] = {}
        self.imports: list[tuple[str, str | None, int]] = []
        self.star_imports: list[tuple[str, int]] = []
        self.used_names: set[str] = set()
        self.dotted_uses: set[str] = set()
        self.calls: set[str] = set()
        self.metric_counts: list[tuple[str, int]] = []
        self.metric_gauges: list[tuple[str, int]] = []
        self.strings: set[str] = set()

    # -- imports (anywhere in the file, including lazy ones) -------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports.append((alias.name, None, node.lineno))
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                self.aliases.setdefault(alias.name.split(".")[0],
                                        alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = _resolve_from(self.module, self.is_package, node)
        if target is None:
            return
        for alias in node.names:
            if alias.name == "*":
                self.star_imports.append((target, node.lineno))
                continue
            self.imports.append((target, alias.name, node.lineno))
            self.aliases[alias.asname or alias.name] = \
                f"{target}.{alias.name}"

    # -- uses -------------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used_names.add(node.id)

    def _chain(self, node: ast.expr) -> str | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = self.aliases.get(parts[0], parts[0])
        return ".".join([head, *parts[1:]])

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = self._chain(node)
        if chain is not None:
            self.dotted_uses.add(chain)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        target = None
        if isinstance(node.func, ast.Name):
            target = self.aliases.get(node.func.id)
        elif isinstance(node.func, ast.Attribute):
            target = self._chain(node.func)
            if node.func.attr == "count" and node.args and \
                    isinstance(node.args[0], ast.Constant) and \
                    isinstance(node.args[0].value, str):
                self.metric_counts.append(
                    (node.args[0].value, node.lineno))
        if target is not None:
            self.calls.add(target)
        self.generic_visit(node)

    # -- gauge exports ----------------------------------------------------

    @staticmethod
    def _is_gauges_target(node: ast.expr) -> bool:
        return (isinstance(node, ast.Name) and node.id == "gauges") or \
               (isinstance(node, ast.Attribute) and node.attr == "gauges")

    def _record_gauge_dict(self, value: ast.expr) -> None:
        if not isinstance(value, ast.Dict):
            return
        for key in value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.metric_gauges.append((key.value, key.lineno))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if self._is_gauges_target(target):
                self._record_gauge_dict(node.value)
            if isinstance(target, ast.Subscript) and \
                    self._is_gauges_target(target.value) and \
                    isinstance(target.slice, ast.Constant) and \
                    isinstance(target.slice.value, str):
                self.metric_gauges.append(
                    (target.slice.value, node.lineno))
        self.generic_visit(node)

    # -- identifier-surface strings ---------------------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and \
                0 < len(node.value) <= _MAX_INDEXED_STRING:
            self.strings.add(node.value)


def _top_level_defs(tree: ast.Module) -> tuple[
        list[tuple[str, int, str, bool]], tuple[str, ...] | None]:
    defs: list[tuple[str, int, str, bool]] = []
    all_names: tuple[str, ...] | None = None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((node.name, node.lineno, "def",
                         bool(node.decorator_list)))
        elif isinstance(node, ast.ClassDef):
            defs.append((node.name, node.lineno, "class",
                         bool(node.decorator_list)))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        defs.append((name_node.id, node.lineno,
                                     "assign", False))
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets):
                all_names = _literal_strings(node.value)
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and node.value is not None:
            defs.append((node.target.id, node.lineno, "assign", False))
    return defs, all_names


def _literal_strings(node: ast.expr) -> tuple[str, ...] | None:
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    names = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and
                isinstance(element.value, str)):
            return None
        names.append(element.value)
    return tuple(names)


def _class_bases(tree: ast.Module,
                 aliases: dict[str, str]) -> list[tuple[str, tuple[str, ...]]]:
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = []
        for base in node.bases:
            parts: list[str] = []
            cursor: ast.expr = base
            while isinstance(cursor, ast.Attribute):
                parts.append(cursor.attr)
                cursor = cursor.value
            if isinstance(cursor, ast.Name):
                parts.append(cursor.id)
                parts.reverse()
                head = aliases.get(parts[0], parts[0])
                bases.append(".".join([head, *parts[1:]]))
        out.append((node.name, tuple(bases)))
    return out


def summarize_module(tree: ast.Module, *, module: str, path: Path,
                     is_package: bool) -> ModuleSummary:
    """Condense one parsed module into its graph summary."""
    visitor = _SummaryVisitor(module, is_package)
    visitor.visit(tree)
    defs, all_names = _top_level_defs(tree)
    return ModuleSummary(
        module=module,
        path=str(path),
        is_package=is_package,
        imports=tuple(visitor.imports),
        star_imports=tuple(visitor.star_imports),
        defs=tuple(defs),
        class_bases=tuple(_class_bases(tree, visitor.aliases)),
        all_names=all_names,
        used_names=tuple(sorted(visitor.used_names)),
        dotted_uses=tuple(sorted(visitor.dotted_uses)),
        calls=tuple(sorted(visitor.calls)),
        metric_counts=tuple(visitor.metric_counts),
        metric_gauges=tuple(visitor.metric_gauges),
        strings=tuple(sorted(visitor.strings)))


@dataclass
class ProjectGraph:
    """Every module summary under the project's import root, plus the
    documentation corpus the contract rules accept as a consumer."""

    config: LintConfig
    #: module name -> summary, for every parseable ``.py`` under src.
    modules: dict[str, ModuleSummary] = field(default_factory=dict)
    #: Top-level package names found under the import root.
    packages: frozenset[str] = frozenset()
    #: Concatenated text of the configured docs corpus.
    docs_text: str = ""
    #: ``module.symbol`` -> modules that from-import or dotted-use it.
    importers: dict[str, list[str]] = field(default_factory=dict)

    def layer_of(self, module: str) -> str | None:
        """Architecture layer of a project module (None if external).

        The layer is the first package level below the import root:
        ``repro.planner.search`` -> ``planner``.  A second-level name
        is its package's layer when it *is* a package
        (``repro.planner``'s ``__init__``) and the implicit ``root``
        layer when it is a top-level module (``repro.errors``).
        """
        parts = module.split(".")
        if parts[0] not in self.packages:
            return None
        if len(parts) > 2:
            return parts[1]
        if len(parts) == 2:
            summary = self.modules.get(module)
            if summary is None or summary.is_package:
                return parts[1]
            return ROOT_LAYER
        return ROOT_LAYER

    def importers_of(self, module: str, symbol: str) -> list[str]:
        """Modules that from-import or dotted-use ``module.symbol``."""
        return [name for name in self.importers.get(f"{module}.{symbol}", ())
                if name != module]

    def star_importers_of(self, module: str) -> list[str]:
        return [name for name, summary in self.modules.items()
                if any(target == module
                       for target, _ in summary.star_imports)]


def _importers_index(
        modules: dict[str, ModuleSummary]) -> dict[str, list[str]]:
    """``module.symbol`` -> the modules importing it, built once.

    A module imports ``m.s`` when it from-imports ``s`` from ``m`` or
    reads a dotted chain equal to or under ``m.s``, so every prefix of
    two or more parts of each chain is indexed.  Importers are listed
    once each, in ``modules`` order.
    """
    importers: dict[str, list[str]] = {}
    for name, summary in modules.items():
        keys = {f"{target}.{symbol}"
                for target, symbol, _ in summary.imports
                if symbol is not None}
        for use in summary.dotted_uses:
            parts = use.split(".")
            keys.update(".".join(parts[:end])
                        for end in range(2, len(parts) + 1))
        for key in keys:
            importers.setdefault(key, []).append(name)
    return importers


def build_graph(config: LintConfig,
                summaries: list[ModuleSummary]) -> ProjectGraph:
    """Assemble cached/fresh summaries into the whole-program graph."""
    modules = {summary.module: summary for summary in summaries}
    packages = frozenset(name.split(".")[0] for name in modules)
    return ProjectGraph(config=config, modules=modules, packages=packages,
                        docs_text=load_docs(config),
                        importers=_importers_index(modules))


def load_docs(config: LintConfig) -> str:
    """Read the docs corpus named by the contract configuration."""
    if config.root is None:
        return ""
    chunks: list[str] = []
    for spec in config.contracts.docs:
        target = Path(config.root) / spec
        if target.is_dir():
            for doc in sorted(target.rglob("*.md")):
                chunks.append(doc.read_text(encoding="utf-8",
                                            errors="replace"))
        elif target.is_file():
            chunks.append(target.read_text(encoding="utf-8",
                                           errors="replace"))
    return "\n".join(chunks)
