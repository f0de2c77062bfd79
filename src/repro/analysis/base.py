"""The checker interface and rule registry.

A checker is a small class with a stable ``rule`` id, a one-line
``description``, an ``applies_to`` path filter (rules like
``determinism`` only bind inside the stochastic layers), and a
``check`` method that scans a :class:`ParsedFile` and yields
:class:`Finding` records.  The engine builds one :class:`ParsedFile`
per file — one parse, one ``ast.walk`` — and hands the same object to
every rule, so a rule iterates ``parsed.nodes`` instead of walking the
tree again.  Checkers register themselves with
:func:`register` at import time; :mod:`repro.analysis.checkers`
imports every rule module so the registry is complete after one
``import repro.analysis``.

Two kinds of rule share the registry:

* **file rules** (:class:`Checker`) see one parsed module at a time
  and run inside the parallel per-file pass;
* **graph rules** (:class:`ProjectChecker`) see the assembled
  :class:`~repro.analysis.project.ProjectGraph` — the whole-program
  import graph and symbol table — and run once per invocation.

Every checker receives the project's
:class:`~repro.analysis.config.LintConfig`; path scopes that PR 3
hardcoded as per-checker constants now come from the config's
declarative ``[tool.mems-repro.lint.scopes]`` tables.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.config import LintConfig
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.project import ProjectGraph


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    #: Repository-relative (or as-given) path of the offending file.
    path: str
    #: 1-based source line of the violation (suppression granularity).
    line: int
    #: 0-based column, as reported by the ``ast`` node.
    col: int
    #: Stable rule identifier, e.g. ``"no-bare-assert"``.
    rule: str
    #: Human-readable explanation, specific to the violating code.
    message: str

    def to_dict(self) -> dict[str, object]:
        """JSON-ready record (the schema CI asserts)."""
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> Finding:
        """Inverse of :meth:`to_dict` (the incremental cache reader)."""
        return cls(path=str(data["path"]), line=int(data["line"]),  # type: ignore[arg-type]
                   col=int(data["col"]), rule=str(data["rule"]),  # type: ignore[arg-type]
                   message=str(data["message"]))


#: One physical line with its terminator, split the way the parser
#: splits: on ``\r\n``, ``\r`` and ``\n`` only (``str.splitlines``
#: also breaks on ``\x0c``, ``\x1c``, ``\u2028``, ... and would shift
#: every node's line index after one of those).
_PHYSICAL_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


@dataclass(frozen=True)
class ParsedFile:
    """One module, parsed once and walked once, shared by every rule."""

    path: Path
    source: str
    tree: ast.Module
    #: Physical source lines (terminators kept), split as the parser does.
    lines: tuple[str, ...]
    #: Every node of ``tree``, in ``ast.walk`` order.
    nodes: tuple[ast.AST, ...]

    @classmethod
    def parse(cls, source: str, path: Path) -> ParsedFile:
        """Parse ``source``; a :class:`SyntaxError` propagates."""
        tree = ast.parse(source, filename=str(path))
        return cls(path=path, source=source, tree=tree,
                   lines=tuple(_PHYSICAL_LINE.findall(source)),
                   nodes=tuple(ast.walk(tree)))

    def segment(self, node: ast.expr) -> str:
        """Source text of ``node`` (what ``ast.get_source_segment``
        returns, without re-splitting the file on every call).  Node
        columns are UTF-8 byte offsets, so the encoded lines are sliced.
        """
        first = self.lines[node.lineno - 1].encode()
        if node.end_lineno == node.lineno:
            return first[node.col_offset:node.end_col_offset].decode()
        last = self.lines[node.end_lineno - 1].encode()
        return "".join((first[node.col_offset:].decode(),
                        *self.lines[node.lineno:node.end_lineno - 1],
                        last[:node.end_col_offset].decode()))


class Checker:
    """Base class for one per-file lint rule.

    Subclasses set ``rule`` and ``description`` and implement
    :meth:`check`.  ``applies_to`` narrows the rule to the layers where
    the invariant holds; by default it honours the config's scope table
    for the rule (no scope entry = applies everywhere), so fixture
    trees under ``tests/`` exercise scoped rules simply by mirroring
    the directory names (``runtime/``, ``core/``, ...).
    """

    #: Stable rule id (kebab-case); the suppression and --rule key.
    rule: str = ""
    #: One-line description shown by ``mems-repro lint --list-rules``.
    description: str = ""
    #: Bump when the rule's logic changes: cached findings keyed under
    #: an older version are discarded on the next run.
    version: int = 1

    def __init__(self, config: LintConfig | None = None) -> None:
        self.config = config if config is not None else LintConfig()

    def applies_to(self, path: Path) -> bool:
        """True when the rule binds for ``path`` (default: the config
        scope for this rule, or everywhere without one)."""
        scope = self.config.scope(self.rule)
        return True if scope is None else scope.applies_to(path)

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        """Yield every violation found in the parsed module."""
        raise NotImplementedError

    def finding(self, path: Path | str, node: ast.AST,
                message: str) -> Finding:
        """Convenience constructor anchored at ``node``'s location."""
        return Finding(path=str(path), line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), rule=self.rule,
                       message=message)


class ProjectChecker(Checker):
    """Base class for one whole-program (graph) lint rule.

    Graph rules run once per invocation against the assembled
    :class:`~repro.analysis.project.ProjectGraph`; they only engage
    when the linted paths sit inside a discovered project (a
    ``pyproject.toml`` ancestor), never for loose files.
    """

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        return iter(())  # graph rules contribute nothing per-file

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        """Yield every violation found in the whole-program graph."""
        raise NotImplementedError

    def at(self, summary_path: str, line: int, message: str) -> Finding:
        """Finding constructor anchored at a summary's source line."""
        return Finding(path=summary_path, line=line, col=0,
                       rule=self.rule, message=message)


_REGISTRY: dict[str, type[Checker]] = {}


def register(checker_class: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    rule = checker_class.rule
    if not rule:
        raise ConfigurationError(
            f"checker {checker_class.__name__} declares no rule id")
    if rule in _REGISTRY:
        raise ConfigurationError(f"duplicate checker rule id {rule!r}")
    _REGISTRY[rule] = checker_class
    return checker_class


def all_rules() -> dict[str, type[Checker]]:
    """The registry, rule id -> checker class (sorted by rule id)."""
    return dict(sorted(_REGISTRY.items()))


def rule_versions() -> tuple[tuple[str, int], ...]:
    """Sorted ``(rule, version)`` pairs — part of the cache fingerprint."""
    return tuple((rule, cls.version) for rule, cls in all_rules().items())


def get_checker(rule: str, config: LintConfig | None = None) -> Checker:
    """Instantiate the checker for ``rule``.

    Unknown ids raise :class:`~repro.errors.ConfigurationError` listing
    the valid ones — the CLI maps this to the usage exit code.
    """
    try:
        checker_class = _REGISTRY[rule]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none registered>"
        raise ConfigurationError(
            f"unknown lint rule {rule!r}; known rules: {known}") from None
    return checker_class(config)


def select_checkers(rules: Iterable[str] | None = None,
                    config: LintConfig | None = None) -> list[Checker]:
    """Instantiate the requested checkers (default: every registered one)."""
    if rules is None:
        return [cls(config) for cls in all_rules().values()]
    return [get_checker(rule, config) for rule in rules]
