"""``no-bare-assert``: library code must not rely on ``assert``.

``python -O`` compiles ``assert`` statements away.  PR 2 shipped a bug
where exactly that happened: an infeasibility guard in the hybrid-split
optimizer was an ``assert``, so the optimized interpreter returned a
bogus design instead of raising.  Library invariants must therefore be
explicit ``raise`` statements — :class:`~repro.errors.ReproError`
subclasses for caller-visible contracts, ``RuntimeError`` (e.g. via
:func:`repro.errors.require`) for internal "unreachable" checks.

Tests are exempt by construction: the gate runs over ``src/`` and
``pytest`` asserts live under ``tests/``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import Checker, Finding, ParsedFile, register


@register
class NoBareAssertChecker(Checker):
    """Flag every ``assert`` statement."""

    rule = "no-bare-assert"
    description = ("no assert statements in library code "
                   "(python -O strips them); raise explicitly")

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        path = parsed.path
        for node in parsed.nodes:
            if isinstance(node, ast.Assert):
                condition = ast.unparse(node.test)
                if len(condition) > 60:
                    condition = condition[:57] + "..."
                yield self.finding(
                    path, node,
                    f"assert vanishes under python -O; raise a ReproError "
                    f"subclass or use repro.errors.require "
                    f"(condition: {condition})")
