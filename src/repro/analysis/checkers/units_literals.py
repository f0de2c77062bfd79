"""``unit-literals``: conversions go through :mod:`repro.units`.

The whole time-cycle analysis works in one unit system — bytes,
bytes/second, seconds (decimal SI, the paper's Table 2 convention) —
and :mod:`repro.units` is the single place the conversion constants
live.  A raw ``1e6`` at an API boundary is either a duplicated
constant (drift risk) or, worse, a binary-convention ``1 << 20``
silently off by 4.9%.  This rule flags:

* decimal mega/giga/tera magnitudes (``1_000_000``, ``1e6``, ...) in
  any spelling — use ``MB``/``GB``/``TB``;
* kilo magnitudes only in conversion-style spellings (``1_000``,
  ``1e3``); a plain ``1000`` (a count, a dollar figure) is not
  second-guessed;
* any binary-convention value (``1024``, ``1048576``, ``1 << 20``):
  this library is decimal throughout, so these are wrong in *every*
  spelling.

Sub-unity magnitudes (``1e-3``, ``1e-6``) are deliberately *not*
flagged: in this codebase they are overwhelmingly relative tolerances
(``1e-6 * max(demand, 1.0)``), and a rule that is half suppressions
enforces nothing.  Second->millisecond conversions are still caught on
the multiplicative side (``* 1e3``).

``src/repro/units.py`` itself is exempt (via the config scope's
``exclude-files``) — it defines the constants.
Non-unit uses of a flagged magnitude (e.g. a search bound of a million
iterations) carry an inline suppression naming this rule.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import Checker, Finding, ParsedFile, register

#: Decimal magnitudes flagged in any spelling, with the constant to use.
DECIMAL_ANY = {10**6: "MB", 10**9: "GB", 10**12: "TB"}

#: Kilo magnitude: flagged only in conversion-style spellings.
KILO = 1000

#: Binary-convention magnitudes (wrong in this decimal library).
BINARY = frozenset(
    {1024, 1024**2, 1024**3, 1024**4})  # repro-lint: disable=unit-literals

#: Shift amounts of the ``1 << n`` binary spellings.
BINARY_SHIFTS = frozenset({10, 20, 30, 40})


@register
class UnitLiteralsChecker(Checker):
    """Flag magic unit-conversion literals outside ``repro.units``."""

    rule = "unit-literals"
    description = ("no magic unit literals (1e6, 1_000_000, 1024, "
                   "1 << 20); use the repro.units constants")

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        path = parsed.path
        for node in parsed.nodes:
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift):
                left, right = node.left, node.right
                if (isinstance(left, ast.Constant) and left.value == 1
                        and isinstance(right, ast.Constant)
                        and right.value in BINARY_SHIFTS):
                    yield self.finding(
                        path, node,
                        f"binary-convention 1 << {right.value}; this "
                        f"library is decimal (SI) — use repro.units")
                continue
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            magnitude = abs(value)
            text = parsed.segment(node)
            if magnitude in BINARY:
                yield self.finding(
                    path, node,
                    f"binary-convention literal {text}; this library is "
                    f"decimal (SI, 1 MB = 10^6 B) — use repro.units")
            elif magnitude in DECIMAL_ANY:
                yield self.finding(
                    path, node,
                    f"magic unit literal {text}; use repro.units."
                    f"{DECIMAL_ANY[magnitude]}")
            elif magnitude == KILO and ("_" in text
                                        or "e" in text.lower()):
                yield self.finding(
                    path, node,
                    f"magic unit literal {text}; use repro.units.KB "
                    f"(or divide by MS for second->millisecond)")
