"""``float-equality``: no ``==``/``!=`` against float expressions.

The analytical layers (``core/``, ``planner/``) compute DRAM sizes and
cycle lengths through chains of float arithmetic; exact equality on
such values is order-of-evaluation dependent (the planner's memoization
makes "the same" quantity arrive via different expression trees).  The
experiment runners (``experiments/``) consume those values and carry
the same hazard into their table/figure assembly, so they are in scope
too (comparisons that are *deliberately* exact — catalog cross-checks
against integer-valued floats — carry reviewed inline suppressions).
The VoD subsystem (``vod/``) sizes prefixes and byte fractions through
the same float chains and joins the scope.  The binding directories
live in ``[tool.mems-repro.lint.scopes.float-equality]``, not here.
The codebase convention is ``math.isclose`` / an explicit tolerance —
see the ``1e-12``-banded comparisons in the hybrid optimizer — and
``math.isinf`` for the ``float("inf")`` sentinels.

Static analysis cannot type arbitrary expressions, so the rule is
deliberately literal-driven: a comparison is flagged when either side
is *syntactically* float-valued — a float literal (``0.0``, ``1e-9``),
a ``float(...)`` call (``float("inf")``), or a unary ``-`` of either.
Integer-literal comparisons (``n == 0``) pass: they are how the
codebase spells "empty population" on counts.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import Checker, Finding, ParsedFile, register


def _is_float_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")


def _is_float_like(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        return _is_float_like(node.operand)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return _is_float_call(node)


def _is_inf(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp):
        return _is_inf(node.operand)
    if _is_float_call(node):
        args = node.args
        return (len(args) == 1 and isinstance(args[0], ast.Constant)
                and isinstance(args[0].value, str)
                and args[0].value.lower().lstrip("+-") in ("inf", "infinity"))
    if isinstance(node, ast.Attribute):
        return node.attr == "inf"  # math.inf / np.inf
    return False


@register
class FloatEqualityChecker(Checker):
    """Flag ``==`` / ``!=`` with a syntactically float operand."""

    rule = "float-equality"
    description = ("no ==/!= against float expressions in the analytical "
                   "layers (scoped via config); use math.isclose / "
                   "math.isinf / a tolerance")

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        path = parsed.path
        for node in parsed.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if not (_is_float_like(left) or _is_float_like(right)):
                    continue
                if _is_inf(left) or _is_inf(right):
                    hint = "use math.isinf(...)"
                else:
                    hint = "use math.isclose(...) or an explicit tolerance"
                yield self.finding(
                    path, node,
                    f"float equality `{ast.unparse(node)}`; {hint}")
