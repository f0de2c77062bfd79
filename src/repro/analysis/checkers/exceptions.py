"""``exception-hygiene``: library failures are :class:`ReproError`\\ s.

The exception hierarchy in :mod:`repro.errors` is a public contract:
callers catch ``ReproError`` to handle "the library refused" while
still distinguishing configuration mistakes from feasibility failures.
A stray ``raise ValueError`` punches a hole in that contract — the
caller's ``except ReproError`` misses it — so library code raises:

* a :class:`~repro.errors.ReproError` subclass for every caller-visible
  failure (malformed parameters, infeasible loads, ...);
* ``RuntimeError`` (e.g. via :func:`repro.errors.require`) for internal
  "unreachable" invariants, which are bugs, not API outcomes;
* ``NotImplementedError`` for abstract methods.

Bare re-raises (``raise`` inside ``except``) and raising pre-built
exception *objects* (``raise self.failure``) are out of scope — the
rule looks at the class being constructed at the raise site.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import Checker, Finding, ParsedFile, register

#: Builtin exception classes library code must not raise directly.
BANNED = frozenset({
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "IndexError", "LookupError", "ArithmeticError", "ZeroDivisionError",
    "AssertionError", "StopIteration",
})


@register
class ExceptionHygieneChecker(Checker):
    """Flag ``raise`` of banned builtin exception classes."""

    rule = "exception-hygiene"
    description = ("raise ReproError subclasses (or RuntimeError for "
                   "internal invariants), not bare builtins")

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        path = parsed.path
        for node in parsed.nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: str | None = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in BANNED:
                yield self.finding(
                    path, node,
                    f"raise {name}: library errors derive from "
                    f"repro.errors.ReproError (use ConfigurationError / "
                    f"AdmissionError / ... , or RuntimeError for internal "
                    f"invariants)")
