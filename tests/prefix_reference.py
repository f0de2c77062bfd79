"""Scalar reference model of the prefix replan, for differential tests.

These are the per-title Python loops the vectorized code in
:mod:`repro.vod.replacement`, :mod:`repro.vod.prefix`,
:mod:`repro.vod.placement` and :mod:`repro.core.popularity` replaced:
a greedy fill down a ``sorted`` ranking, a generator ``sum`` of
per-title byte fractions, set differences, and a ``sorted`` count
normalisation.  Only the decision logic is kept; input validation lives
in the production code.

Every total is accumulated left to right with an explicit loop
(``left_sum``), which is what ``sum()`` over floats does on Python
3.10/3.11.  Python 3.12's ``sum()`` is compensated, so spelling it out
keeps the oracle the same on every interpreter.
"""

from __future__ import annotations


def left_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def rank(scores) -> list[int]:
    """Title ids by descending score, lower id first on ties."""
    return sorted(range(len(scores)), key=lambda t: (-scores[t], t))


def rebalance(scores, *, hysteresis: float, base_bytes: float,
              max_bytes: float, budget_bytes: float,
              resident=()) -> tuple[float, ...]:
    """Per-title prefix bytes of the greedy popularity-ranked fill."""
    values = [float(s) for s in scores]
    sticky = set(resident)
    bonus = 1.0 + hysteresis
    effective = [score * bonus if title in sticky else score
                 for title, score in enumerate(values)]
    prefix = [0.0] * len(values)
    remaining = budget_bytes
    for title in rank(effective):
        if remaining < base_bytes:
            break
        give = min(max_bytes, remaining)
        prefix[title] = give
        remaining -= give
    return tuple(prefix)


def mems_fraction(prefix_bytes, title_bytes: float, weights) -> float:
    """Expected byte share served from MEMS under ``weights``."""
    share = left_sum(w * min(prefix_bytes[t] / title_bytes, 1.0)
                     for t, w in enumerate(weights))
    return min(share, 1.0)


def diff(previous, current, title_bytes: float
         ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Promotions, demotions and resizes between two byte vectors."""
    old = ({t for t, size in enumerate(previous) if size > 0}
           if previous is not None else set())
    new = {t for t, size in enumerate(current) if size > 0}
    resized: list[int] = []
    if previous is not None:
        tolerance = 1e-9 * title_bytes
        for title in sorted(old & new):
            if abs(previous[title] - current[title]) > tolerance:
                resized.append(title)
    return tuple(sorted(new - old)), tuple(sorted(old - new)), tuple(resized)


def from_counts(counts) -> tuple[float, ...]:
    """Normalised access shares, most popular first (uniform if cold)."""
    values = sorted((float(c) for c in counts), reverse=True)
    total = left_sum(values)
    if total <= 0:
        return (1.0 / len(values),) * len(values)
    return tuple(v / total for v in values)
