"""Adaptive replacement of resident prefixes.

The bank budget is spent greedily down the observed popularity ranking
(the "popularity-aware prefix cache" policy): the hottest titles get a
*full* prefix — the batching-window cap, which maximises multicast
fan-out on the head — the marginal title gets whatever partial prefix
is left (still at least the startup-covering base), and colder titles
get nothing.  Re-running the allocation against fresh scores at each
epoch is what promotes, demotes and resizes prefixes as popularity
drifts.

A hysteresis bonus makes residency sticky: an already-resident title
only loses its slot to a challenger whose score beats it by the
hysteresis margin, so near-ties do not thrash prefixes on and off the
bank every epoch.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from repro.core.popularity import finite_vector, rank_titles
from repro.errors import ConfigurationError

from repro.vod.prefix import PrefixAllocation


@dataclass(frozen=True)
class AdaptiveReplacement:
    """Deterministic promote/demote/resize policy (pure: no state).

    The caller (:class:`repro.vod.placement.PrefixPlacement`) owns the
    previous allocation and passes its resident set back in, so one
    policy instance can evaluate several candidate budgets (striped
    vs. replicated) without committing.  The decision is a ranking
    (:meth:`rank`) plus a prefix sum down it (:meth:`fill`); candidate
    budgets share one ranking.
    """

    #: Relative score bonus a resident title enjoys when re-ranked.
    hysteresis: float = 0.2

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hysteresis) and self.hysteresis >= 0):
            raise ConfigurationError(
                f"hysteresis must be finite and >= 0, "
                f"got {self.hysteresis!r}")

    def rebalance(self, scores, *, base_bytes: float, max_bytes: float,
                  budget_bytes: float, title_bytes: float,
                  resident: Collection[int] = ()) -> PrefixAllocation:
        """Allocate ``budget_bytes`` of prefixes down the score ranking.

        ``base_bytes`` is the startup-covering minimum a resident title
        must hold; ``max_bytes`` the batching-window cap a hot title may
        grow to (both already clamped to the title size by the caller).
        A title is resident only if at least ``base_bytes`` remain for
        it — a shorter residue could not even hide startup, so it stays
        on the bank unspent rather than buying a useless stub.
        """
        return self.fill(self.rank(scores, resident),
                         base_bytes=base_bytes, max_bytes=max_bytes,
                         budget_bytes=budget_bytes, title_bytes=title_bytes)

    def rank(self, scores, resident: Collection[int] = ()) -> np.ndarray:
        """Title ids in fill order: hysteresis-boosted score, then id."""
        values = finite_vector(scores, name="scores")
        if not values.size:
            raise ConfigurationError("scores must be non-empty")
        if (values < 0).any():
            raise ConfigurationError("scores must be >= 0")
        effective = values.copy()
        effective[_title_ids(resident, len(values))] *= 1.0 + self.hysteresis
        return rank_titles(effective)

    @staticmethod
    def fill(ranked: np.ndarray, *, base_bytes: float, max_bytes: float,
             budget_bytes: float, title_bytes: float) -> PrefixAllocation:
        """Spend ``budget_bytes`` down ``ranked`` (see :meth:`rebalance`).

        The greedy fill is a prefix sum: while a title can take a full
        prefix the bank's remainder drops by ``max_bytes`` per rank, so
        ``remaining[i]`` is exactly the sequential ``remaining -= give``
        value before rank ``i``.  The first rank left with less than
        ``base_bytes`` ends the fill (a partial give leaves nothing, so
        the cut always falls right after it).
        """
        for name, value in (("base_bytes", base_bytes),
                            ("max_bytes", max_bytes),
                            ("budget_bytes", budget_bytes)):
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be finite, got {value!r}")
        if base_bytes <= 0:
            raise ConfigurationError(
                f"base_bytes must be > 0, got {base_bytes!r}")
        if max_bytes < base_bytes:
            raise ConfigurationError(
                f"max_bytes must be >= base_bytes ({base_bytes!r}), "
                f"got {max_bytes!r}")
        if budget_bytes < 0:
            raise ConfigurationError(
                f"budget_bytes must be >= 0, got {budget_bytes!r}")
        n_titles = len(ranked)
        if not n_titles:
            raise ConfigurationError("ranked must be non-empty")
        steps = np.full(n_titles, -float(max_bytes))
        steps[0] = budget_bytes
        remaining = np.cumsum(steps)
        short = remaining < base_bytes
        cut = int(short.argmax()) if short.any() else n_titles
        prefix = np.zeros(n_titles)
        prefix[ranked[:cut]] = np.minimum(max_bytes, remaining[:cut])
        return PrefixAllocation(prefix_bytes=prefix,
                                title_bytes=title_bytes)


def _title_ids(titles: Collection[int], n_titles: int) -> np.ndarray:
    """``titles`` as an index array, each id checked in ``[0, n)``."""
    ids = np.asarray(tuple(titles))
    if not ids.size:
        return ids.astype(np.int64)
    if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
        raise ConfigurationError(
            f"resident must be title ids, got {tuple(titles)!r}")
    outside = ids[(ids < 0) | (ids >= n_titles)]
    if outside.size:
        raise ConfigurationError(
            f"resident ids must be in [0, {n_titles}), "
            f"got {outside[0].item()!r}")
    return ids
