"""Content-popularity models and the cache hit-rate map (Eq. 11).

The paper specifies popularity as ``X:Y`` — X% of the titles receive
Y% of the accesses, uniformly within the popular and unpopular classes.
Given a cache holding the most popular fraction ``p`` of the content,
the hit rate is

    h = (p / (X/100)) * Y/100                      if p <= X/100,
    h = Y/100 + (p - X/100)/(1 - X/100) * (1-Y/100) otherwise,

i.e. the cache first absorbs the popular class, then dips into the
unpopular class.  ``50:50`` denotes the uniform distribution.

:class:`ZipfPopularity` is an extension beyond the paper: real VoD
popularity is often Zipf-like, and the cache analysis only consumes the
``hit_rate(p)`` map, so any distribution with that interface plugs in.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "BimodalPopularity",
    "EmpiricalPopularity",
    "PopularityDistribution",
    "UniformPopularity",
    "ZipfPopularity",
    "finite_vector",
    "ordered_sum",
    "paper_distributions",
    "rank_titles",
]


def finite_vector(values, *, name: str) -> np.ndarray:
    """``values`` as a 1-D array of finite floats.

    Accepts any iterable of numbers, generators included.  Anything
    else — a NaN or infinity, a non-number, a nested sequence — raises
    a :class:`ConfigurationError` naming ``name``.  An ndarray that is
    already float64 comes back as-is, not copied.
    """
    try:
        if not isinstance(values, np.ndarray):
            values = list(values)
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{name} must be a sequence of numbers: {exc}") from exc
    if array.ndim != 1:
        raise ConfigurationError(
            f"{name} must be one-dimensional, got shape {array.shape}")
    finite = np.isfinite(array)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ConfigurationError(
            f"{name} must be finite, got {array[bad].item()!r} at {bad}")
    return array


def ordered_sum(values) -> float:
    """Left-to-right float total of ``values`` (0.0 when empty).

    Every total that reaches seeded output or validation goes through
    this one summation order.  ``np.cumsum`` adds sequentially, as
    ``sum()`` over floats does on Python 3.10/3.11; ``np.sum`` is
    pairwise and Python 3.12's ``sum()`` is compensated, so either
    would move last bits between interpreters.
    """
    array = np.asarray(values, dtype=float)
    if not array.size:
        return 0.0
    return float(np.cumsum(array)[-1])


def rank_titles(scores) -> np.ndarray:
    """Title ids by descending score, lower id first on ties.

    The ranking both placement modes (whole-stream cache and prefix)
    migrate by.  ``np.lexsort`` sorts by its last key first, so this is
    ``sorted(range(n), key=lambda t: (-scores[t], t))`` in one call.
    """
    scores = np.asarray(scores, dtype=float)
    return np.lexsort((np.arange(len(scores)), -scores))


class PopularityDistribution(abc.ABC):
    """Maps a cached content fraction to an access hit rate."""

    @abc.abstractmethod
    def hit_rate(self, cached_fraction: float) -> float:
        """Fraction of accesses served by caching the ``cached_fraction``
        most popular content.  Monotone, with ``hit_rate(0) = 0`` and
        ``hit_rate(1) = 1``."""

    def _check_fraction(self, cached_fraction: float) -> float:
        if not 0 <= cached_fraction <= 1:
            raise ConfigurationError(
                f"cached fraction must be in [0, 1], got {cached_fraction!r}")
        return cached_fraction


@dataclass(frozen=True)
class BimodalPopularity(PopularityDistribution):
    """The paper's ``X:Y`` two-class popularity distribution.

    ``x_percent`` of the titles receive ``y_percent`` of the accesses;
    both classes are internally uniform.  The paper's experiments use
    1:99, 5:95, 10:90, 20:80 and the uniform 50:50.
    """

    x_percent: float
    y_percent: float

    def __post_init__(self) -> None:
        if not 0 < self.x_percent < 100:
            raise ConfigurationError(
                f"x_percent must be in (0, 100), got {self.x_percent!r}")
        if not 0 < self.y_percent < 100:
            raise ConfigurationError(
                f"y_percent must be in (0, 100), got {self.y_percent!r}")
        if self.y_percent < self.x_percent:
            raise ConfigurationError(
                f"a {self.x_percent}:{self.y_percent} distribution gives the "
                "popular class less than its uniform share; swap X and Y")

    @classmethod
    def parse(cls, spec: str) -> "BimodalPopularity":
        """Parse the paper's ``"X:Y"`` notation, e.g. ``"1:99"``."""
        try:
            x_text, y_text = spec.split(":")
            return cls(float(x_text), float(y_text))
        except ValueError as exc:
            raise ConfigurationError(
                f"popularity spec must look like 'X:Y', got {spec!r}") from exc

    @property
    def is_uniform(self) -> bool:
        """True for the 50:50 (uniform) distribution."""
        return math.isclose(self.x_percent, self.y_percent)

    @property
    def skew(self) -> float:
        """Access-density ratio between the popular and unpopular class."""
        x = self.x_percent / 100.0
        y = self.y_percent / 100.0
        return (y / x) / ((1.0 - y) / (1.0 - x))

    def hit_rate(self, cached_fraction: float) -> float:
        """Equation 11 of the paper."""
        p = self._check_fraction(cached_fraction)
        x = self.x_percent / 100.0
        y = self.y_percent / 100.0
        if p <= x:
            return (p / x) * y
        return y + (p - x) / (1.0 - x) * (1.0 - y)

    def __str__(self) -> str:
        return f"{self.x_percent:g}:{self.y_percent:g}"


@dataclass(frozen=True)
class UniformPopularity(PopularityDistribution):
    """All content equally popular: ``hit_rate(p) = p``."""

    def hit_rate(self, cached_fraction: float) -> float:
        return self._check_fraction(cached_fraction)


@dataclass(frozen=True)
class ZipfPopularity(PopularityDistribution):
    """Zipf-distributed title popularity (extension beyond the paper).

    Title ``i`` (1-based) of ``n_titles`` receives weight
    ``i ** -alpha``; caching the top fraction ``p`` captures the sum of
    the first ``ceil(p * n_titles)`` weights.  ``alpha ~ 0.7-1.0`` is
    typical for VoD traces.
    """

    alpha: float
    n_titles: int

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ConfigurationError(
                f"alpha must be >= 0, got {self.alpha!r}")
        if self.n_titles < 1:
            raise ConfigurationError(
                f"n_titles must be >= 1, got {self.n_titles!r}")

    def _weights(self) -> np.ndarray:
        ranks = np.arange(1, self.n_titles + 1, dtype=float)
        weights = ranks ** (-self.alpha)
        return weights / weights.sum()

    def hit_rate(self, cached_fraction: float) -> float:
        p = self._check_fraction(cached_fraction)
        n_cached = int(math.floor(p * self.n_titles + 1e-9))
        weights = self._weights()
        head = float(weights[:n_cached].sum())
        # Interpolate within the marginal title so hit_rate is continuous
        # in p (a partially cached title is modelled as proportionally hit).
        remainder = p * self.n_titles - n_cached
        if n_cached < self.n_titles and remainder > 0:
            head += remainder * float(weights[n_cached])
        return min(head, 1.0)

    def title_probability(self, rank: int) -> float:
        """Access probability of the ``rank``-th most popular title (1-based)."""
        if not 1 <= rank <= self.n_titles:
            raise ConfigurationError(
                f"rank must be in [1, {self.n_titles}], got {rank!r}")
        return float(self._weights()[rank - 1])


@dataclass(frozen=True)
class EmpiricalPopularity(PopularityDistribution):
    """Hit-rate map fitted to observed per-title access counts.

    The online runtime re-estimates popularity from the requests it has
    actually served (see :mod:`repro.runtime.placement`); the cache
    theorems only consume ``hit_rate(p)``, so an empirical curve plugs
    into :func:`~repro.core.cache_model.design_mems_cache` unchanged.

    ``weights`` are normalised access shares sorted most-popular-first
    (any sequence is accepted and stored as a tuple).
    A partially cached marginal title is counted proportionally, making
    ``hit_rate`` continuous and monotone with ``hit_rate(0) = 0`` and
    ``hit_rate(1) = 1``.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        weights = finite_vector(self.weights, name="weights")
        if not weights.size:
            raise ConfigurationError("weights must be non-empty")
        if (weights < 0).any():
            raise ConfigurationError("weights must be >= 0")
        if (weights[1:] > weights[:-1] + 1e-12).any():
            raise ConfigurationError(
                "weights must be sorted most-popular-first")
        # Left-to-right running totals (as ordered_sum): the last is the
        # total, and hit_rate reads its whole-title heads from them.
        cumulative = np.cumsum(weights)
        total = float(cumulative[-1])
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
            raise ConfigurationError(
                f"weights must sum to 1, got {total!r}")
        if not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(weights.tolist()))
        object.__setattr__(self, "_cumulative", cumulative)

    @classmethod
    def from_counts(cls, counts) -> "EmpiricalPopularity":
        """Build from raw (unsorted, unnormalised) access counts.

        ``counts`` may be any iterable of finite, non-negative numbers.
        All-zero counts degrade to the uniform distribution — a cold
        server has no popularity signal yet.
        """
        values = np.sort(finite_vector(counts, name="counts"))[::-1]
        if not values.size:
            raise ConfigurationError("counts must be non-empty")
        if values[-1] < 0:
            raise ConfigurationError("counts must be >= 0")
        total = ordered_sum(values)
        if total <= 0:
            return cls(weights=(1.0 / len(values),) * len(values))
        return cls(weights=values / total)

    def hit_rate(self, cached_fraction: float) -> float:
        p = self._check_fraction(cached_fraction)
        scaled = p * len(self.weights)
        n_whole = int(math.floor(scaled + 1e-9))
        head = float(self._cumulative[n_whole - 1]) if n_whole else 0.0
        remainder = scaled - n_whole
        if n_whole < len(self.weights) and remainder > 1e-9:
            head += remainder * self.weights[n_whole]
        return min(head, 1.0)


#: The popularity distributions swept in Figures 9 and 10 of the paper.
PAPER_DISTRIBUTIONS: tuple[str, ...] = ("1:99", "5:95", "10:90", "20:80", "50:50")


def paper_distributions() -> list[BimodalPopularity]:
    """The five X:Y distributions used in the paper's experiments."""
    return [BimodalPopularity.parse(spec) for spec in PAPER_DISTRIBUTIONS]
