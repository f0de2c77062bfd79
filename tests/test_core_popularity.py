"""Popularity distributions and the Eq. 11 hit-rate map."""

import pytest

from repro.core.popularity import (
    PAPER_DISTRIBUTIONS,
    BimodalPopularity,
    EmpiricalPopularity,
    UniformPopularity,
    ZipfPopularity,
    paper_distributions,
)
from repro.errors import ConfigurationError


class TestBimodalConstruction:
    def test_parse(self):
        dist = BimodalPopularity.parse("5:95")
        assert dist.x_percent == 5 and dist.y_percent == 95

    def test_parse_rejects_garbage(self):
        for bad in ("5-95", "5", "a:b", ""):
            with pytest.raises(ConfigurationError):
                BimodalPopularity.parse(bad)

    @pytest.mark.parametrize("x,y", [(0, 99), (100, 99), (1, 0), (1, 100)])
    def test_bounds(self, x, y):
        with pytest.raises(ConfigurationError):
            BimodalPopularity(x, y)

    def test_popular_class_must_be_popular(self):
        with pytest.raises(ConfigurationError):
            BimodalPopularity(99, 1)  # Y < X means inverted classes

    def test_str_roundtrip(self):
        assert str(BimodalPopularity.parse("10:90")) == "10:90"

    def test_paper_distributions(self):
        dists = paper_distributions()
        assert [str(d) for d in dists] == list(PAPER_DISTRIBUTIONS)


class TestEquation11:
    def test_caching_whole_popular_class(self):
        # p = X/100 exactly: hit rate is Y/100.
        dist = BimodalPopularity(10, 90)
        assert dist.hit_rate(0.10) == pytest.approx(0.90)

    def test_within_popular_class_linear(self):
        # p <= X: h = (p / X%) * Y%.
        dist = BimodalPopularity(10, 90)
        assert dist.hit_rate(0.05) == pytest.approx(0.45)

    def test_beyond_popular_class(self):
        # p > X: h = Y% + (p - X%)/(1 - X%) * (1 - Y%).
        dist = BimodalPopularity(10, 90)
        expected = 0.90 + (0.55 - 0.10) / 0.90 * 0.10
        assert dist.hit_rate(0.55) == pytest.approx(expected)

    def test_boundary_values(self):
        dist = BimodalPopularity(5, 95)
        assert dist.hit_rate(0.0) == 0.0
        assert dist.hit_rate(1.0) == pytest.approx(1.0)

    def test_monotone_nondecreasing(self):
        dist = BimodalPopularity(1, 99)
        points = [dist.hit_rate(p / 100) for p in range(101)]
        assert all(a <= b + 1e-12 for a, b in zip(points, points[1:]))

    def test_fifty_fifty_is_uniform(self):
        dist = BimodalPopularity(50, 50)
        assert dist.is_uniform
        for p in (0.1, 0.33, 0.8):
            assert dist.hit_rate(p) == pytest.approx(p)

    def test_skew_metric(self):
        # 1:99 means the popular 1% is 99x99/1 = 9801x denser.
        assert BimodalPopularity(1, 99).skew == pytest.approx(9801.0)
        assert BimodalPopularity(50, 50).skew == pytest.approx(1.0)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            BimodalPopularity(10, 90).hit_rate(1.5)
        with pytest.raises(ConfigurationError):
            BimodalPopularity(10, 90).hit_rate(-0.1)


class TestUniform:
    def test_identity(self):
        dist = UniformPopularity()
        for p in (0.0, 0.25, 1.0):
            assert dist.hit_rate(p) == p


class TestZipf:
    def test_bounds(self):
        dist = ZipfPopularity(alpha=0.8, n_titles=100)
        assert dist.hit_rate(0.0) == 0.0
        assert dist.hit_rate(1.0) == pytest.approx(1.0)

    def test_monotone(self):
        dist = ZipfPopularity(alpha=1.0, n_titles=500)
        points = [dist.hit_rate(p / 50) for p in range(51)]
        assert all(a <= b + 1e-12 for a, b in zip(points, points[1:]))

    def test_head_concentration(self):
        # A strongly skewed Zipf gives the top 10% much more than 10%.
        dist = ZipfPopularity(alpha=1.0, n_titles=1_000)
        assert dist.hit_rate(0.10) > 0.5

    def test_alpha_zero_is_uniform(self):
        dist = ZipfPopularity(alpha=0.0, n_titles=100)
        assert dist.hit_rate(0.3) == pytest.approx(0.3)

    def test_title_probability_sums_to_one(self):
        dist = ZipfPopularity(alpha=0.9, n_titles=50)
        total = sum(dist.title_probability(r) for r in range(1, 51))
        assert total == pytest.approx(1.0)

    def test_title_probability_decreasing(self):
        dist = ZipfPopularity(alpha=0.9, n_titles=50)
        assert dist.title_probability(1) > dist.title_probability(2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfPopularity(alpha=-1, n_titles=10)
        with pytest.raises(ConfigurationError):
            ZipfPopularity(alpha=1, n_titles=0)
        with pytest.raises(ConfigurationError):
            ZipfPopularity(alpha=1, n_titles=10).title_probability(11)


class TestEmpiricalUnderDrift:
    """Edge cases the runtime's drift scenarios push the fit through."""

    def test_all_mass_on_one_title(self):
        # A fully focused flash crowd: every observation hits one title.
        dist = EmpiricalPopularity.from_counts([0.0, 0.0, 25.0, 0.0])
        assert dist.weights[0] == pytest.approx(1.0)
        assert all(w == pytest.approx(0.0) for w in dist.weights[1:])
        # Caching that single title is a perfect cache...
        assert dist.hit_rate(0.25) == pytest.approx(1.0)
        # ...and a partial prefix of it scales linearly.
        assert dist.hit_rate(0.125) == pytest.approx(0.5)
        assert dist.hit_rate(1.0) == pytest.approx(1.0)

    def test_empty_observation_window(self):
        # No counts at all is a configuration error...
        with pytest.raises(ConfigurationError):
            EmpiricalPopularity.from_counts([])
        # ...but an epoch with zero observed traffic (all-zero counts)
        # degrades to uniform rather than dividing by zero.
        dist = EmpiricalPopularity.from_counts([0.0, 0.0, 0.0, 0.0])
        assert dist.weights == (0.25,) * 4
        assert dist.hit_rate(0.5) == pytest.approx(0.5)

    def test_non_finite_counts_rejected(self):
        for bad in ([1.0, float("nan")], [float("inf"), 1.0]):
            with pytest.raises(ConfigurationError, match="counts"):
                EmpiricalPopularity.from_counts(bad)
        with pytest.raises(ConfigurationError, match="counts"):
            EmpiricalPopularity.from_counts([[1.0, 2.0]])
        with pytest.raises(ConfigurationError, match="weights"):
            EmpiricalPopularity(weights=(float("nan"), 1.0))

    def test_drift_rotation_is_rank_invariant(self):
        # Rotating which titles carry the head (the DriftEvent model)
        # must not change the fitted rank curve: hit_rate consumes
        # sorted shares.
        before = EmpiricalPopularity.from_counts([8.0, 4.0, 2.0, 1.0])
        after = EmpiricalPopularity.from_counts([1.0, 8.0, 4.0, 2.0])
        assert before.weights == after.weights
        for p in (0.1, 0.25, 0.5, 0.9):
            assert before.hit_rate(p) == pytest.approx(after.hit_rate(p))

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalPopularity(weights=(0.2, 0.8))


class TestBimodalSkewBoundary:
    """``skew``/``is_uniform`` across the 50:50 uniform boundary."""

    def test_uniform_boundary(self):
        dist = BimodalPopularity.parse("50:50")
        assert dist.is_uniform
        assert dist.skew == pytest.approx(1.0)
        assert dist.hit_rate(0.3) == pytest.approx(0.3)

    def test_just_across_the_boundary(self):
        dist = BimodalPopularity.parse("49:51")
        assert not dist.is_uniform
        assert dist.skew > 1.0
        assert dist.hit_rate(0.49) == pytest.approx(0.51)

    def test_crossing_below_uniform_rejected(self):
        # 51:49 would give the "popular" class less than its uniform
        # share; the constructor (and therefore parse) refuses.
        with pytest.raises(ConfigurationError):
            BimodalPopularity.parse("51:49")

    def test_skew_grows_with_concentration(self):
        skews = [BimodalPopularity.parse(spec).skew
                 for spec in ("50:50", "20:80", "5:95", "1:99")]
        assert skews == sorted(skews)
        assert skews[0] == pytest.approx(1.0)
