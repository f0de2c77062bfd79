"""Differential tests: the vectorized prefix replan against its scalar model.

:mod:`tests.prefix_reference` keeps the per-title loops the replan ran
before it became array operations.  Every comparison here is exact —
``==`` on floats and tuples — because the replan feeds seeded output
(the golden digests and the ``runtime --config`` JSON), where a moved
last bit is a behaviour change.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.popularity import (
    EmpiricalPopularity,
    ordered_sum,
    rank_titles,
)
from repro.vod import AdaptiveReplacement, PrefixAllocation
from repro.vod.placement import _diff
from tests import prefix_reference as ref

#: Scores drawn partly from a small pool, so ties and zeros are common.
_SCORE = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 1.2, 2.5, 0.1, 7.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False))
_SCORES = st.lists(_SCORE, min_size=1, max_size=40)


@st.composite
def _fills(draw):
    """One rebalance call: scores, resident set and byte geometry."""
    scores = draw(_SCORES)
    n = len(scores)
    resident = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    base = draw(st.floats(min_value=1.0, max_value=1e9,
                          allow_nan=False, allow_infinity=False))
    max_bytes = base * draw(st.sampled_from([1.0, 1.0, 1.5, 6.0, 1e3]))
    budget = draw(st.one_of(
        # below the base prefix: nothing is resident
        st.floats(min_value=0.0, max_value=base, exclude_max=True),
        # an exact multiple of the full prefix
        st.integers(min_value=0, max_value=n + 2).map(
            lambda m: m * max_bytes),
        st.floats(min_value=0.0, max_value=(n + 2) * max_bytes)))
    return dict(scores=scores, resident=tuple(sorted(resident)),
                hysteresis=draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])),
                base_bytes=base, max_bytes=max_bytes, budget_bytes=budget,
                title_bytes=max_bytes * draw(st.sampled_from([1.0, 2.5])))


def _rebalance(fill) -> PrefixAllocation:
    return AdaptiveReplacement(hysteresis=fill["hysteresis"]).rebalance(
        fill["scores"], base_bytes=fill["base_bytes"],
        max_bytes=fill["max_bytes"], budget_bytes=fill["budget_bytes"],
        title_bytes=fill["title_bytes"], resident=fill["resident"])


def _reference(fill) -> tuple[float, ...]:
    return ref.rebalance(
        fill["scores"], hysteresis=fill["hysteresis"],
        base_bytes=fill["base_bytes"], max_bytes=fill["max_bytes"],
        budget_bytes=fill["budget_bytes"], resident=fill["resident"])


class TestRebalance:
    @settings(max_examples=300, deadline=None)
    @given(fill=_fills())
    def test_matches_scalar_fill(self, fill):
        allocation = _rebalance(fill)
        expected = _reference(fill)
        assert allocation.prefix_bytes == expected
        assert allocation.resident_titles == tuple(
            t for t, size in enumerate(expected) if size > 0)
        assert allocation.total_bytes == ref.left_sum(expected)

    @pytest.mark.parametrize("case", [
        # tied scores: lower id first
        dict(scores=[1.0, 1.0, 1.0, 1.0], budget_bytes=250.0),
        # all-zero scores
        dict(scores=[0.0, 0.0, 0.0], budget_bytes=1e3),
        # budget below base_bytes
        dict(scores=[3.0, 2.0], budget_bytes=9.99),
        # budget an exact multiple of max_bytes
        dict(scores=[3.0, 1.0, 2.0, 0.5], budget_bytes=300.0),
        dict(scores=[0.3, 0.1, 0.2], budget_bytes=3 * 0.1, base_bytes=0.01,
             max_bytes=0.1),
        # max_bytes == base_bytes
        dict(scores=[1.0, 5.0, 3.0], budget_bytes=25.0, max_bytes=10.0),
        # a single title
        dict(scores=[4.0], budget_bytes=1e9),
        dict(scores=[0.0], budget_bytes=5.0),
        # hysteresis flips a near tie towards the resident title
        dict(scores=[1.1, 1.0, 0.9], budget_bytes=100.0, resident=(1, 2),
             hysteresis=0.2),
        # the bonus lands exactly on the challenger (1.0 * 1.2 == 1.2):
        # a tie, which the lower id wins
        dict(scores=[1.2, 1.0], budget_bytes=100.0, resident=(1,),
             hysteresis=0.2),
    ])
    def test_named_edges(self, case):
        fill = dict(resident=(), hysteresis=0.0, base_bytes=10.0,
                    max_bytes=100.0, title_bytes=1e3)
        fill.update(case)
        assert _rebalance(fill).prefix_bytes == _reference(fill)


class TestMemsFraction:
    @settings(max_examples=200, deadline=None)
    @given(fill=_fills(), data=st.data())
    def test_matches_scalar_share(self, fill, data):
        allocation = _rebalance(fill)
        raw = data.draw(st.lists(
            st.floats(min_value=1e-3, max_value=1e3),
            min_size=len(fill["scores"]), max_size=len(fill["scores"])))
        total = ref.left_sum(raw)
        weights = [w / total for w in raw]
        assert allocation.mems_fraction(weights) == ref.mems_fraction(
            allocation.prefix_bytes, allocation.title_bytes, weights)


class TestDiff:
    @settings(max_examples=200, deadline=None)
    @given(fill=_fills(), data=st.data())
    def test_matches_set_differences(self, fill, data):
        before = _rebalance(fill)
        n = len(fill["scores"])
        after_fill = dict(
            fill, scores=data.draw(st.lists(_SCORE, min_size=n, max_size=n)),
            resident=before.resident_titles,
            budget_bytes=data.draw(st.floats(
                min_value=0.0, max_value=(n + 1) * fill["max_bytes"])))
        after = _rebalance(after_fill)
        assert _diff(before, after) == ref.diff(
            before.prefix_bytes, after.prefix_bytes, after.title_bytes)
        assert _diff(None, after) == ref.diff(
            None, after.prefix_bytes, after.title_bytes)


class TestPopularity:
    @settings(max_examples=200, deadline=None)
    @given(counts=_SCORES)
    def test_from_counts_matches_scalar(self, counts):
        expected = ref.from_counts(counts)
        assert EmpiricalPopularity.from_counts(counts).weights == expected
        # Any iterable is accepted, generators included.
        assert EmpiricalPopularity.from_counts(
            c for c in counts).weights == expected

    @settings(max_examples=200, deadline=None)
    @given(scores=_SCORES)
    def test_rank_matches_sorted(self, scores):
        assert rank_titles(np.array(scores)).tolist() == ref.rank(scores)

    def test_left_to_right_total(self):
        # 0.1 added ten times left to right; a compensated sum (Python
        # 3.12's ``sum()``) or numpy's pairwise ``np.sum`` may round to
        # 1.0 instead.
        tenths = [0.1] * 10
        assert ordered_sum(tenths) == 0.9999999999999999
        assert ordered_sum(tenths) == ref.left_sum(tenths)
        assert EmpiricalPopularity(
            weights=tuple(tenths)).hit_rate(1.0) == 0.9999999999999999
        allocation = PrefixAllocation(prefix_bytes=tenths, title_bytes=0.1)
        assert allocation.total_bytes == 0.9999999999999999
        assert allocation.mems_fraction(tenths) == 0.9999999999999999
        assert ordered_sum([]) == 0.0


@pytest.mark.parametrize("module", [
    "core/popularity.py", "vod/prefix.py", "vod/replacement.py",
    "vod/placement.py", "runtime/placement.py"])
def test_no_builtin_sum_in_replan_modules(module):
    # Totals here reach seeded output; they go through ordered_sum, not
    # the interpreter-dependent builtin.
    tree = ast.parse((Path(repro.__file__).parent / module).read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "sum"]
    assert calls == []
