"""Tests for the rank convention and the one scoring rule all sketch output is judged by."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsketch import nearest_value, rank_error, rank_toward


def brute_force_rank(values, x, w):
    """Reference ranker: enumerate every position of x, clamp w into them."""
    ordered = sorted(values)
    positions = [k for k, v in enumerate(ordered) if v == x]
    if not positions:
        raise ValueError("absent")
    if len(ordered) == 1:
        return 0.5
    return min(max(w, min(positions) / (len(ordered) - 1)), max(positions) / (len(ordered) - 1))


class TestRankOf:
    """The rank of a value present in the multiset, as rank_toward gives it."""

    def test_singleton_is_half(self):
        for w in (0.0, 0.5, 0.9, 1.0):
            assert rank_toward([17], 17, w) == 0.5

    def test_plain_ranks(self):
        values = [10, 20, 30, 40, 50]
        assert rank_toward(values, 10, 0.5) == 0.0
        assert rank_toward(values, 30, 0.9) == 0.5
        assert rank_toward(values, 50, 0.1) == 1.0

    def test_absent_value_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            rank_toward([1, 2, 3], 4, 0.5)
        with pytest.raises(ValueError, match="empty"):
            rank_toward([], 4, 0.5)

    @given(
        values=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
        pick=st.integers(0, 39),
        w=st.floats(0, 1),
    )
    def test_matches_brute_force(self, values, pick, w):
        x = values[pick % len(values)]
        assert rank_toward(sorted(values), x, w) == brute_force_rank(values, x, w)


class TestRankToward:
    def test_unique_values_match_rank_of(self):
        # A unique value has one position k, so its rank is k / (n - 1) at every w.
        values = [10, 20, 30, 40, 50]
        for k, x in enumerate(values):
            for w in (0.0, 0.3, 0.5, 1.0):
                assert rank_toward(values, x, w) == k / 4

    def test_duplicates_resolve_toward_target(self):
        values = [5, 5, 5]
        assert rank_toward(values, 5, 0.5) == 0.5
        assert rank_toward(values, 5, 0.9) == 0.9
        assert rank_toward(values, 5, 0.0) == 0.0

    def test_partial_tie_block(self):
        values = [1, 7, 7, 7, 9]  # ranks of 7: {0.25, 0.5, 0.75}
        assert rank_toward(values, 7, 0.5) == 0.5
        assert rank_toward(values, 7, 0.1) == 0.25
        assert rank_toward(values, 7, 0.99) == 0.75

    def test_absent_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            rank_toward([1, 2], 3, 0.5)

    def test_weight_checked(self):
        with pytest.raises(ValueError, match="quantile weight"):
            rank_toward([1, 2], 1, 1.5)
        with pytest.raises(ValueError, match="NaN"):
            rank_toward([1, 2], 1, float("nan"))


class TestNearestValue:
    def test_exact_hit(self):
        assert nearest_value([1, 3, 9], 3) == 3

    def test_tie_prefers_smaller(self):
        assert nearest_value([1, 3], 2) == 1

    def test_closest_side_wins(self):
        assert nearest_value([1, 10], 8) == 10
        assert nearest_value([1, 10], 2) == 1

    def test_clamps_to_ends(self):
        assert nearest_value([4, 5], -100) == 4
        assert nearest_value([4, 5], 100) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nearest_value([], 1)


class TestAverageError:
    """Average Error is the mean over the scored keys of rank_error's |rank - w|."""

    def test_two_key_example(self):
        values = list(range(21))
        # Ranks 9/20 = 0.45 and 13/20 = 0.65 against w = 0.5.
        first = rank_error(values, 9, 0.5)
        second = rank_error(values, 13, 0.5)
        assert first == pytest.approx((0.45, 0.05))
        assert second == pytest.approx((0.65, 0.15))
        assert (first[1] + second[1]) / 2 == pytest.approx(0.1)

    def test_perfect_constant_key_scores_zero(self):
        for w in (0.0, 0.5, 0.9):
            assert rank_error([5.0] * 100, 5.0, w) == (w, 0.0)

    def test_snaps_to_nearest_present_value(self):
        # 2.1 snaps to 2.0, rank 0.5, so the error is 0 at w = 0.5.
        assert rank_error([1.0, 2.0, 3.0], 2.1, 0.5) == (0.5, 0.0)
        # Beyond either end it snaps to that end.
        assert rank_error([1.0, 2.0, 3.0], 99.0, 0.5) == (1.0, 0.5)
        assert rank_error([1.0, 2.0, 3.0], -99.0, 0.5) == (0.0, 0.5)

    @settings(max_examples=50)
    @given(
        values=st.lists(st.integers(-40, 40), min_size=2, max_size=30),
        picks=st.lists(st.integers(0, 29), min_size=1, max_size=5),
        w=st.floats(0, 1),
    )
    def test_invariant_under_increasing_transform(self, values, picks, w):
        estimates = [values[p % len(values)] for p in picks]

        def average(transform):
            ordered = sorted(transform(v) for v in values)
            errors = [rank_error(ordered, transform(e), w)[1] for e in estimates]
            return sum(errors) / len(errors)

        plain = average(lambda v: v)
        assert average(lambda v: 2 * v + 1) == plain
        assert average(lambda v: v**3) == plain
