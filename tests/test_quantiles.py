"""Tests for the exact quantile/rank core all sketch output is judged against."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsketch import (
    ExactOracle,
    average_error,
    exact_quantile,
    nearest_value,
    rank_of,
    rank_toward,
)
from pqsketch.quantiles import quantile_index


def brute_force_lowest_rank(values, x):
    """Reference ranker: enumerate every position of x, take the minimum."""
    ordered = sorted(values)
    positions = [k for k, v in enumerate(ordered) if v == x]
    if not positions:
        raise ValueError("absent")
    if len(ordered) == 1:
        return 0.5
    return min(positions) / (len(ordered) - 1)


class TestExactQuantile:
    def test_median_of_1_to_10(self):
        assert exact_quantile(list(range(1, 11)), 0.5) == 5

    def test_extremes(self):
        values = [7, 3, 11, 5]
        assert exact_quantile(values, 0.0) == 3
        assert exact_quantile(values, 1.0) == 11

    def test_single_value(self):
        assert exact_quantile([9], 0.0) == 9
        assert exact_quantile([9], 1.0) == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            exact_quantile([], 0.5)

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError, match="quantile weight"):
            exact_quantile([1, 2], 1.5)
        with pytest.raises(ValueError, match="NaN"):
            exact_quantile([1, 2], float("nan"))

    def test_index_is_exact_for_one_third(self):
        # Binary float 1/3 is strictly below a third, so the exact index at
        # n=4 is 0; naive floor(w * (n - 1)) rounds up to 1.0 and gets 1.
        w = 1 / 3
        assert math.floor(w * 3) == 1
        assert quantile_index(4, w) == 0
        assert exact_quantile([10, 20, 30, 40], w) == 10

    @given(
        values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=60),
        num=st.integers(0, 64),
        den=st.integers(1, 64),
    )
    def test_matches_fraction_reference(self, values, num, den):
        if num > den:
            num, den = den, num
        w = num / den
        ordered = sorted(values)
        frac = Fraction(w)
        idx = int((frac.numerator * (len(values) - 1)) // frac.denominator)
        assert exact_quantile(values, w) == ordered[idx]

    @given(values=st.lists(st.integers(-100, 100), min_size=2, max_size=50),
           w1=st.floats(0, 1), w2=st.floats(0, 1))
    def test_monotone_in_w(self, values, w1, w2):
        if w1 > w2:
            w1, w2 = w2, w1
        assert exact_quantile(values, w1) <= exact_quantile(values, w2)


class TestRankOf:
    def test_all_duplicates_take_lowest_position(self):
        # Brute-force reference agrees: positions {0, 1, 2}, minimum 0.
        assert brute_force_lowest_rank([5, 5, 5], 5) == 0.0
        assert rank_of([5, 5, 5], 5) == 0.0

    def test_singleton_is_half(self):
        assert rank_of([17], 17) == 0.5

    def test_plain_ranks(self):
        values = [10, 20, 30, 40, 50]
        assert rank_of(values, 10) == 0.0
        assert rank_of(values, 30) == 0.5
        assert rank_of(values, 50) == 1.0

    def test_absent_value_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            rank_of([1, 2, 3], 4)
        with pytest.raises(ValueError, match="empty"):
            rank_of([], 4)

    @given(values=st.lists(st.integers(-50, 50), min_size=1, max_size=40), pick=st.integers(0, 39))
    def test_matches_brute_force(self, values, pick):
        x = values[pick % len(values)]
        assert rank_of(values, x) == brute_force_lowest_rank(values, x)

    @given(values=st.lists(st.integers(-1000, 1000), min_size=2, max_size=60),
           w=st.floats(0, 1))
    def test_quantile_rank_round_trip(self, values, w):
        # The w-quantile's rank can sit below w only by tie collapse, and can
        # never exceed w by more than one rank step.
        q = exact_quantile(values, w)
        r = rank_of(values, q)
        assert r <= w + 1.0 / (len(values) - 1) + 1e-12
        assert rank_toward(sorted(values), q, w) <= w + 1.0 / (len(values) - 1) + 1e-12


class TestRankToward:
    def test_unique_values_match_rank_of(self):
        values = [1, 2, 3, 4, 5]
        for x in values:
            for w in (0.0, 0.3, 0.5, 1.0):
                assert rank_toward(values, x, w) == rank_of(values, x)

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


class TestExactOracle:
    def test_matches_sort_then_index_reference(self):
        rng = random.Random(2)
        oracle = ExactOracle()
        store: dict[int, list[int]] = {}
        for _ in range(10_000):
            key = rng.randrange(10)
            value = rng.randrange(1000)
            oracle.insert(key, value)
            store.setdefault(key, []).append(value)
        for key, values in store.items():
            ordered = sorted(values)
            assert oracle.count(key) == len(values)
            for w in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
                frac = Fraction(w)
                idx = int((frac.numerator * (len(values) - 1)) // frac.denominator)
                assert oracle.query(key, w) == ordered[idx]

    def test_unknown_key_is_absent(self):
        oracle = ExactOracle()
        oracle.insert(1, 5.0)
        with pytest.raises(KeyError, match="absent"):
            oracle.query(2, 0.5)

    def test_rejects_non_finite(self):
        oracle = ExactOracle()
        with pytest.raises(ValueError, match="finite"):
            oracle.insert(1, float("inf"))

    def test_sorted_view_tracks_inserts(self):
        oracle = ExactOracle()
        oracle.insert(1, 5)
        assert oracle.sorted_values(1) == [5]
        oracle.insert(1, 3)
        assert oracle.sorted_values(1) == [3, 5]


class TestAverageError:
    def test_two_key_example(self):
        oracle = ExactOracle()
        for v in range(21):
            oracle.insert(1, v)
            oracle.insert(2, v)
        # Ranks 9/20 = 0.45 and 13/20 = 0.65 against w = 0.5.
        err = average_error([(1, 9), (2, 13)], oracle, 0.5)
        assert err == pytest.approx(0.1)

    def test_perfect_constant_key_scores_zero(self):
        oracle = ExactOracle()
        for _ in range(100):
            oracle.insert(7, 5.0)
        assert average_error([(7, 5.0)], oracle, 0.5) == 0.0

    def test_snaps_to_nearest_present_value(self):
        oracle = ExactOracle()
        for v in (1.0, 2.0, 3.0):
            oracle.insert(1, v)
        # 2.1 snaps to 2.0, rank 0.5, so the error is 0 at w = 0.5.
        assert average_error([(1, 2.1)], oracle, 0.5) == 0.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="no queries"):
            average_error([], ExactOracle(), 0.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError, match="absent"):
            average_error([(9, 1.0)], ExactOracle(), 0.5)

    def test_non_finite_estimate_rejected(self):
        oracle = ExactOracle()
        oracle.insert(1, 1.0)
        with pytest.raises(ValueError, match="finite"):
            average_error([(1, float("inf"))], oracle, 0.5)

    @settings(max_examples=50)
    @given(
        values=st.lists(st.integers(-40, 40), min_size=2, max_size=30),
        picks=st.lists(st.integers(0, 29), min_size=1, max_size=5),
        w=st.floats(0, 1),
    )
    def test_invariant_under_increasing_transform(self, values, picks, w):
        estimates = [values[p % len(values)] for p in picks]

        def build(transform):
            oracle = ExactOracle()
            for v in values:
                oracle.insert(0, transform(v))
            return average_error([(0, transform(e)) for e in estimates], oracle, w)

        plain = build(lambda v: v)
        assert build(lambda v: 2 * v + 1) == plain
        assert build(lambda v: v**3) == plain
