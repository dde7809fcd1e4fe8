"""Tests for the geometric replication step that retargets the median."""
from __future__ import annotations

import copy
import pickle
import random
from operator import length_hint

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsketch import NEG_INF, POS_INF, Calibrator
from pqsketch.calibration import BLOCK

from models import draws


class TestParameters:
    def test_success_probability_above_half(self):
        assert Calibrator(0.9).p == pytest.approx(1 / 1.8)
        assert Calibrator(0.75).p == pytest.approx(1 / 1.5)

    def test_success_probability_below_half(self):
        assert Calibrator(0.1).p == pytest.approx(1 / 1.8)
        assert Calibrator(0.25).p == pytest.approx(1 / 1.5)

    def test_median_is_identity(self):
        c = Calibrator(0.5)
        assert c.p == 1.0
        assert c.sentinel is None

    def test_sentinel_side(self):
        assert Calibrator(0.9).sentinel == POS_INF
        assert Calibrator(0.1).sentinel == NEG_INF

    def test_weight_validation(self):
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                Calibrator(bad)

    def test_seed_must_be_an_int(self):
        # None would seed from OS entropy, and a stream could not be replayed.
        for bad in (1.5, True, "x", None):
            with pytest.raises(ValueError, match="seed"):
                Calibrator(0.9, bad)

    def test_endpoints_allowed(self):
        assert Calibrator(0.0).p == 0.5
        assert Calibrator(1.0).p == 0.5


class TestGeometricDraws:
    def test_identity_never_touches_rng(self):
        # An identity calibrator holds no generator at all, so no draw of
        # its can consume randomness.
        c = Calibrator(0.5, seed=123)
        assert c._rng is None
        for _ in range(200):
            assert c.sample_geometric() == 1

    def test_frozen_draw_sequence(self):
        # Replayed once by hand from the inverse CDF with p = 0.5 over the
        # first uniforms of np.random.default_rng(42): Z = ceil(ln(1 - U) / ln(1 - p)).
        c = Calibrator(1.0, seed=42)
        assert [c.sample_geometric() for _ in range(8)] == [3, 1, 3, 2, 1, 6, 3, 3]

    def test_same_seed_same_stream(self):
        a = Calibrator(0.8, seed=7)
        b = Calibrator(0.8, seed=7)
        assert [a.sample_geometric() for _ in range(500)] == [
            b.sample_geometric() for _ in range(500)
        ]

    def test_draws_start_at_one(self):
        c = Calibrator(0.99, seed=3)
        draws = [c.sample_geometric() for _ in range(20_000)]
        assert min(draws) == 1

    def test_mean_matches_inverse_p(self):
        # E[Z] = 1/p = 2 at the extreme weight; 10^5 draws put the sample
        # mean within a few standard errors of that.
        c = Calibrator(1.0, seed=123)
        n = 100_000
        mean = sum(c.sample_geometric() for _ in range(n)) / n
        assert mean == pytest.approx(2.0, abs=0.02)


class FixedUniforms:
    """Stands in for the generator: every block is the given uniforms, cycled."""

    def __init__(self, uniforms):
        self.uniforms = np.resize(np.array(uniforms, dtype=np.float64), BLOCK)

    def random(self, size):
        assert size == BLOCK
        return self.uniforms.copy()


class TestBlockDraws:
    @pytest.mark.parametrize("seed", [5, 2**63 + 7, -3])
    @pytest.mark.parametrize("w", [0.9, 0.99, 0.1, 1.0, 0.0])
    def test_draws_follow_the_geometric_pmf(self, w, seed):
        # Three block boundaries and part of a fourth block. Values of Z
        # whose expected count falls below 5 share one tail bin.
        scipy_stats = pytest.importorskip("scipy.stats")
        n = 3 * BLOCK + 500
        c = Calibrator(w, seed)
        p = c.p
        tail = 1
        while n * (1 - p) ** tail >= 5:
            tail += 1
        counts = np.bincount(np.minimum(draws(c, n), tail), minlength=tail + 1)
        assert counts[0] == 0
        pmf = [(1 - p) ** (z - 1) * p for z in range(1, tail)]
        expected = n * np.array(pmf + [(1 - p) ** (tail - 1)])
        assert scipy_stats.chisquare(counts[1:], expected).pvalue > 0.001

    @pytest.mark.parametrize("w", [1.0, 0.0])
    def test_worst_draw_fits_a_byte(self, w):
        # The largest U below 1 leaves 1 - U = 2^-53, and p = 1/2 is the
        # smallest p, so this is the largest Z of any weight: 53 or 54.
        # U = 0 gives the smallest, 1.
        c = Calibrator(w, seed=0)
        c._rng = FixedUniforms([0.0, 1.0 - 2.0**-53])
        low, high = draws(c, 2)
        assert low == 1
        assert 53 <= high <= 54 < 256

    def test_generator_waits_for_the_first_block(self):
        c = Calibrator(0.9, seed=1)
        assert c._rng is None
        draws(c, 1)
        assert c._rng is not None

    def test_copies_and_pickles_draw_on_from_the_same_place(self):
        # Copies taken before the first block, with the first block spent and
        # the next not yet drawn, and with a block in flight.
        c = Calibrator(0.9, seed=9)
        fresh = [copy.copy(c), pickle.loads(pickle.dumps(c))]
        spent = draws(c, BLOCK)
        assert c._rng is not None and length_hint(c.draws) == 0
        refill = [copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))]
        head = spent + draws(c, 100)
        twins = [copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))]
        rest = draws(c, BLOCK)
        assert head + rest == draws(Calibrator(0.9, seed=9), 2 * BLOCK + 100)
        for twin in twins:
            assert draws(twin, BLOCK) == rest
        for twin in refill:
            assert spent + draws(twin, BLOCK + 100) == head + rest
        for twin in fresh:
            assert draws(twin, 2 * BLOCK + 100) == head + rest

    def test_identity_copies_draw_ones(self):
        for twin in (copy.deepcopy(Calibrator(0.5)), pickle.loads(pickle.dumps(Calibrator(0.5, seed=4)))):
            assert twin.sentinel is None and twin._rng is None
            assert draws(twin, 10) == [1] * 10

    def test_copies_where_p_rounds_to_one_draw_ones(self):
        # Just below the median 2 - 2w rounds to 1: a sentinel side, but p = 1.
        cal = Calibrator(0.5 - 2**-54, seed=4)
        assert cal.sentinel == NEG_INF and cal.p == 1.0
        for twin in (copy.deepcopy(cal), pickle.loads(pickle.dumps(cal))):
            assert twin.sentinel == NEG_INF
            assert draws(twin, 10) == [1] * 10


class TestCalibrate:
    def test_frozen_low_weight_emission(self):
        # First draw at seed 0 is Z = 2, so one low-side sentinel leads.
        c = Calibrator(0.1, seed=0)
        assert c.calibrate(7.5) == [NEG_INF, 7.5]

    def test_median_weight_is_passthrough(self):
        c = Calibrator(0.5, seed=9)
        for v in (1.0, -3.5, 0.0):
            assert c.calibrate(v) == [v]

    def test_rejects_non_finite_input(self):
        c = Calibrator(0.7, seed=1)
        for bad in (POS_INF, NEG_INF, float("nan"), 10**400):
            with pytest.raises(ValueError, match="finite"):
                c.calibrate(bad)

    def test_rejects_bools_and_non_reals(self):
        c = Calibrator(0.7, seed=1)
        for bad in (True, False, "1", None, 1j):
            with pytest.raises(TypeError):
                c.calibrate(bad)
        assert draws(c, 50) == draws(Calibrator(0.7, seed=1), 50)

    @settings(max_examples=60)
    @given(
        w=st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 1.0]),
        seed=st.integers(0, 2**32),
        value=st.floats(-1e6, 1e6),
    )
    def test_emission_shape(self, w, seed, value):
        c = Calibrator(w, seed=seed)
        out = c.calibrate(value)
        assert out[-1] == value
        sentinel = POS_INF if w > 0.5 else NEG_INF
        assert all(x == sentinel for x in out[:-1])

    def test_sentinel_rate_matches_two_w_minus_one(self):
        # E[sentinels per value] = |2w - 1|; at w = 0.75 that is 0.5 and the
        # standard error over 10^5 values is about 0.003.
        c = Calibrator(0.75, seed=17)
        n = 100_000
        sentinels = sum(len(c.calibrate(1.0)) - 1 for _ in range(n))
        assert sentinels / n == pytest.approx(0.5, abs=0.02)

    def test_low_weight_sentinel_rate(self):
        c = Calibrator(0.2, seed=29)
        n = 100_000
        sentinels = sum(len(c.calibrate(1.0)) - 1 for _ in range(n))
        assert sentinels / n == pytest.approx(0.6, abs=0.02)


class TestRankTransport:
    def test_augmented_ranks_stay_uniform(self):
        # Feeding U(0,1) values through the replication step must keep the
        # augmented stream's rank distribution uniform: a finite value v
        # lands at rank v*p, a high-side sentinel draws from (p, 1].
        scipy_stats = pytest.importorskip("scipy.stats")
        w = 0.8
        c = Calibrator(w, seed=5)
        rng = random.Random(99)
        ranks = []
        while len(ranks) < 100_000:
            v = rng.random()
            for x in c.calibrate(v):
                if x == POS_INF:
                    ranks.append(c.p + (1 - c.p) * rng.random())
                else:
                    ranks.append(x * c.p)
        result = scipy_stats.kstest(ranks[:100_000], "uniform")
        assert result.pvalue > 0.01

    def test_target_quantile_of_augmented_stream(self):
        # The median of the augmented stream should sit at rank w of the
        # original distribution: p * w_original = 0.5 when w > 0.5.
        w = 0.9
        c = Calibrator(w, seed=31)
        rng = random.Random(7)
        augmented = []
        for _ in range(200_000):
            augmented.extend(c.calibrate(rng.random()))
        augmented.sort()
        median = augmented[(len(augmented) - 1) // 2]
        assert median == pytest.approx(w, abs=0.01)

    def test_low_weight_target_quantile(self):
        w = 0.2
        c = Calibrator(w, seed=43)
        rng = random.Random(11)
        augmented = []
        for _ in range(200_000):
            augmented.extend(c.calibrate(rng.random()))
        augmented.sort()
        median = augmented[(len(augmented) - 1) // 2]
        assert median == pytest.approx(w, abs=0.01)

    def test_finite_fraction_is_p(self):
        c = Calibrator(0.9, seed=3)
        n = 50_000
        total = sum(len(c.calibrate(0.0)) for _ in range(n))
        assert n / total == pytest.approx(1 / 1.8, abs=0.01)
