"""The composed per-key sketch: the value sketch's key table with the counter tower as its gate.

A key's values are dropped until the tower has seen it T times, so the
table's cells are never wasted on one-off keys: its first T values are the
admission fee and are not recoverable. Capacity planning splits one byte
budget between the two stages and predicts how likely a bucket is to see
more keys than it has cells.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .hashing import check_seed, child_seed
from .quantiles import check_count, check_weight
from .tower import TOP_LIMIT, WIDTHS, TowerFilter, layer_counters
from .value_sketch import ValueSketch, as_ratio

# Accounted bytes per tracked cell: an 8-byte key, a 4-byte positive vote, and
# 9 bytes (8-byte value + tag byte) per buffered entry across both estimator
# buffers. Each bucket adds one shared 4-byte negative vote.
KEY_BYTES = 8
VOTE_BYTES = 4
ENTRY_BYTES = 9

# Child-seed tags for the independent randomness consumers under one run seed.
SEED_TOWER = 0
SEED_VALUES = 1
SEED_SINGLE = 2
SEED_DATA = 3


def bucket_bytes(cells_per_bucket: int, candidate_capacity: int, representative_capacity: int) -> int:
    """Accounted size of one bucket of the value sketch."""
    per_cell = KEY_BYTES + VOTE_BYTES + (candidate_capacity + representative_capacity) * ENTRY_BYTES
    return cells_per_bucket * per_cell + VOTE_BYTES


def collision_probability(entering_keys: int, buckets: int, cells_per_bucket: int) -> float:
    """Probability that a given bucket attracts more keys than it has cells.

    Models the entering keys as hashing uniformly into the buckets, so a
    bucket's load is Poisson with mean H / u and the overflow probability is
    1 - e^(-H/u) * sum_{i=0..d} (H/u)^i / i!. Evaluated in log space so large
    loads and large d cannot overflow.
    """
    check_count("bucket count", buckets)
    check_count("cell count", cells_per_bucket, nonnegative=True)
    check_count("key count", entering_keys, nonnegative=True)
    if entering_keys == 0:
        return 0.0
    load = entering_keys / buckets
    log_load = math.log(load)
    log_terms = [i * log_load - math.lgamma(i + 1) for i in range(cells_per_bucket + 1)]
    peak = max(log_terms)
    log_sum = peak + math.log(math.fsum(math.exp(t - peak) for t in log_terms))
    p = -math.expm1(log_sum - load)
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class SketchParams:
    """Full configuration of a composed sketch.

    plan_capacity splits total_memory_bytes; all randomness derives from seed.
    quantile and tower_fraction are stored as floats, eviction_ratio as as_ratio's Fraction.
    """

    quantile: float = 0.5
    total_memory_bytes: int = 500 * 1024
    tower_fraction: float = 0.1
    gate_threshold: int = 40
    cells_per_bucket: int = 7
    eviction_ratio: Fraction = Fraction(4)
    candidate_capacity: int = 16
    representative_capacity: int = 10
    seed: int = 1

    def __post_init__(self) -> None:
        check_weight(self.quantile)
        object.__setattr__(self, "quantile", float(self.quantile))
        check_count("total_memory_bytes", self.total_memory_bytes)
        fraction = self.tower_fraction
        # The float test catches a fraction that rounds to 0 or 1.
        if not isinstance(fraction, numbers.Real) or not 0.0 < fraction < 1.0 or not 0.0 < float(fraction) < 1.0:
            raise ValueError(f"tower fraction must be a real number strictly inside (0, 1), got {fraction!r}")
        object.__setattr__(self, "tower_fraction", float(fraction))
        check_count("gate threshold", self.gate_threshold, nonnegative=True)
        # The tower's estimate never exceeds TOP_LIMIT, so a higher gate would
        # never open; resident-first routing needs it to.
        if self.gate_threshold > TOP_LIMIT:
            raise ValueError(
                f"gate threshold {self.gate_threshold} can never open: the tower counts to at most {TOP_LIMIT}"
            )
        check_count("cells per bucket", self.cells_per_bucket)
        object.__setattr__(self, "eviction_ratio", as_ratio(self.eviction_ratio))
        check_count("candidate_capacity", self.candidate_capacity, even=True)
        check_count("representative_capacity", self.representative_capacity, even=True)
        check_seed(self.seed)


@dataclass(frozen=True)
class CapacityPlan:
    """How a byte budget was spent. A bucket costs ``bucket_bytes(d, r, s)``;
    the tower's arrays hold ``layer_counters(tower_bytes_per_array)``."""

    buckets: int
    tower_bytes_per_array: int
    total_bytes: int


def plan_capacity(params: SketchParams) -> CapacityPlan:
    """Resolve a parameter set into concrete array sizes.

    The tower gets floor(tower_fraction * total) bytes split evenly over its
    arrays; the remainder buys as many whole buckets as fit. The plan never
    exceeds the budget.

    :raises ValueError: "infeasible layout" when the tower's arrays fit no
        counter (see layer_counters) or the rest fits no bucket.
    """
    per_bucket = bucket_bytes(
        params.cells_per_bucket, params.candidate_capacity, params.representative_capacity
    )
    fraction = Fraction(params.tower_fraction)
    tower_budget = int(fraction * params.total_memory_bytes)
    per_array = tower_budget // len(WIDTHS)
    layer_counters(per_array)  # raises when the arrays fit no counter
    value_budget = int((1 - fraction) * params.total_memory_bytes)
    buckets = value_budget // per_bucket
    if buckets < 1:
        raise ValueError(
            f"infeasible layout: {value_budget} bytes cannot cover one {per_bucket}-byte bucket"
        )
    total = per_array * len(WIDTHS) + buckets * per_bucket
    return CapacityPlan(buckets=buckets, tower_bytes_per_array=per_array, total_bytes=total)


class PerKeyQuantileSketch(ValueSketch):
    """Frequency-gated per-key quantile estimation under one byte budget.

    The key table of ``ValueSketch``, sized by ``plan_capacity``, with the
    counter tower as its gate at T = ``params.gate_threshold``.
    """

    def __init__(self, params: SketchParams) -> None:
        self.params = params
        plan = plan_capacity(params)
        self.plan = plan
        super().__init__(
            plan.buckets,
            params.cells_per_bucket,
            eviction_ratio=params.eviction_ratio,
            candidate_capacity=params.candidate_capacity,
            representative_capacity=params.representative_capacity,
            quantile=params.quantile,
            seed=child_seed(params.seed, SEED_VALUES),
        )
        self.tower = TowerFilter(
            plan.tower_bytes_per_array, seed=child_seed(params.seed, SEED_TOWER), buckets=plan.buckets
        )
        self._admit = self.tower.admit
        self.gate_threshold = params.gate_threshold

    def __repr__(self) -> str:
        return (
            f"PerKeyQuantileSketch(w={self.params.quantile}, "
            f"memory={self.plan.total_bytes}B, buckets={self.plan.buckets})"
        )
