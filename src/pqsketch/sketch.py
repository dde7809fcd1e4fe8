"""The composed per-key sketch: frequency gate in front, value sketch behind.

Every stream item consults the counter tower first. Keys still below the gate
threshold only bump their counters and their value is dropped, so the value
sketch's cells are never wasted on one-off keys: only a key seen at least T
times starts feeding an estimator (its first T values are the admission fee
and are not recoverable). Capacity planning splits one byte budget between
the two stages and predicts how likely a bucket is to see more keys than it
has cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .hashing import _MASK, as_key, child_seed
from .quantiles import Value, check_count, check_weight
from .tower import DEFAULT_WIDTHS, TowerFilter
from .value_sketch import InsertResult, ValueSketch, as_ratio

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
    if buckets < 1:
        raise ValueError(f"bucket count must be positive, got {buckets!r}")
    if cells_per_bucket < 0:
        raise ValueError(f"cell count must be nonnegative, got {cells_per_bucket!r}")
    if entering_keys < 0:
        raise ValueError(f"key count must be nonnegative, got {entering_keys!r}")
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

    total_memory_bytes is split once: tower_fraction of it feeds the counter
    tower (divided evenly across its arrays), the rest buys value-sketch
    buckets. All randomness downstream derives from seed.
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
        check_count("total_memory_bytes", self.total_memory_bytes)
        if not 0.0 < self.tower_fraction < 1.0:
            raise ValueError(f"tower fraction must lie strictly inside (0, 1), got {self.tower_fraction!r}")
        if isinstance(self.gate_threshold, bool) or not isinstance(self.gate_threshold, int) or self.gate_threshold < 0:
            raise ValueError(f"gate threshold must be a nonnegative integer, got {self.gate_threshold!r}")
        # The tower's estimate never exceeds its widest counter's limit, so a
        # higher gate would never open; resident-first routing needs it to.
        top_limit = (1 << max(DEFAULT_WIDTHS)) - 1
        if self.gate_threshold > top_limit:
            raise ValueError(
                f"gate threshold {self.gate_threshold} can never open: the tower counts to at most {top_limit}"
            )
        check_count("cells per bucket", self.cells_per_bucket)
        object.__setattr__(self, "eviction_ratio", as_ratio(self.eviction_ratio))
        check_count("candidate_capacity", self.candidate_capacity, even=True)
        check_count("representative_capacity", self.representative_capacity, even=True)


@dataclass(frozen=True)
class CapacityPlan:
    """How a byte budget was spent."""

    buckets: int
    bucket_bytes: int
    tower_bytes_per_array: int
    tower_counters: tuple[int, ...]
    tower_bytes: int
    value_bytes: int
    total_bytes: int


def plan_capacity(params: SketchParams) -> CapacityPlan:
    """Resolve a parameter set into concrete array sizes.

    The tower gets floor(tower_fraction * total) bytes split evenly over its
    arrays; the remainder buys as many whole buckets as fit. The plan never
    exceeds the budget.

    :raises ValueError: "infeasible layout" when either stage rounds to zero.
    """
    per_bucket = bucket_bytes(
        params.cells_per_bucket, params.candidate_capacity, params.representative_capacity
    )
    fraction = Fraction(params.tower_fraction)
    tower_budget = int(fraction * params.total_memory_bytes)
    per_array = tower_budget // len(DEFAULT_WIDTHS)
    if per_array < 1:
        raise ValueError(
            f"infeasible layout: tower budget {tower_budget} bytes cannot cover "
            f"{len(DEFAULT_WIDTHS)} arrays"
        )
    counters = tuple(per_array * 8 // w for w in DEFAULT_WIDTHS)
    if min(counters) < 1:
        raise ValueError(
            f"infeasible layout: {per_array} bytes per array fit no {max(DEFAULT_WIDTHS)}-bit counter"
        )
    value_budget = int((1 - fraction) * params.total_memory_bytes)
    buckets = value_budget // per_bucket
    if buckets < 1:
        raise ValueError(
            f"infeasible layout: {value_budget} bytes cannot cover one {per_bucket}-byte bucket"
        )
    return CapacityPlan(
        buckets=buckets,
        bucket_bytes=per_bucket,
        tower_bytes_per_array=per_array,
        tower_counters=counters,
        tower_bytes=per_array * len(DEFAULT_WIDTHS),
        value_bytes=buckets * per_bucket,
        total_bytes=per_array * len(DEFAULT_WIDTHS) + buckets * per_bucket,
    )


class PerKeyQuantileSketch:
    """Frequency-gated per-key quantile estimation under one byte budget.

    insert() routes each item: keys whose tower estimate is still below the
    gate threshold pay into the tower and lose their value; everything else
    goes to the value sketch. The tower is never updated once a key's gate is
    open, so gated counts stay honest admission fees rather than growing
    without bound.
    """

    def __init__(self, params: SketchParams) -> None:
        self.params = params
        plan = plan_capacity(params)
        self.plan = plan
        self.tower = TowerFilter(
            plan.tower_bytes_per_array, DEFAULT_WIDTHS, seed=child_seed(params.seed, SEED_TOWER)
        )
        self.values = ValueSketch(
            plan.buckets,
            params.cells_per_bucket,
            eviction_ratio=params.eviction_ratio,
            candidate_capacity=params.candidate_capacity,
            representative_capacity=params.representative_capacity,
            quantile=params.quantile,
            seed=child_seed(params.seed, SEED_VALUES),
        )
        self.gate_threshold = params.gate_threshold

    @property
    def memory_bytes(self) -> int:
        return self.plan.total_bytes

    def insert(self, key: int, value: Value) -> InsertResult | None:
        """Feed one item. Returns None when the gate swallowed it.

        A key that holds a cell is fed without consulting the tower: its gate
        opened before it was placed, and stays open, because counters only
        grow and a saturated counter only leaves the min. Every other key
        takes one tower step and, once admitted, goes to the value sketch.

        A key that is not exactly an int goes through ``as_key`` before the
        lookup, and a key without a cell is range-checked before the tower, so
        only a checked key can get a cell. An admitted key is checked once:
        it goes straight to the value sketch's placement step.

        :raises ValueError: for a non-finite value, whether or not the key is
            still gated.
        """
        if type(key) is not int:
            key = as_key(key)
        values = self.values
        result = values.feed(key, value)
        if result is None:
            if not math.isfinite(value):
                raise ValueError(f"inserted values must be finite, got {value!r}")
            if not 0 <= key <= _MASK:
                as_key(key)  # raises the range error
            if self.tower.admit(key, self.gate_threshold):
                result = values._place(key, value)
        return result

    def query(self, key: int) -> Value:
        """Quantile estimate for a tracked key (KeyError: "not tracked")."""
        return self.values.query(key)

    def tracked_keys(self) -> list[int]:
        return self.values.keys()

    def __repr__(self) -> str:
        return (
            f"PerKeyQuantileSketch(w={self.params.quantile}, "
            f"memory={self.memory_bytes}B, buckets={self.plan.buckets})"
        )
