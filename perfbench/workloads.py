"""The benchmark's workloads and how one workload seed becomes its inputs.

One workload seed is split into a data seed and a sketch seed with numpy's
SeedSequence, so the inputs depend on the seed and on nothing the sketch
package could change. The sketch under test receives only the generated
(key, value) items.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pqsketch import (
    ParetoValues,
    SketchParams,
    StreamSpec,
    UniformKeys,
    ZipfKeys,
    generate,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    key_dist: str  # "zipf" (alpha 1.0) or "uniform"
    n_keys: int
    quantile: float
    n_items: int = 1_000_000
    memory_bytes: int = 500 * 1024


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zipf-p50",
            "Default desk-scale run: most items match a resident key, calibration is the identity, "
            "so it bypasses estimator and calibration changes",
            "zipf",
            10_000,
            0.5,
        ),
        Workload(
            "zipf-p90",
            "Same stream at w=0.9: every admitted item draws a geometric and pushes +inf sentinels, "
            "so estimator and calibration do their work; some queries fail",
            "zipf",
            10_000,
            0.9,
        ),
        Workload(
            "churn",
            "Uniform keys, 25k keys for 1862 cells, about T items per key: gating, rejection and "
            "eviction dominate, stressing tower, vote and per-cell setup",
            "uniform",
            25_000,
            0.5,
        ),
    )
}


def split_seed(seed: int) -> tuple[int, int]:
    """(data seed, sketch seed) derived from one workload seed."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    data_seed, sketch_seed = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64).tolist()
    return data_seed, sketch_seed


@dataclass(frozen=True)
class Inputs:
    """A workload's materialised stream and sketch parameters."""

    keys: np.ndarray
    values: np.ndarray
    key_list: list[int]
    value_list: list[float]
    params: SketchParams


def make_inputs(workload: Workload, seed: int) -> Inputs:
    data_seed, sketch_seed = split_seed(seed)
    key_dist = ZipfKeys(1.0) if workload.key_dist == "zipf" else UniformKeys()
    stream = generate(
        StreamSpec(
            n_items=workload.n_items,
            n_keys=workload.n_keys,
            key_dist=key_dist,
            value_dist=ParetoValues(1.0, 1.0),
            seed=data_seed,
        )
    )
    params = SketchParams(
        quantile=workload.quantile,
        total_memory_bytes=workload.memory_bytes,
        seed=sketch_seed,
    )
    return Inputs(stream.keys, stream.values, stream.keys.tolist(), stream.values.tolist(), params)
