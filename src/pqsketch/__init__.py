"""Streaming per-key point-quantile sketches with frequency-gated admission."""

from .bench import TIMING_FIELDS, StreamReport, run_benchmark
from .calibration import Calibrator
from .datagen import (
    ExponentialValues,
    ParetoValues,
    Stream,
    StreamSpec,
    UniformKeys,
    UniformValues,
    ZipfKeys,
    generate,
    parse_stream_spec,
    read_csv,
    write_csv,
)
from .estimator import PointEstimator
from .quantiles import (
    NEG_INF,
    POS_INF,
    nearest_value,
    rank_error,
    rank_toward,
)
from .sketch import (
    CapacityPlan,
    PerKeyQuantileSketch,
    SketchParams,
    bucket_bytes,
    collision_probability,
    plan_capacity,
)
from .tower import TowerFilter
from .value_sketch import InsertOutcome, InsertResult, ValueSketch

__version__ = "0.1.0"

__all__ = [
    "Calibrator",
    "CapacityPlan",
    "ExponentialValues",
    "InsertOutcome",
    "InsertResult",
    "NEG_INF",
    "POS_INF",
    "ParetoValues",
    "PerKeyQuantileSketch",
    "PointEstimator",
    "SketchParams",
    "Stream",
    "StreamReport",
    "StreamSpec",
    "TIMING_FIELDS",
    "TowerFilter",
    "UniformKeys",
    "UniformValues",
    "ValueSketch",
    "ZipfKeys",
    "bucket_bytes",
    "collision_probability",
    "generate",
    "nearest_value",
    "parse_stream_spec",
    "plan_capacity",
    "rank_error",
    "rank_toward",
    "read_csv",
    "run_benchmark",
    "write_csv",
    "__version__",
]
