"""Synthetic key/value streams and the key,value CSV interchange format.

Streams are columnar (one uint64 key array, one float64 value array) so a
10^7-item benchmark stream costs ~160 MB instead of a gigabyte of tuples.
Key draws use an explicit cumulative table + binary search and value draws use
explicit inverse CDFs over one seeded uniform source, so a (spec, seed) pair
pins the stream bit for bit.

CSV format: one "key,value" pair per line, LF terminated; keys are unsigned
decimal integers written as digits only, values are decimal integers or
finite reals without "_" (both parse to float64); blank lines and lines
starting with "#" are ignored.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import re
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .hashing import as_key
from .quantiles import check_count


class _Dist:
    """A distribution, named in _KEY_KINDS or _VALUE_KINDS; its parameters are its fields."""

    def __post_init__(self, positive: bool = True) -> None:
        """The one rule for a distribution's parameters: each a finite real
        number, not a bool, and positive unless ``positive`` is False. Each is
        stored as a float, the type ``parse_stream_spec`` reads, so
        ``spec_text`` round-trips.
        """
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            try:
                x = math.nan if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)
            except OverflowError:  # an int or a Fraction too large for a float
                x = math.nan
            if not math.isfinite(x) or (positive and x <= 0):
                kind = "positive and finite" if positive else "a finite real number"
                raise ValueError(f"{type(self).__name__} {field.name} must be {kind}, got {value!r}")
            object.__setattr__(self, field.name, x)

    def spec_text(self) -> str:
        """The distribution as ``parse_stream_spec`` reads it: "name(arg,...)"."""
        name = next(n for n, kind in (*_KEY_KINDS.items(), *_VALUE_KINDS.items()) if kind is type(self))
        args = ",".join(str(getattr(self, field.name)) for field in dataclasses.fields(self))
        return f"{name}({args})" if args else name


@dataclass(frozen=True)
class ZipfKeys(_Dist):
    """Keys 1..n_keys with probability proportional to 1 / rank^alpha."""

    alpha: float = 1.0


@dataclass(frozen=True)
class UniformKeys(_Dist):
    pass


@dataclass(frozen=True)
class ParetoValues(_Dist):
    alpha: float = 1.0
    x_min: float = 1.0


@dataclass(frozen=True)
class ExponentialValues(_Dist):
    rate: float = 1.0


@dataclass(frozen=True)
class UniformValues(_Dist):
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__(positive=False)
        if self.lo > self.hi:
            raise ValueError(f"uniform bounds must satisfy lo <= hi, got ({self.lo!r}, {self.hi!r})")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"uniform width hi - lo must be finite, got ({self.lo!r}, {self.hi!r})")


KeyDist = Union[ZipfKeys, UniformKeys]
ValueDist = Union[ParetoValues, ExponentialValues, UniformValues]


@dataclass(frozen=True)
class StreamSpec:
    n_items: int = 1_000_000
    n_keys: int = 10_000
    key_dist: KeyDist = ZipfKeys(1.0)
    value_dist: ValueDist = ParetoValues(1.0, 1.0)
    seed: int = 1

    def __post_init__(self) -> None:
        check_count("n_items", self.n_items, nonnegative=True)
        check_count("n_keys", self.n_keys)

    def describe(self) -> dict:
        """Config-echo form used in benchmark reports."""
        return {
            "source": "synthetic",
            "n_items": self.n_items,
            "n_keys": self.n_keys,
            "key_dist": self.key_dist.spec_text(),
            "value_dist": self.value_dist.spec_text(),
        }


CHUNK = 65536


class Stream:
    """Columnar (key, value) sequence: keys in [0, 2^64), finite float64 values."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        if keys.shape != values.shape or keys.ndim != 1:
            raise ValueError("keys and values must be 1-d arrays of equal length")
        # Checked before the uint64 cast, which wraps -1 and truncates 1.7.
        if not np.issubdtype(keys.dtype, np.integer):
            raise TypeError(f"keys must be an integer array, got dtype {keys.dtype}")
        if keys.size and keys.min() < 0:
            raise ValueError(f"key {keys.min()} outside the unsigned 64-bit range")
        # Checked before the float64 cast, which drops an imaginary part and
        # parses strings; bools are neither integer nor floating here.
        if not (np.issubdtype(values.dtype, np.integer) or np.issubdtype(values.dtype, np.floating)):
            raise TypeError(f"values must be an integer or floating array, got dtype {values.dtype}")
        self.keys = np.ascontiguousarray(keys, dtype=np.uint64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        finite = np.isfinite(self.values)
        if not finite.all():
            raise ValueError(f"value {float(self.values[~finite][0])!r} is not finite")

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def chunks(self) -> Iterator[tuple[list[int], list[float]]]:
        """Plain-list windows of CHUNK items; keeps peak Python-object overhead bounded."""
        for start in range(0, len(self), CHUNK):
            stop = start + CHUNK
            yield self.keys[start:stop].tolist(), self.values[start:stop].tolist()

    def __iter__(self) -> Iterator[tuple[int, float]]:
        for keys, values in self.chunks():
            yield from zip(keys, values)

    def __repr__(self) -> str:
        return f"Stream(items={len(self)})"


def _draw_keys(dist: KeyDist, n_keys: int, n_items: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(dist, UniformKeys):
        return rng.integers(1, n_keys + 1, size=n_items, dtype=np.uint64)
    weights = np.arange(1, n_keys + 1, dtype=np.float64) ** (-dist.alpha)
    table = np.cumsum(weights)
    table /= table[-1]
    draws = rng.random(n_items)
    return (np.searchsorted(table, draws, side="right") + 1).astype(np.uint64)


@np.errstate(over="raise", divide="raise")
def _draw_values(dist: ValueDist, n_items: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(n_items)
    if isinstance(dist, ParetoValues):
        return dist.x_min / np.power(1.0 - u, 1.0 / dist.alpha)
    if isinstance(dist, ExponentialValues):
        return -np.log1p(-u) / dist.rate
    return dist.lo + u * (dist.hi - dist.lo)


def generate(spec: StreamSpec) -> Stream:
    """Materialize the stream a spec describes. Same spec, same bits."""
    rng = np.random.default_rng(spec.seed)
    keys = _draw_keys(spec.key_dist, spec.n_keys, spec.n_items, rng)
    try:
        values = _draw_values(spec.value_dist, spec.n_items, rng)
    except FloatingPointError:  # _draw_values raises it on overflow
        raise ValueError(f"value_dist {spec.value_dist.spec_text()} draws overflow the float range") from None
    return Stream(keys, values)


_DIST_RE = re.compile(r"^([a-z_]+)(?:\(([^()]*)\))?$")


def _parse_dist(text: str, kinds: dict) -> object:
    m = _DIST_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed distribution {text!r}")
    name, arg_text = m.group(1), m.group(2)
    if name not in kinds:
        raise ValueError(f"unknown distribution {name!r} (expected one of {sorted(kinds)})")
    args = []
    if arg_text is not None and arg_text.strip():
        for part in arg_text.split(","):
            try:
                args.append(float(part))
            except ValueError:
                raise ValueError(f"bad numeric argument {part!r} in distribution {text!r}") from None
    try:
        return kinds[name](*args)
    except TypeError:
        raise ValueError(f"wrong argument count in distribution {text!r}") from None


_KEY_KINDS = {"zipf": ZipfKeys, "uniform": UniformKeys}
_VALUE_KINDS = {"pareto": ParetoValues, "exponential": ExponentialValues, "uniform": UniformValues}


def parse_stream_spec(text: str, seed: int = 1) -> StreamSpec:
    """Parse a compact spec string into a StreamSpec.

    Grammar: comma-separated fields "n_items=N,n_keys=N,key_dist=D,value_dist=D"
    (split at top level only, so distribution arguments may contain commas);
    any field may be omitted, and the bare word "default" means all defaults.
    """
    fields: dict[str, str] = {}
    text = text.strip()
    if text and text != "default":
        if text.count("(") != text.count(")"):
            raise ValueError(f"unbalanced parentheses in stream spec {text!r}")
        # Split on commas not inside parentheses: a comma that a ")" follows
        # before any "(" is inside a distribution's argument list.
        for part in re.split(r",(?![^()]*\))", text):
            if "=" not in part:
                raise ValueError(f"stream spec field {part!r} is not name=value")
            name, _, value = part.partition("=")
            name = name.strip()
            if name in fields:
                raise ValueError(f"duplicate stream spec field {name!r}")
            fields[name] = value.strip()
    known = {"n_items", "n_keys", "key_dist", "value_dist"}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown stream spec fields {sorted(unknown)} (expected {sorted(known)})")
    kwargs: dict = {"seed": seed}
    for name in ("n_items", "n_keys"):
        if name in fields:
            try:
                kwargs[name] = int(fields[name])
            except ValueError:
                raise ValueError(f"stream spec field {name} is not a decimal integer: {fields[name]!r}") from None
    if "key_dist" in fields:
        kwargs["key_dist"] = _parse_dist(fields["key_dist"], _KEY_KINDS)
    if "value_dist" in fields:
        kwargs["value_dist"] = _parse_dist(fields["value_dist"], _VALUE_KINDS)
    return StreamSpec(**kwargs)


def write_csv(stream: Stream, path) -> None:
    """Write "key,value" lines, LF terminated. Deterministic bytes."""
    with open(path, "w", newline="\n") as fh:
        for keys, values in stream.chunks():
            fh.writelines(f"{k},{v!r}\n" for k, v in zip(keys, values))


_KEY_RE = re.compile(r"-?[0-9]+")


def read_csv(path) -> Stream:
    """Read a key,value CSV. Malformed input reports its 1-based line number."""
    keys: list[int] = []
    values: list[float] = []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            left, sep, right = line.partition(",")
            if not sep or "," in right:
                raise ValueError(f"line {lineno}: expected exactly one 'key,value' pair, got {line!r}")
            # int() and float() also take "+" and "_", which the format lacks. A
            # "-" passes, so that any signed key, "-0" too, reports the range error.
            if _KEY_RE.fullmatch(left) is None:
                raise ValueError(f"line {lineno}: key {left!r} is not a decimal integer")
            try:
                key = as_key(-1 if left[0] == "-" else int(left))
            except ValueError:
                raise ValueError(f"line {lineno}: key {left} outside the unsigned 64-bit range") from None
            try:
                if "_" in right:
                    raise ValueError
                value = float(right)
            except ValueError:
                raise ValueError(f"line {lineno}: value {right!r} is not a decimal real") from None
            if not math.isfinite(value):
                raise ValueError(f"line {lineno}: value {right!r} is not finite")
            keys.append(key)
            values.append(value)
    return Stream(np.array(keys, dtype=np.uint64), np.array(values, dtype=np.float64))
