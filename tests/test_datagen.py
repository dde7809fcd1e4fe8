"""Tests for stream generation, the stream-spec grammar, and CSV interchange."""
from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsketch.datagen import (
    CHUNK,
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


def assert_same_stream(a: Stream, b: Stream) -> None:
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.values, b.values)


class TestDistributionSpecs:
    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            ZipfKeys(0.0)
        with pytest.raises(ValueError, match="alpha"):
            ParetoValues(alpha=-1)
        with pytest.raises(ValueError, match="x_min"):
            ParetoValues(x_min=0)
        with pytest.raises(ValueError, match="rate"):
            ExponentialValues(0)
        with pytest.raises(ValueError, match="lo <= hi"):
            UniformValues(2.0, 1.0)
        # Each bound is finite, but hi - lo is inf, and so would every draw be.
        with pytest.raises(ValueError, match="width hi - lo must be finite"):
            parse_stream_spec("value_dist=uniform(-1e308,1e308)")
        assert UniformValues(-1e307, 1e307).hi == 1e307

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ZipfKeys(True),
            lambda: ParetoValues(True, 1.0),
            lambda: ExponentialValues(True),
            lambda: UniformValues(False, True),
            lambda: ParetoValues("2"),
            lambda: ExponentialValues(10**400),
            # Finite parameters whose draws overflow are refused when drawn.
            lambda: generate(parse_stream_spec("n_items=1000,value_dist=pareto(0.01,1)")),
            lambda: generate(parse_stream_spec("n_items=1000,value_dist=exponential(1e-308)")),
            lambda: generate(parse_stream_spec("n_items=1000,value_dist=pareto(1,1e308)")),
        ],
    )
    def test_parameters_are_finite_reals_not_bools(self, build):
        # A bool is not a parameter: uniform(False,True) would name a spec
        # the parser cannot read back. No case warns on its way to the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                build()

    def test_numpy_real_parameter_is_accepted_as_a_float(self):
        dist = ZipfKeys(np.float32(1.5))
        assert dist == ZipfKeys(1.5)
        assert type(dist.alpha) is float

    @settings(max_examples=200)
    @given(
        st.sampled_from([ZipfKeys, ParetoValues, ExponentialValues, UniformValues]).flatmap(
            lambda kind: st.tuples(
                st.just(kind),
                # Python ints (bools, and ints past float precision and range, too) and floats.
                st.lists(
                    st.one_of(st.booleans(), st.integers(), st.integers(2**53, 2**1100), st.floats()),
                    max_size=len(fields(kind)),
                ),
            )
        )
    )
    def test_every_accepted_distribution_round_trips(self, case):
        kind, args = case
        try:
            dist = kind(*args)
        except ValueError:
            return
        field = "key_dist" if kind is ZipfKeys else "value_dist"
        assert getattr(parse_stream_spec(f"{field}={dist.spec_text()}"), field) == dist

    def test_spec_text_round_trips_through_parser(self):
        for dist in (ZipfKeys(1.5), UniformKeys()):
            spec = parse_stream_spec(f"key_dist={dist.spec_text()}")
            assert spec.key_dist == dist
        for dist in (ParetoValues(2.0, 3.0), ExponentialValues(0.5), UniformValues(1.0, 4.0)):
            spec = parse_stream_spec(f"value_dist={dist.spec_text()}")
            assert spec.value_dist == dist

    def test_stream_spec_validation(self):
        with pytest.raises(ValueError, match="n_items"):
            StreamSpec(n_items=-1)
        with pytest.raises(ValueError, match="n_keys"):
            StreamSpec(n_keys=0)
        for field, bad in [("key_dist", UniformValues()), ("key_dist", "zipf"), ("value_dist", ZipfKeys())]:
            with pytest.raises(TypeError, match=field):
                StreamSpec(**{field: bad})
        for bad in (True, 1.5, "1", None):
            with pytest.raises(ValueError, match="seed"):
                StreamSpec(seed=bad)
        # Any int seeds a stream: the generator draws from its low 64 bits.
        spec = StreamSpec(n_items=100, n_keys=10, seed=-1)
        assert_same_stream(generate(spec), generate(replace(spec, seed=2**64 - 1)))

    def test_bool_is_not_an_item_count(self):
        with pytest.raises(ValueError, match="n_items"):
            StreamSpec(n_items=True)

    def test_describe_shape(self):
        d = StreamSpec(seed=9).describe()
        assert d == {
            "source": "synthetic",
            "n_items": 1_000_000,
            "n_keys": 10_000,
            "key_dist": "zipf(1.0)",
            "value_dist": "pareto(1.0,1.0)",
        }


class TestGenerate:
    def test_same_spec_same_bits(self):
        spec = StreamSpec(n_items=10_000, n_keys=100, seed=4)
        assert_same_stream(generate(spec), generate(spec))

    def test_different_seed_different_stream(self):
        a = generate(StreamSpec(n_items=1_000, n_keys=50, seed=1))
        b = generate(StreamSpec(n_items=1_000, n_keys=50, seed=2))
        assert not np.array_equal(a.keys, b.keys)
        assert not np.array_equal(a.values, b.values)

    def test_key_range_and_dtype(self):
        stream = generate(StreamSpec(n_items=50_000, n_keys=300, seed=7))
        assert stream.keys.dtype == np.uint64
        assert stream.values.dtype == np.float64
        assert int(stream.keys.min()) >= 1
        assert int(stream.keys.max()) <= 300

    def test_zipf_rank_frequencies(self):
        # Under alpha = 1 the top key carries about 1/H(n) of the stream;
        # for 100 keys H(100) ~ 5.187, so ~19% of items, and the second key
        # about half that.
        stream = generate(StreamSpec(
            n_items=200_000, n_keys=100, key_dist=ZipfKeys(1.0), seed=3,
        ))
        counts = Counter(stream.keys.tolist())
        assert counts[1] / len(stream) == pytest.approx(0.1928, abs=0.01)
        assert counts[2] / counts[1] == pytest.approx(0.5, abs=0.05)
        assert counts[1] > counts[2] > counts[10]

    def test_uniform_keys_are_flat(self):
        stream = generate(StreamSpec(
            n_items=100_000, n_keys=10, key_dist=UniformKeys(), seed=5,
        ))
        counts = Counter(stream.keys.tolist())
        assert set(counts) == set(range(1, 11))
        for n in counts.values():
            assert n == pytest.approx(10_000, abs=500)

    def test_pareto_values_match_inverse_cdf(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        stream = generate(StreamSpec(
            n_items=100_000, n_keys=10, value_dist=ParetoValues(2.0, 3.0), seed=8,
        ))
        assert float(stream.values.min()) >= 3.0
        # CDF of Pareto(alpha, x_min): 1 - (x_min / x)^alpha.
        result = scipy_stats.kstest(stream.values, lambda x: 1 - (3.0 / x) ** 2.0)
        assert result.pvalue > 0.01

    def test_exponential_values_match_cdf(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        stream = generate(StreamSpec(
            n_items=100_000, n_keys=10, value_dist=ExponentialValues(2.0), seed=9,
        ))
        result = scipy_stats.kstest(stream.values, lambda x: -np.expm1(-2.0 * x))
        assert result.pvalue > 0.01

    def test_uniform_values_bounds(self):
        stream = generate(StreamSpec(
            n_items=10_000, n_keys=10, value_dist=UniformValues(2.0, 5.0), seed=1,
        ))
        assert float(stream.values.min()) >= 2.0
        assert float(stream.values.max()) < 5.0

    def test_empty_stream(self):
        stream = generate(StreamSpec(n_items=0, n_keys=10, seed=1))
        assert len(stream) == 0
        assert list(stream) == []


class TestStream:
    def test_chunks_cover_stream_in_order(self):
        stream = generate(StreamSpec(n_items=2 * CHUNK + 1_000, n_keys=20, seed=6))
        rebuilt_keys: list[int] = []
        rebuilt_values: list[float] = []
        for keys, values in stream.chunks():
            assert len(keys) == len(values) <= CHUNK
            rebuilt_keys.extend(keys)
            rebuilt_values.extend(values)
        assert rebuilt_keys == stream.keys.tolist()
        assert rebuilt_values == stream.values.tolist()

    def test_iter_yields_pairs(self):
        stream = Stream(np.array([3, 4], dtype=np.uint64), np.array([1.5, 2.5]))
        assert list(stream) == [(3, 1.5), (4, 2.5)]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Stream(np.array([1, 2], dtype=np.uint64), np.array([1.0]))

    def test_keys_must_be_nonnegative_integers(self):
        values = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="key -1 outside the unsigned 64-bit range"):
            Stream(np.array([-1, 2]), values)
        for keys in (np.array([1.7, 2.0]), np.array([True, False])):
            with pytest.raises(TypeError, match="integer array"):
                Stream(keys, values)
        stream = Stream(np.array([0, 2], dtype=np.int64), values)
        assert stream.keys.dtype == np.uint64 and stream.keys.tolist() == [0, 2]

    def test_values_must_be_integer_or_floating(self):
        keys = np.array([1, 2])
        for values in (np.array([1 + 2j, 3]), np.array([True, False]), np.array(["1.5", "2"])):
            with pytest.raises(TypeError, match="integer or floating array"):
                Stream(keys, values)
        for values in (np.array([1, 3]), np.array([1.5, 3.0], dtype=np.float32)):
            stream = Stream(keys, values)
            assert stream.values.dtype == np.float64 and stream.values.tolist() == values.tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=f"value {bad!r} is not finite"):
            Stream(np.array([1, 2, 3]), np.array([1.0, bad, 2.0]))


class TestSpecGrammar:
    def test_full_spec(self):
        spec = parse_stream_spec(
            "n_items=5000,n_keys=10,key_dist=zipf(1.5),value_dist=uniform(0,2)",
            seed=7,
        )
        assert spec == StreamSpec(5000, 10, ZipfKeys(1.5), UniformValues(0.0, 2.0), seed=7)

    def test_defaults(self):
        assert parse_stream_spec("default") == StreamSpec()
        assert parse_stream_spec("") == StreamSpec()
        assert parse_stream_spec("n_items=42") == StreamSpec(n_items=42)

    def test_distribution_without_args_uses_defaults(self):
        spec = parse_stream_spec("key_dist=zipf,value_dist=pareto")
        assert spec.key_dist == ZipfKeys(1.0)
        assert spec.value_dist == ParetoValues(1.0, 1.0)

    def test_commas_inside_parens_do_not_split_fields(self):
        spec = parse_stream_spec("value_dist=pareto(2,5),n_keys=3")
        assert spec.value_dist == ParetoValues(2.0, 5.0)
        assert spec.n_keys == 3

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown stream spec fields"):
            parse_stream_spec("n_item=5")
        with pytest.raises(ValueError, match="duplicate"):
            parse_stream_spec("n_items=1,n_items=2")
        with pytest.raises(ValueError, match="not name=value"):
            parse_stream_spec("zipf(1.0)")
        with pytest.raises(ValueError, match="unknown distribution"):
            parse_stream_spec("key_dist=cauchy")
        with pytest.raises(ValueError, match="unbalanced"):
            parse_stream_spec("key_dist=zipf(1.0")
        with pytest.raises(ValueError, match="bad numeric argument"):
            parse_stream_spec("key_dist=zipf(x)")
        with pytest.raises(ValueError, match="wrong argument count"):
            parse_stream_spec("key_dist=zipf(1,2,3)")
        with pytest.raises(ValueError, match="n_items is not a decimal integer"):
            parse_stream_spec("n_items=1e3")
        with pytest.raises(ValueError, match="n_keys is not a decimal integer"):
            parse_stream_spec("n_keys=ten")
        with pytest.raises(ValueError, match="malformed distribution"):
            parse_stream_spec("key_dist=Zipf(1)")
        with pytest.raises(ValueError, match="malformed distribution"):
            parse_stream_spec("key_dist=zipf[1]")
        # int() and float() also take "_" separators, a "+" on an integer and
        # non-ASCII digits; the spec reads its numbers as read_csv does.
        for spec in ("n_items=1_000", "n_items=\u0661\u0660\u0660", "n_items=+5"):
            with pytest.raises(ValueError, match="n_items is not a decimal integer"):
                parse_stream_spec(spec)
        for spec in ("key_dist=zipf(\u0661)", "value_dist=pareto(1_0,1)"):
            with pytest.raises(ValueError, match="bad numeric argument"):
                parse_stream_spec(spec)
        # A sign passes the pattern, so a negative count reports its range;
        # inf and nan parse, and the distribution refuses them.
        with pytest.raises(ValueError, match="n_items must be a nonnegative integer"):
            parse_stream_spec("n_items=-5")
        for bad in ("inf", "nan"):
            with pytest.raises(ValueError, match=f"ZipfKeys alpha must be positive and finite, got {bad}"):
                parse_stream_spec(f"key_dist=zipf({bad})")
        assert parse_stream_spec("value_dist=uniform( -1 , +2.5e1 )").value_dist == UniformValues(-1.0, 25.0)


class TestCsv:
    def test_round_trip_preserves_bits(self, tmp_path):
        stream = generate(StreamSpec(n_items=2_000, n_keys=50, seed=11))
        path = tmp_path / "stream.csv"
        write_csv(stream, path)
        assert_same_stream(read_csv(path), stream)

    def test_writes_lf_and_full_precision(self, tmp_path):
        stream = Stream(
            np.array([1, 2], dtype=np.uint64),
            np.array([0.1, 123456789.123456789]),
        )
        path = tmp_path / "two.csv"
        write_csv(stream, path)
        data = path.read_bytes()
        assert data == b"1,0.1\n2,123456789.12345679\n"

    def test_reader_skips_blanks_and_comments(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# header\n\n1,2.0\n\n2,3\n")
        stream = read_csv(path)
        assert stream.keys.tolist() == [1, 2]
        assert stream.values.tolist() == [2.0, 3.0]

    def test_reader_errors_carry_line_numbers(self, tmp_path):
        cases = [
            ("1,2.0\n1,2,3\n", "line 2.*exactly one"),
            ("x,2.0\n", "line 1.*not a decimal integer"),
            ("1.5,2.0\n", "line 1.*not a decimal integer"),
            ("-1,2.0\n", "line 1.*unsigned 64-bit"),
            ("-0,1.5\n", "line 1.*unsigned 64-bit"),
            ("-00,1.5\n", "line 1.*unsigned 64-bit"),
            (f"{1 << 64},2.0\n", "line 1.*unsigned 64-bit"),
            ("7\n", "line 1.*exactly one"),
            ("1,abc\n", "line 1.*not a decimal real"),
            ("1,inf\n", "line 1.*not finite"),
            ("5,nan\n", "line 1.*not finite"),
        ]
        for body, pattern in cases:
            path = tmp_path / "bad.csv"
            path.write_text(body)
            with pytest.raises(ValueError, match=pattern):
                read_csv(path)

    def test_reader_refuses_signs_and_underscores(self, tmp_path):
        cases = [
            ("1,2.0\n+7,2.0\n", "line 2: key '\\+7' is not a decimal integer"),
            ("1_000,2.0\n", "line 1: key '1_000' is not a decimal integer"),
            ("1,2.0\n\n3,1_0.5\n", "line 3: value '1_0.5' is not a decimal real"),
            # Nor other digits or whitespace in a field, which int() and float() take,
            # nor a bare exponent, point or sign. "inf", "nan" and overflow are not finite.
            ("\u0661,2\n", "line 1: key '\u0661' is not a decimal integer"),
            ("1 ,2\n", "line 1: key '1 ' is not a decimal integer"),
            *[
                (f"1,{v}\n", re.escape(f"line 1: value {v!r} is not a decimal real"))
                for v in ("\u0661\u0662", " 1.5", "\t2", "1e", "e5", ".", "+")
            ],
            *[(f"1,{v}\n", re.escape(f"line 1: value {v!r} is not finite")) for v in ("-inf", "+nan", "Infinity", "1e999")],
        ]
        for body, pattern in cases:
            path = tmp_path / "bad.csv"
            path.write_text(body, encoding="utf-8")
            with pytest.raises(ValueError, match=pattern):
                read_csv(path)

    def test_reader_takes_every_float_repr_and_a_plus(self, tmp_path):
        good = ["1e-05", "1.5e+300", "-0.0", "+1.5", ".5", "7.", "2E3", "12"]
        path = tmp_path / "in.csv"
        path.write_text("".join(f"{i},{v}\n" for i, v in enumerate(good)))
        assert [v.hex() for v in read_csv(path).values.tolist()] == [float(v).hex() for v in good]

    def test_empty_file_gives_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert len(read_csv(path)) == 0

    @settings(max_examples=30)
    @given(
        keys=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=50),
        raw=st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=50),
    )
    def test_round_trip_property(self, keys, raw, tmp_path_factory):
        n = min(len(keys), len(raw))
        stream = Stream(
            np.array(keys[:n], dtype=np.uint64),
            np.array(raw[:n], dtype=np.float64),
        )
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        write_csv(stream, path)
        assert_same_stream(read_csv(path), stream)
