"""Tests for the benchmark runner, report format, and command line."""
from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from pqsketch import POS_INF, PerKeyQuantileSketch, SketchParams, bench, rank_error
from pqsketch.bench import TIMING_FIELDS, run_benchmark
from pqsketch.cli import main
from pqsketch.datagen import StreamSpec, UniformValues, ZipfKeys, generate

SMALL = StreamSpec(
    n_items=30_000,
    n_keys=200,
    key_dist=ZipfKeys(1.0),
    value_dist=UniformValues(0.0, 1.0),
    seed=5,
)


def small_params(**kwargs):
    defaults = dict(total_memory_bytes=120_000, gate_threshold=10, seed=2)
    defaults.update(kwargs)
    return SketchParams(**defaults)


def strip_timing(report_dict: dict) -> dict:
    return {k: v for k, v in report_dict.items() if k not in TIMING_FIELDS}


class TestRunBenchmark:
    def test_report_shape_and_config_echo(self):
        report = run_benchmark(generate(SMALL), small_params(), repeat=1,
                               dataset=SMALL.describe())
        d = report.as_dict()
        assert set(d) == {
            "config", "ae", "per_key", "tracked_keys", "eligible_keys",
            "coverage", "unanswered_keys", "insert_throughput_mops",
            "query_throughput_mops", "wall_time_ms",
        }
        assert d["config"]["w"] == 0.5
        assert d["config"]["memory_bytes"] == 120_000
        assert d["config"]["gate_threshold"] == 10
        assert d["config"]["eviction_ratio"] == "4"
        assert d["config"]["f_eval"] == 10
        assert d["config"]["single_key"] is False
        assert d["config"]["dataset"]["key_dist"] == "zipf(1.0)"

    def test_accuracy_fields_are_consistent(self):
        report = run_benchmark(generate(SMALL), small_params(), repeat=1)
        assert report.tracked_keys > 0
        assert report.eligible_keys > 0
        assert 0.0 <= report.coverage <= 1.0
        assert report.ae is not None and 0.0 <= report.ae <= 0.5
        for row in report.per_key:
            assert set(row) == {"key", "true_freq", "estimated_value", "true_rank", "abs_error"}
            assert row["true_freq"] >= 10
            assert row["abs_error"] == pytest.approx(abs(row["true_rank"] - 0.5))

    def test_rows_score_against_each_keys_sorted_values(self):
        stream = generate(SMALL)
        per_key: dict[int, list[float]] = {}
        for key, value in stream:
            per_key.setdefault(key, []).append(value)
        report = run_benchmark(stream, small_params(quantile=0.9), repeat=1)
        assert report.eligible_keys == sum(len(v) >= 10 for v in per_key.values())
        assert report.per_key
        for row in report.per_key:
            ordered = sorted(per_key[row["key"]])
            assert row["true_freq"] == len(ordered)
            assert (row["true_rank"], row["abs_error"]) == rank_error(ordered, row["estimated_value"], 0.9)

    def test_rows_sorted_by_key(self):
        report = run_benchmark(generate(SMALL), small_params(), repeat=1)
        keys = [row["key"] for row in report.per_key]
        assert keys == sorted(keys)

    def test_accuracy_section_is_deterministic(self):
        stream = generate(SMALL)
        a = run_benchmark(stream, small_params(), repeat=1).as_dict()
        b = run_benchmark(stream, small_params(), repeat=2).as_dict()
        a_cfg = a.pop("config")
        b_cfg = b.pop("config")
        assert a_cfg.pop("repeat") == 1 and b_cfg.pop("repeat") == 2
        assert a_cfg == b_cfg
        assert strip_timing(a) == strip_timing(b)

    def test_f_eval_filters_evaluated_keys(self):
        stream = generate(SMALL)
        loose = run_benchmark(stream, small_params(), f_eval=10, repeat=1)
        strict = run_benchmark(stream, small_params(), f_eval=1000, repeat=1)
        assert strict.eligible_keys < loose.eligible_keys
        assert all(row["true_freq"] >= 1000 for row in strict.per_key)

    def test_median_accuracy_on_small_stream(self):
        report = run_benchmark(generate(SMALL), small_params(), repeat=1)
        assert report.ae <= 0.1
        assert report.coverage >= 0.9

    def test_unanswered_keys_are_listed_and_still_covered(self, monkeypatch):
        # Inserts never leave a cell with only sentinels, so every third
        # tracked key has its buffers set by hand to sentinels once the fill
        # is done; their queries raise "degenerate estimate".
        stream = generate(StreamSpec(n_items=200_000, n_keys=5000, seed=1))
        params = SketchParams(quantile=0.99, candidate_capacity=4, representative_capacity=2, seed=1)
        spoiled = []

        class SpoiledSketch(PerKeyQuantileSketch):
            def tracked_keys(self):
                keys = super().tracked_keys()
                if not spoiled:
                    spoiled.extend(sorted(keys)[::3])
                    for key in spoiled:
                        est = self.values._resident[key].estimator
                        est.candidate[:] = []
                        est.representative[:] = [POS_INF, POS_INF]
                return keys

        monkeypatch.setattr(bench, "PerKeyQuantileSketch", SpoiledSketch)
        report = run_benchmark(stream, params, repeat=1)
        sketch = PerKeyQuantileSketch(params)
        for key, value in stream:
            sketch.insert(key, value)
        for key in sketch.tracked_keys():
            sketch.query(key)
        keys, counts = np.unique(stream.keys, return_counts=True)
        eligible = set(keys[counts >= params.gate_threshold].tolist())
        evaluated = {k for k in sketch.tracked_keys() if k in eligible}
        unanswered = report.unanswered_keys
        assert unanswered == spoiled and len(unanswered) > 1
        assert not {row["key"] for row in report.per_key} & set(unanswered)
        assert report.eligible_keys == len(eligible)
        assert report.coverage == len(evaluated) / len(eligible)
        assert len(report.per_key) + len(evaluated & set(unanswered)) == len(evaluated)

    def test_repeat_validation(self):
        with pytest.raises(ValueError, match="repeat"):
            run_benchmark(generate(SMALL), small_params(), repeat=0)

    def test_to_json_is_stable_text(self):
        report = run_benchmark(generate(SMALL), small_params(), repeat=1)
        text = report.to_json()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert strip_timing(parsed) == strip_timing(report.as_dict())


class TestRunSingleKey:
    def test_single_estimator_report(self):
        spec = StreamSpec(n_items=20_000, n_keys=50, value_dist=UniformValues(0, 1), seed=3)
        report = run_benchmark(generate(spec), small_params(), repeat=1, single_key=True)
        assert report.tracked_keys == 1
        assert report.eligible_keys == 1
        assert report.coverage == 1.0
        assert report.config["single_key"] is True
        assert len(report.per_key) == 1
        row = report.per_key[0]
        assert row["key"] == 0
        assert row["true_freq"] == 20_000
        assert report.ae == row["abs_error"] <= 0.1

    def test_short_stream_not_eligible(self):
        spec = StreamSpec(n_items=5, n_keys=5, seed=1)
        report = run_benchmark(generate(spec), small_params(gate_threshold=10), repeat=1, single_key=True)
        assert report.tracked_keys == 1
        assert report.eligible_keys == 0
        assert report.per_key == []
        assert report.ae is None
        assert report.coverage == 1.0

    def test_unanswered_key_is_listed_and_still_covered(self, monkeypatch):
        # The estimator's buffers are set by hand to +inf sentinels only once
        # the fill is done, a state that inserts never reach.
        class SpoiledSink(bench._SingleKeySink):
            def tracked_keys(self):
                self.estimator.candidate[:] = []
                self.estimator.representative[:] = [POS_INF, POS_INF]
                return super().tracked_keys()

        monkeypatch.setattr(bench, "_SingleKeySink", SpoiledSink)
        spec = StreamSpec(n_items=50, n_keys=5, seed=1)
        params = small_params(quantile=0.99, candidate_capacity=4, representative_capacity=2,
                              gate_threshold=0, seed=24)
        report = run_benchmark(generate(spec), params, repeat=1, single_key=True)
        assert report.unanswered_keys == [0]
        assert report.tracked_keys == report.eligible_keys == 1
        assert report.per_key == [] and report.ae is None
        assert report.coverage == 1.0

    def test_empty_stream(self):
        spec = StreamSpec(n_items=0, n_keys=5, seed=1)
        report = run_benchmark(generate(spec), small_params(), repeat=1, single_key=True)
        assert report.tracked_keys == 0
        assert report.eligible_keys == 0
        assert report.insert_throughput_mops == 0.0


class TestCli:
    def test_bench_synthetic_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "bench", "--synthetic", "n_items=20000,n_keys=100",
            "--memory-kb", "100", "--T", "10", "--repeat", "1",
            "--report", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["dataset"]["source"] == "synthetic"
        assert report["config"]["memory_bytes"] == 102_400
        assert report["tracked_keys"] > 0

    def test_bench_stdout(self, capsys):
        code = main(["bench", "--synthetic", "n_items=2000,n_keys=20",
                     "--memory-kb", "60", "--T", "5", "--repeat", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["gate_threshold"] == 5

    def test_generate_then_replay_matches_synthetic(self, tmp_path):
        # A stream materialized to CSV and replayed must score identically
        # to the in-process synthetic run (timings aside): same seed
        # derivation on both paths.
        spec = "n_items=20000,n_keys=100,key_dist=zipf(1.0),value_dist=pareto(1.0,1.0)"
        csv_path = tmp_path / "stream.csv"
        syn_report = tmp_path / "syn.json"
        csv_report = tmp_path / "csv.json"
        flags = ["--memory-kb", "100", "--T", "10", "--repeat", "1", "--seed", "9"]
        assert main(["generate", "--spec", spec, "--seed", "9", "--out", str(csv_path)]) == 0
        assert main(["bench", "--synthetic", spec, *flags, "--report", str(syn_report)]) == 0
        assert main(["bench", "--input", str(csv_path), *flags, "--report", str(csv_report)]) == 0
        a = json.loads(syn_report.read_text())
        b = json.loads(csv_report.read_text())
        a["config"].pop("dataset")
        b["config"].pop("dataset")
        assert strip_timing(a) == strip_timing(b)

    def test_identical_runs_agree_except_timing(self, tmp_path):
        argv = ["bench", "--synthetic", "n_items=10000,n_keys=50",
                "--memory-kb", "80", "--T", "5", "--repeat", "1", "--seed", "4"]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(argv + ["--report", str(out_a)]) == 0
        assert main(argv + ["--report", str(out_b)]) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert strip_timing(a) == strip_timing(b)

    def test_single_key_flag(self, capsys):
        code = main(["bench", "--synthetic", "n_items=5000,n_keys=10",
                     "--w", "0.9", "--repeat", "1", "--single-key",
                     "--memory-kb", "60"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["single_key"] is True
        assert report["config"]["w"] == 0.9
        assert report["tracked_keys"] == 1

    def test_lambda_flag_accepts_fractions(self, capsys):
        code = main(["bench", "--synthetic", "n_items=1000,n_keys=10",
                     "--memory-kb", "60", "--T", "2", "--repeat", "1",
                     "--lambda", "5/2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["eviction_ratio"] == "5/2"

    def test_lambda_division_by_zero_exits_2(self, capsys):
        code = main(["bench", "--synthetic", "n_items=100,n_keys=5", "--repeat", "1",
                     "--lambda", "1/0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "eviction ratio" in err

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = main(["bench", "--input", str(tmp_path / "nope.csv"), "--repeat", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2.0\nbogus line\n")
        code = main(["bench", "--input", str(bad), "--repeat", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_bad_spec_exits_2(self, capsys):
        code = main(["bench", "--synthetic", "n_itemz=5", "--repeat", "1"])
        assert code == 2
        assert "unknown stream spec" in capsys.readouterr().err

    def test_bad_params_exit_2(self, capsys):
        code = main(["bench", "--synthetic", "n_items=100,n_keys=5",
                     "--w", "1.5", "--repeat", "1"])
        assert code == 2
        assert "quantile" in capsys.readouterr().err

    def test_source_is_required_and_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["bench"])
        with pytest.raises(SystemExit):
            main(["bench", "--input", "x.csv", "--synthetic", "default"])

    def test_generate_writes_csv(self, tmp_path):
        out = tmp_path / "gen.csv"
        assert main(["generate", "--spec", "n_items=100,n_keys=5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 100
        key, _, value = lines[0].partition(",")
        assert key.isdigit()
        float(value)

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pqsketch.cli", "bench",
             "--synthetic", "n_items=1000,n_keys=10",
             "--memory-kb", "60", "--T", "2", "--repeat", "1",
             "--report", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["config"]["seed"] == 1
