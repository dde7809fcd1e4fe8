"""The README's figures that the code can compute, pinned to the code.

Prose drifts from the code it describes. These are the figures a test can
recompute: the plan at the defaults, the `bench` flag defaults, the
memory factors that TestRealMemory and TestLiveMemory gate, and the
deterministic fields of the report example.
"""
from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import pytest

import test_sketch
from pqsketch import SketchParams, plan_capacity
from pqsketch.cli import _add_bench_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# Flags whose default the README states by meaning rather than by value.
_DEFAULT_MEANINGS = {"--f-eval": "T", "--report": "stdout"}


def _number(text: str) -> int:
    return int(text.replace(",", ""))


def test_plan_at_the_defaults():
    m = re.search(r"resolves to ([\d,]+) buckets plus\s+three arrays of ([\d,]+) bytes, ([\d,]+) bytes total", README)
    assert m is not None, "the README no longer states the default plan"
    plan = plan_capacity(SketchParams())
    assert tuple(map(_number, m.groups())) == (plan.buckets, plan.tower_bytes_per_array, plan.total_bytes)


def test_bench_flag_table_matches_the_parser():
    table = README[README.index("### Flags (`bench`)"):]
    table = table[: table.index("\n\n", table.index("| flag |"))]
    rows = {}
    for line in table.splitlines()[2:]:
        flag_cell, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        for flag in re.findall(r"`(--[A-Za-z-]+)", flag_cell):
            rows[flag] = default
    sub = argparse.ArgumentParser().add_subparsers()
    _add_bench_parser(sub)
    actions = {a.option_strings[0]: a for a in sub.choices["bench"]._actions if a.option_strings[0] != "-h"}
    assert set(rows) == set(actions)
    for flag, action in actions.items():
        if action.required or flag in ("--input", "--synthetic"):
            assert rows[flag] == "required, exclusive"
        elif isinstance(action, argparse._StoreTrueAction):
            assert rows[flag] == "off", flag
        elif action.default is None:
            assert rows[flag] == _DEFAULT_MEANINGS[flag], flag
        else:
            assert rows[flag] == str(action.default), flag


def test_real_memory_factor_is_the_gated_one():
    m = re.search(r"holds both fills within ([\d.]+)\s+times the accounted bytes", README)
    assert m is not None, "the README no longer states the real-memory factor"
    assert float(m.group(1)) == pytest.approx(test_sketch.TestRealMemory.FACTOR)


def test_live_memory_factor_is_the_gated_one():
    m = re.search(r"holds\s+both\s+live\s+fills\s+within\s+([\d.]+)\s+times\s+the\s+accounted\s+bytes", README)
    assert m is not None, "the README no longer states the live-memory factor"
    assert float(m.group(1)) == pytest.approx(test_sketch.TestLiveMemory.FACTOR)


def test_report_example_is_the_default_run(tmp_path):
    example = README[README.index("### Report"):]
    example = example[example.index("```json"): example.index("```\n", example.index("```json") + 7)]
    path = tmp_path / "report.json"
    assert main(["bench", "--synthetic", "default", "--repeat", "1", "--report", str(path)]) == 0
    report = json.loads(path.read_text())
    row = report["per_key"][0]
    assert row["key"] == 1
    for pattern, value in [
        (r'"ae": ([\d.]+)', report["ae"]),
        (r'"tracked_keys": (\d+)', report["tracked_keys"]),
        (r'"eligible_keys": (\d+)', report["eligible_keys"]),
        (r'"coverage": ([\d.]+)', report["coverage"]),
        (r'"key": 1, "true_freq": (\d+)', row["true_freq"]),
        (r'"key": 1, .*?"abs_error": ([\d.]+)', row["abs_error"]),
    ]:
        m = re.search(pattern, example, re.S)
        assert m is not None, f"the README's report example no longer matches {pattern}"
        printed = m.group(1)
        # Compared at the precision printed: as many decimals as the README shows.
        assert round(value, len(printed.partition(".")[2])) == float(printed), pattern
