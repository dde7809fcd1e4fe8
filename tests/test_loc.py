"""Tests for tools/loc.py, the line counter that sizes each change to src/."""
from __future__ import annotations

import importlib.util
import runpy
import sys
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", LOC)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# Five lines: a two-line docstring, a comment, a blank line and one statement.
SOURCE = '"""Two-line\nmodule docstring."""\n# a comment\n\nx = 1  # trailing comment\n'


def test_count_keeps_only_the_statement_as_code():
    assert loc.count(SOURCE) == (5, 1)


def test_each_file_has_a_line_before_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("def f():\n    '''Doc.'''\n    return 1\n")
    monkeypatch.setattr(sys, "argv", ["loc.py", str(tmp_path)])
    runpy.run_path(str(LOC), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["5", "lines,", "1", "code", "lines", str(tmp_path / "a.py")],
        ["3", "lines,", "2", "code", "lines", str(tmp_path / "pkg" / "b.py")],
        ["8", "lines,", "3", "code", "lines"],
    ]


def test_src_stays_within_its_line_budget():
    """src/pqsketch holds at most 1,800 lines in all; a failure lists each module's count."""
    counts = {path.name: loc.count(path.read_text())[0] for path in sorted(LOC.parents[1].glob("src/pqsketch/*.py"))}
    assert sum(counts.values()) <= 1800, counts
