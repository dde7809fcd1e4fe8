"""Tests for tools/loc.py, the line counter that sizes each change to src/, and
the two budgets beside it: src/'s line count, and no unused import."""
from __future__ import annotations

import ast
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


def test_no_module_imports_a_name_it_does_not_read():
    """Each name imported under src/, tests/ and tools/, bar ``from __future__``,
    is read or listed in ``__all__``; a failure lists each file and name."""
    root, unused = LOC.parents[1], []
    for path in sorted(path for top in ("src", "tests", "tools") for path in (root / top).rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        read = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
                read.update(ast.literal_eval(node.value))
        for node in nodes:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                names = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                unused += [f"{path.relative_to(root)}: {name}" for name in names if name not in read]
    assert unused == []
