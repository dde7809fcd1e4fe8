"""Count the lines of every .py file under a directory: all lines, and code lines.

Code lines are lines that hold a token other than a comment, excluding
module, class and function docstrings; blank lines never count.

Usage: python3 tools/loc.py src
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            first = body[0].value
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


if __name__ == "__main__":
    totals = [count(path.read_text()) for path in sorted(Path(sys.argv[1]).rglob("*.py"))]
    print(f"{sum(t for t, _ in totals)} lines, {sum(c for _, c in totals)} code lines")
