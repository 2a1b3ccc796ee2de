"""Count the code lines of Python files: lines that hold a token other than
a comment, with docstrings (a module's, class's or function's first
statement when it is a string) excluded.

Usage, from the root of a source checkout:

    python3 tools/code_lines.py src/switchopt/*.py
    python3 tools/code_lines.py src/switchopt

prints each file's code lines and then the total; a directory stands for
its own .py files, in name order.  With no path it prints this usage, and
at a file it cannot read or parse as Python one line that names the file;
either goes to stderr, and it exits 2.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every docstring in the parsed module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of the Python file ``path``."""
    with open(path, "rb") as f:
        source = f.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _files(paths):
    """``paths`` with each directory in it replaced by its .py files."""
    for path in paths:
        if os.path.isdir(path):
            yield from (os.path.join(path, name) for name in sorted(
                os.listdir(path)) if name.endswith(".py"))
        else:
            yield path


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    total = 0
    for path in _files(paths):
        try:
            count = code_lines(path)
        except (OSError, SyntaxError, ValueError, tokenize.TokenError) as exc:
            print(f"{path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} code lines in all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
