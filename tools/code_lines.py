"""Count the code lines of each module of src/llcp.

A code line holds a token of code: blank lines, comments and docstrings
(the string that opens a module, class or function) do not count, and a
statement or string spread over several lines counts each of them.

    python tools/code_lines.py [--defs] [ROOT]

prints one line per module and the total; --defs adds a line per
top-level class and function.  ROOT defaults to src/llcp beside this
script's directory.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> set[int]:
    """The numbers of the code lines of a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno,
                                              first.end_lineno + 1))
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "src" / "llcp")
    parser.add_argument("--defs", action="store_true",
                        help="also count each top-level class and function")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.root.glob("*.py")):
        source = path.read_text()
        lines = code_lines(source)
        total += len(lines)
        print(f"{path.name:16s} {len(lines):5d}")
        if args.defs:
            for node in ast.parse(source).body:
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    span = range(node.lineno, node.end_lineno + 1)
                    print(f"  {node.name:30s} {len(lines.intersection(span)):5d}")
    print(f"{'total':16s} {total:5d}")


if __name__ == "__main__":
    main()
