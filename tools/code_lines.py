"""Count the code lines of the resitan package, module by module.

A code line holds at least one token that is not a comment, and is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines are left out; every line of
any other token counts, each line of a multi-line string included.

    python tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to src/resitan beside this script's parent.  Prints one
line per module and the total, which is the figure quoted in CHANGES.md.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from io import BytesIO
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file at path."""
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else \
        Path(__file__).resolve().parent.parent / "src" / "resitan"
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
