"""Print the code-only lines of each module of src/spherecoef and their total.

A code-only line is neither blank, nor a whole-line # comment, nor part of
a module, class or function docstring.  Run from anywhere:

    python tools/code_lines.py [package directory]
"""

import ast
import sys
from pathlib import Path


def code_lines(path):
    text = path.read_text(encoding="utf-8")
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and number not in skip
    )


def main(argv):
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "spherecoef"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
