"""Print the code-only lines and the public names of each module of
src/spherecoef, and their totals.

A code-only line is neither blank, nor a whole-line # comment, nor part of
a module, class or function docstring.  A module's public names are the
entries of its __all__, read from the source without importing it (0 when
it has none).  Run from anywhere:

    python tools/code_lines.py [package directory]
"""

import ast
import sys
from pathlib import Path


def code_lines(text, tree):
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and number not in skip
    )


def public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    return 0


def main(argv):
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "spherecoef"
    total_lines = total_names = 0
    print(" lines  names  module")
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        lines, names = code_lines(text, tree), public_names(tree)
        total_lines += lines
        total_names += names
        print(f"{lines:6d} {names:6d}  {path.name}")
    print(f"{total_lines:6d} {total_names:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
