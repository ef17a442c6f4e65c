"""Count the lines of each module under src/ by kind, and print them as JSON.

Every line is one of four kinds: docstring (any line of a module, class or
function docstring, found with ``ast``), blank, comment (a line that holds
only a ``#`` comment) or code (the rest).  So the four counts of a file add
up to its line count.

    python3 tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to the ``src`` directory beside this script's directory.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings of a module span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> dict[str, int]:
    """The number of lines of each kind in a module's source text."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    modules = {str(p.relative_to(src)): count_lines(p.read_text(encoding="utf-8")) for p in sorted(src.rglob("*.py"))}
    total = {kind: sum(counts[kind] for counts in modules.values()) for kind in KINDS}
    total["lines"] = sum(total[kind] for kind in KINDS)
    json.dump({"modules": modules, "total": total}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
