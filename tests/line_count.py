"""Count the lines of lagkit's modules without docstrings, comments and blank lines.

    python tests/line_count.py [--src DIR]

Prints, in a fenced block, each module's count and its path from the
parent of DIR (``src/lagkit/charts.py``), lowest count first, then the
total.  A reformat cannot lower these counts.  ``--src`` counts another
source tree (for example a checkout of the base commit), so two runs of
this script give the change of a pull request.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def code_lines(source: str) -> int:
    """The lines of ``source`` that are no docstring, comment or blank line."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the lagkit package (default: this tree's src)")
    src = Path(parser.parse_args(argv).src)
    counts = {
        str(path.relative_to(src.parent)): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted((src / "lagkit").glob("*.py"))
    }
    print("```")
    for path, count in sorted(counts.items(), key=lambda item: (item[1], item[0])):
        print(f"{count:5d} {path}")
    print("```")
    print(f"{sum(counts.values())} lines without docstrings, comments and blank lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
