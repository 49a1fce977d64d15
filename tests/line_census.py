"""Print the size of each dualchain module: all lines and executable lines.

Usage: python tests/line_census.py [package directory]

The directory defaults to src/dualchain beside this file's parent.  "lines"
is what `wc -l` counts.  "executable" counts the source lines that carry
bytecode: each module is compiled and every line that `co_lines()` reports
for it or for a code object nested in it counts once.  Docstrings, comments
and blank lines carry none, so trimming them leaves this number alone.
"""

import pathlib
import sys


def executable_lines(source: str, filename: str) -> set[int]:
    lines = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def census(package: pathlib.Path) -> list[tuple[str, int, int]]:
    """(module file name, lines, executable lines) per module, by name."""
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, source.count("\n"), len(executable_lines(source, str(path)))))
    return rows


def main(argv: list[str]) -> None:
    package = pathlib.Path(argv[0]) if argv else \
        pathlib.Path(__file__).resolve().parent.parent / "src" / "dualchain"
    rows = census(package)
    print(f"{'module':<16}{'lines':>8}{'executable':>12}")
    for name, lines, executable in rows:
        print(f"{name:<16}{lines:>8}{executable:>12}")
    print(f"{'total':<16}{sum(r[1] for r in rows):>8}{sum(r[2] for r in rows):>12}")


if __name__ == "__main__":
    main(sys.argv[1:])
