"""Print the size of each dualchain module: all lines and executable lines,
then the size of the public surface.

Usage: python tests/line_census.py [package directory]

The directory defaults to src/dualchain beside this file's parent.  "lines"
is what `wc -l` counts.  "executable" counts the source lines that carry
bytecode: each module is compiled and every line that `co_lines()` reports
for it or for a code object nested in it counts once.  Docstrings, comments
and blank lines carry none, so trimming them leaves this number alone.

The surface is imported from the directory: the length of the package's
`__all__`, the number of its `DualchainError` codes and the options of
each CLI command (`--help` not counted).
"""

import importlib
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


def error_codes() -> set[str]:
    """The `code` of every DualchainError subclass in the imported
    dualchain package, each of its modules imported first."""
    core = importlib.import_module("dualchain.core")
    for path in pathlib.Path(core.__file__).parent.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"dualchain.{path.stem}")
    todo, codes = [core.DualchainError], set()
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("dualchain."):  # not a test's own subclass
            codes.add(cls.code)
        todo.extend(cls.__subclasses__())
    return codes


def options(command: str) -> set[str]:
    """The dest of each option of one CLI command but --help."""
    cli = importlib.import_module("dualchain.cli")
    [sub] = cli.build_parser(command)._subparsers._group_actions[0].choices.values()
    return {action.dest for action in sub._actions if action.dest != "help"}


def main(argv: list[str]) -> None:
    package = pathlib.Path(argv[0]) if argv else \
        pathlib.Path(__file__).resolve().parent.parent / "src" / "dualchain"
    rows = census(package)
    print(f"{'module':<16}{'lines':>8}{'executable':>12}")
    for name, lines, executable in rows:
        print(f"{name:<16}{lines:>8}{executable:>12}")
    print(f"{'total':<16}{sum(r[1] for r in rows):>8}{sum(r[2] for r in rows):>12}")

    sys.path.insert(0, str(package.resolve().parent))
    dualchain = importlib.import_module("dualchain")
    print(f"\n{'surface':<28}{'count':>8}")
    print(f"{'__all__':<28}{len(dualchain.__all__):>8}")
    print(f"{'error codes':<28}{len(error_codes()):>8}")
    commands = importlib.import_module("dualchain.cli")._COMMANDS
    counts = {name: len(options(name)) for name in commands}
    for name, count in counts.items():
        print(f"{'options ' + name:<28}{count:>8}")
    print(f"{'options, all commands':<28}{sum(counts.values()):>8}")


if __name__ == "__main__":
    main(sys.argv[1:])
