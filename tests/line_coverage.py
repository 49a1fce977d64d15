"""Print the executable lines of each dualchain module that the tests never run.

Usage: python tests/line_coverage.py [pytest arguments]

Runs pytest in this process (by default the whole suite, `-q
--continue-on-collection-errors`) under a `sys.settrace`/`threading.settrace`
hook, then prints, per module under src/dualchain, the executable lines (as
tests/line_census.py counts them) that no test reached, followed by pytest's
exit status.  It reports and never fails on what it finds: the hook slows
the suite about fourfold, so a wall-clock bound in the suite may fail under
it.  A worker forked from the traced process keeps the hook, and the lines
it reached count when it leaves through os._exit (as `replicas` workers
do).  Lines run only in a subprocess are not seen.
"""

import json
import os
import pathlib
import sys
import tempfile
import threading

import pytest

from line_census import executable_lines

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dualchain"


def trace_lines(package: pathlib.Path, run):
    """Call run() with every frame of a module in `package` traced, in this
    process and in the children it forks; return ({module path: reached
    line numbers}, run's result)."""
    reached: dict[str, set[int]] = {}
    # co_filename -> the line tracer of its module, or None outside `package`.
    # One tracer per module, made once: a tracer made per call would leave
    # a reference cycle per call for the suite's gc checks to find.
    tracers = {}

    def line_tracer(lines: set[int]):
        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            path = pathlib.Path(filename).resolve()
            tracers[filename] = line_tracer(reached.setdefault(str(path), set())) \
                if path.parent == package else None
        return tracers[filename]

    with tempfile.TemporaryDirectory() as forks:
        os.register_at_fork(after_in_child=lambda: _report_at_exit(reached, forks))
        threading.settrace(on_call)
        sys.settrace(on_call)
        try:
            result = run()
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for path in pathlib.Path(forks).iterdir():
            for module, lines in json.loads(path.read_text()).items():
                reached.setdefault(module, set()).update(lines)
    return reached, result


def _report_at_exit(reached: dict[str, set[int]], directory: str):
    """In a forked child: make os._exit first write the lines the child has
    reached (its parent's up to the fork included) to <directory>/<pid>."""
    leave = os._exit

    def report_and_leave(status):
        try:
            with open(os.path.join(directory, str(os.getpid())), "w") as fh:
                json.dump({module: sorted(lines) for module, lines in reached.items()}, fh)
        finally:
            leave(status)

    os._exit = report_and_leave


def main(argv: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    args = argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]
    reached, status = trace_lines(PACKAGE, lambda: pytest.main(args))
    print()
    print("unreached executable lines:")
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path.read_text(), str(path))
        missed = sorted(executable - reached.get(str(path.resolve()), set()))
        print(f"{path.name:<16}{len(missed):>4}  {_ranges(missed)}")
    print(f"pytest exit status: {int(status)}")


def _ranges(lines: list[int]) -> str:
    """1, 2, 3, 7 as "1-3, 7"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


if __name__ == "__main__":
    main(sys.argv[1:])
