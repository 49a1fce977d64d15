"""Every name a module imports is used in it, every CLI option is read,
every error code is documented, and one function reads JSON input.

No linter ships with the test dependencies, and a deleted function or
field can leave the import that served it behind.  This walks each
module of the package with `ast` and fails on an imported name that the
module never reads (`from __future__` imports excepted).  In the same
way, an option that a command defines and its handler never reads is a
knob with no effect.  A refusal's `code` is an interface, so each one
has its row in the README's table of codes, and the table has no other.
Every JSON input goes through `core.read_json`, which refuses JSON nested
too deeply to decode, so no other function may decode JSON.
"""

import ast
import inspect
import itertools
import pathlib
import sys
import textwrap

import pytest

import dualchain
from dualchain import cli
import line_census
from line_census import error_codes, options

MODULES = sorted(pathlib.Path(dualchain.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import inf, nan as NaN\nprint(sys.argv, inf)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: NaN"]


def json_decoders(source: str) -> list[str]:
    """Each call of json.load or json.loads, under the name of the innermost
    function around it, and each name imported from json."""
    found, scope = [], []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        def visit_ImportFrom(self, node):
            if node.module == "json":
                found.extend(f"from json import {alias.name}" for alias in node.names)

        def visit_Call(self, node):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("load", "loads") \
                    and isinstance(func.value, ast.Name) and func.value.id == "json":
                found.append(f"{scope[-1] if scope else '<module>'}: json.{func.attr}")
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def test_only_read_json_and_the_replica_pipe_decode_json():
    # replicas.run decodes what its own forked workers wrote, not an input.
    found = {path.name: json_decoders(path.read_text()) for path in MODULES}
    assert {name: calls for name, calls in found.items() if calls} == {
        "core.py": ["read_json: json.load"], "replicas.py": ["run: json.loads"]}


def test_the_check_sees_a_second_json_decoder():
    source = ("import json\nfrom json import loads\n"
              "def read(fh):\n    def inner():\n        return json.load(fh)\n"
              "    return inner, json.dumps(1)\nCONFIG = json.loads('{}')\n")
    assert json_decoders(source) == ["from json import loads", "inner: json.load",
                                     "<module>: json.loads"]


def options_read(function) -> set[str]:
    """The `args.<name>` attributes a cli function reads, with those read by
    the cli functions it hands `args` to (as `_echo` reads `quiet`)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args):
            read |= options_read(getattr(cli, node.func.id))
    return read


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_every_option_is_read_by_its_command(name):
    assert options(name) - options_read(cli._COMMANDS[name][2]) == set()


def test_every_error_code_is_in_the_readme():
    # Both ways: each code has one row, and each row below the table's
    # header names a code, so a code that goes takes its row with it.
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| `code` | where it arises |\n|---|---|\n", 1)[1]
    rows = itertools.takewhile(lambda line: line.startswith("| `"), table.splitlines())
    assert sorted(row.split("`")[1] for row in rows) == sorted(error_codes())


def test_census_prints_the_public_surface(capsys, monkeypatch):
    # The census counts the surface the way the checks above read it.
    monkeypatch.setattr(sys, "path", list(sys.path))
    line_census.main([str(pathlib.Path(dualchain.__file__).parent)])
    surface = capsys.readouterr().out.split("\nsurface", 1)[1].splitlines()[1:]
    counts = {line[:28].rstrip(): int(line[28:]) for line in surface}
    commands = {f"options {name}": len(options(name)) for name in cli._COMMANDS}
    assert counts == {"__all__": len(dualchain.__all__), "error codes": len(error_codes()),
                      **commands, "options, all commands": sum(commands.values())}
