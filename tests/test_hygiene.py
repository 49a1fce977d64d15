"""Every name a module imports is used in it, every CLI option is read, and
every error code is documented.

No linter ships with the test dependencies, and a deleted function or
field can leave the import that served it behind.  This walks each
module of the package with `ast` and fails on an imported name that the
module never reads (`from __future__` imports excepted).  In the same
way, an option that a command defines and its handler never reads is a
knob with no effect.  A refusal's `code` is an interface, so each one
has its row in the README's table of codes.
"""

import ast
import importlib
import inspect
import pathlib
import textwrap

import pytest

import dualchain
from dualchain import cli
from dualchain.core import DualchainError

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
    [sub] = cli.build_parser(name)._subparsers._group_actions[0].choices.values()
    defined = {action.dest for action in sub._actions if action.dest != "help"}
    assert defined - options_read(cli._COMMANDS[name][2]) == set()


def error_codes() -> set[str]:
    """The `code` of every DualchainError subclass in the package."""
    for path in MODULES:
        if path.stem != "__init__":
            importlib.import_module(f"dualchain.{path.stem}")
    todo, codes = [DualchainError], set()
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("dualchain."):  # not a test's own subclass
            codes.add(cls.code)
        todo.extend(cls.__subclasses__())
    return codes


def test_every_error_code_is_in_the_readme():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert {code for code in error_codes() if f"| `{code}` |" not in readme} == set()
