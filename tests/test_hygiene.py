"""Every name a module imports is used in it.

No linter ships with the test dependencies, and a deleted function or
field can leave the import that served it behind.  This walks each
module of the package with `ast` and fails on an imported name that the
module never reads (`from __future__` imports excepted).
"""

import ast
import pathlib

import pytest

import dualchain

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
