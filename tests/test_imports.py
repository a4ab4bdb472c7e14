import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "symwalk").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in tree.body:  # top-level imports only
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    # the base of an attribute, ``os`` in ``os.path``, is a Name node too
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    # No linter ships with the project; a name a deletion left behind fails here.
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_import_check_sees_a_leftover():
    tree = ast.parse("from math import comb, factorial\nimport os.path\nfactorial(3)\n")
    assert _unused_imports(tree) == ["comb", "os"]
