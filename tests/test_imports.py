"""Every imported name is used.

Each module under `src/` and `tests/` is parsed with `ast`. A name an
import binds counts as used if it appears as a name in an expression, as a
function argument (a pytest fixture imported from another test module is
used by naming it as a parameter), or as a string constant spelling exactly
that identifier (a quoted annotation, or an entry of `__all__`).
"""

import ast

import pytest

from tests.conftest import REPO_ROOT

MODULES = sorted(path for top in ("src", "tests") for path in (REPO_ROOT / top).rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line binding it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return used


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(REPO_ROOT)) for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"
