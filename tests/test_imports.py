"""Every module of the package uses every name it imports (the package's
`__init__.py`, which imports to re-export, excepted)."""

import ast
from pathlib import Path

import pytest

import polyelast

MODULES = sorted(p for p in Path(polyelast.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that no other node reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\n" \
             "import x.y\nfrom a.b import c, d as e\nsys.exit(c(x.y))\n"
    assert unused_imports(source) == ["e", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
