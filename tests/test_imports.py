"""Every module of the package uses every name it imports (the package's
`__init__.py`, which imports to re-export, excepted), and only the matrix
assembly walks the per-chunk reconstruction operators."""

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


def private_definitions(source: str) -> set[str]:
    """Private names (`_x`, not dunder) that `source` binds at module level:
    functions, classes and assigned names."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def references(source: str) -> set[str]:
    """Names that `source` reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_the_guard_sees_an_orphan_private_name():
    source = "_USED = 1\n_ORPHAN = 2\ndef _helper():\n    return _USED\n" \
             "def _dead():\n    pass\nclass _Box:\n    pass\nx = _helper() + _Box\n"
    assert private_definitions(source) - references(source) == {"_ORPHAN", "_dead"}


def test_every_private_module_name_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(polyelast.__file__).parent.glob("*.py")}
    read = set().union(*map(references, sources.values()))
    orphans = sorted(f"{module}:{name}" for module, source in sources.items()
                     for name in private_definitions(source) - read)
    assert orphans == []


def callers(source: str, name: str) -> set[str]:
    """The functions of `source` (or "<module>") that call `name`, by its bare
    name or as an attribute."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == name) or (
                        isinstance(func, ast.Attribute) and func.attr == name):
                    found.add(function)
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_guard_sees_every_caller():
    source = "def a():\n    return [x for x in walk(m)]\n" \
             "def b():\n    def c():\n        space.walk(m)\n    return c\nwalk(m)\n"
    assert callers(source, "walk") == {"a", "c", "<module>"}


def test_only_the_matrix_assembly_walks_the_operator_chunks():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(polyelast.__file__).parent.glob("*.py")}
    walkers = sorted(f"{module}:{function}" for module, source in sources.items()
                     for function in callers(source, "operator_chunks"))
    assert walkers == ["assembly.py:assemble_matrix"]


def test_only_the_reduction_constructs_a_sparse_system():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(polyelast.__file__).parent.glob("*.py")}
    constructors = sorted(f"{module}:{function}" for module, source in sources.items()
                          for function in callers(source, "SparseSystem"))
    assert constructors == ["assembly.py:reduce_system"]
