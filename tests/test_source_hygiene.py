"""Source hygiene: every module-level import is used, every private helper called.

A stdlib `ast` scan of the Python files under src/, tests/, scripts/ and
perfbench/: each name that an import outside any function or class binds
must be read somewhere in its module, be listed in the module's
`__all__`, or carry flake8's `# noqa: F401` (an import made for its side
effect, such as the module load it times).  A second scan of src/latred
finds each single-underscore function or method that no code outside its
own body names: a private helper left behind when its callers go.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NOQA = re.compile(r"#\s*noqa(?::[\s,A-Z0-9]*F401|\s*$)")


def _module_level(nodes):
    """The statements and expressions outside every function and class body."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            yield from _module_level(ast.iter_child_nodes(node))


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(path):
    """(line, name) of each module-level import binding the module never reads."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    bound = []
    for node in _module_level(tree.body):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(line, name) for line, name in bound
            if name not in read and not NOQA.search(lines[line - 1])]


@pytest.mark.parametrize("folder", ["src", "tests", "scripts", "perfbench"])
def test_no_unused_module_level_imports(folder):
    files = sorted((ROOT / folder).rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files for line, name in unused_imports(path)]
    assert found == []


def test_the_scan_flags_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport sys as system\nfrom math import gcd, inf\n"
                    "import json  # noqa: F401\nimport re  # noqa: E402\n"
                    "__all__ = ['inf']\n\ndef f():\n    import io\n"
                    "    return system.argv\n")
    assert unused_imports(path) == [(1, "os"), (3, "gcd"), (5, "re")]


def _private_defs_and_names(tree):
    """The private (single-underscore) defs of a module, and the names read
    outside the body of the def that bears them."""
    defs, named = [], set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name.startswith("_") and not child.name.startswith("__"):
                    defs.append((child.lineno, child.name))
                visit(child, inside | {child.name})
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name
            else:
                name = None
            if name is not None and name not in inside:
                named.add(name)
            visit(child, inside)

    visit(tree, frozenset())
    return defs, named


def private_orphans(paths):
    """(path, line, name) of each private function or method no other code names."""
    found, named = [], set()
    for path in paths:
        defs, names = _private_defs_and_names(ast.parse(path.read_text(), filename=str(path)))
        found += [(path, line, name) for line, name in defs]
        named |= names
    return [(path, line, name) for path, line, name in found if name not in named]


def test_no_private_helper_is_orphaned():
    files = sorted((ROOT / "src" / "latred").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path, line, name in private_orphans(files)]
    assert found == []


def test_the_scan_flags_an_orphaned_private_helper(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("def _echelon(M):\n    return M\n\n"
                   "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
                   "def _imported():\n    return 1\n\n"
                   "class A:\n    def _hook(self):\n        return 0\n\n"
                   "    def _unused(self):\n        return 1\n\n"
                   "    def __repr__(self):\n        return self._hook()\n")
    user.write_text("from lib import _imported\n")
    assert [(p.name, line, name) for p, line, name in private_orphans([lib, user])] == \
        [("lib.py", 1, "_echelon"), ("lib.py", 4, "_recursive"), ("lib.py", 14, "_unused")]
