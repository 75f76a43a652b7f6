"""Source hygiene: every module-level import is used.

A stdlib `ast` scan of the Python files under src/, tests/, scripts/ and
perfbench/: each name that an import outside any function or class binds
must be read somewhere in its module, be listed in the module's
`__all__`, or carry flake8's `# noqa: F401` (an import made for its side
effect, such as the module load it times).
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
