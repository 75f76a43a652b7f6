"""Source hygiene: every module-level import is used, every private helper
called, every public name reached.

A stdlib `ast` scan of the Python files under src/, tests/, scripts/ and
perfbench/: each name that an import outside any function or class binds
must be read somewhere in its module, be listed in the module's
`__all__`, or carry flake8's `# noqa: F401` (an import made for its side
effect, such as the module load it times).  A second scan of src/latred
finds each single-underscore function or method that no code outside its
own body names: a private helper left behind when its callers go.  A
third finds each public function, class or method of src/latred that no
caller reaches: not the library's own live code, scripts/, perfbench/, a
CLI verb, the lazy namespace's `_EXPORTS` or the README's "Public API"
list.  Tests are not callers.
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


# ---------------------------------------------------------------------------
# reachability of public names: every public function, class and method in
# src/latred is reached from a caller, or the README names it as public API
# ---------------------------------------------------------------------------

class _Def:
    """One function, class or method of a library module."""

    def __init__(self, path, module, qualname, node, parent):
        self.path, self.line, self.name = path, node.lineno, node.name
        self.key = f"{module}.{qualname}"
        self.parent, self.reads = parent, set()
        self.is_class = isinstance(node, ast.ClassDef)
        self.is_verb = any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                           and d.func.attr in ("command", "group")
                           for d in node.decorator_list)

    @property
    def public(self):
        return not self.name.startswith("_")


def _read(node):
    """The name an expression node reads, if any."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def _library_defs(path, module, defs):
    """Add the module's defs to `defs`; return the names read at module level.

    Module-level functions and classes and the functions and classes of a
    class body are defs; a def nested in a function is part of that
    function's body.  A def's decorators, bases and body read for it alone.
    """
    top = set()

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and (owner is None or owner.is_class)):
                d = _Def(path, module, prefix + child.name, child, owner)
                defs.append(d)
                visit(child, d, prefix + child.name + ".")
                continue
            name = _read(child)
            if name is not None:
                (top if owner is None else owner.reads).add(name)
            visit(child, owner, prefix)

    visit(ast.parse(path.read_text(), filename=str(path)), None, "")
    return top


def _caller_reads(path):
    """Every name a caller file reads or imports, wherever it reads it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return ({_read(n) for n in ast.walk(tree)} - {None}
            | {a.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) for a in n.names})


def unreached_public_defs(library, callers, roots):
    """(path, line, qualified name) of each public def that nothing reaches,
    and the roots that name no def.

    `library` maps module names to files, `callers` lists the files whose
    every read counts (scripts, the benchmark), and `roots` holds qualified
    names `module.Class.method` that are public by declaration.  A def is
    reached when it is a root or a CLI verb (decorated by some
    `.command(...)` or `.group(...)`), or when its class, if any, is reached
    and its name is read at module level, by a caller, or in the body of a
    reached def other than itself; a class's dunder methods are reached with
    it.  Names match by name alone, so a read reaches every def bearing it.
    """
    defs, live_names = [], set()
    for module, path in library.items():
        live_names |= _library_defs(path, module, defs)
    for path in callers:
        live_names |= _caller_reads(path)
    by_key = {d.key: d for d in defs}
    rooted = set()
    for key in roots:
        d = by_key.get(key)
        while d is not None:
            rooted.add(d.key)
            d = d.parent
    live = set()
    changed = True
    while changed:
        changed = False
        for d in defs:
            if d.key in live:
                continue
            if (d.key in rooted or d.is_verb
                    or ((d.parent is None or d.parent.key in live)
                        and (d.name in live_names or d.name.startswith("__")))):
                live.add(d.key)
                live_names |= d.reads
                changed = True
    found = [(d.path, d.line, d.key) for d in defs
             if d.public and d.key not in live
             and not (d.parent is not None and d.parent.public and d.parent.key not in live)]
    return found, sorted(set(roots) - set(by_key))


def exported_names(init_path):
    """`module.name` for each name of the lazy namespace's `_EXPORTS`."""
    tree = ast.parse(init_path.read_text(), filename=str(init_path))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)):
            exports = ast.literal_eval(node.value)
            return {f"{module}.{name}" for module, names in exports.items() for name in names}
    return set()


def readme_public_api(readme_path):
    """The qualified names the README's "Public API" section lists, one a line."""
    names, inside = set(), False
    for line in readme_path.read_text().splitlines():
        if line.startswith("## "):
            inside = line.strip() == "## Public API"
        elif inside:
            m = re.match(r"[-*]\s+`([\w.]+)`", line)
            if m:
                names.add(m.group(1))
    return names


def test_every_public_name_is_reached():
    package = ROOT / "src" / "latred"
    library = {path.stem: path for path in sorted(package.glob("*.py"))}
    callers = sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    roots = exported_names(package / "__init__.py")
    found, unknown = unreached_public_defs(library, callers,
                                           roots | readme_public_api(ROOT / "README.md"))
    assert [f"{path.relative_to(ROOT)}:{line}: {key}" for path, line, key in found] == []
    assert unknown == []


def test_the_scan_flags_an_unreached_public_name(tmp_path):
    lib, other, script, bench = (tmp_path / f"{n}.py" for n in ("lib", "other", "script", "bench"))
    lib.write_text(
        "import click\n\n"
        "def dead():\n    return helper()\n\n"        # unreached, so helper is too
        "def helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def used_by_other():\n    return 2\n\n"
        "def used_by_script():\n    return 3\n\n"
        "def used_by_bench():\n    return 4\n\n"
        "def exported():\n    return 5\n\n"
        "def documented():\n    return 6\n\n"
        "def at_import():\n    return 7\n\n"
        "class Base:\n    pass\n\n"
        "class Field:\n    pass\n\n"
        "class Kept(Base):\n    value: Field\n\n"
        "    def __repr__(self):\n        return self.shown()\n\n"
        "    def shown(self):\n        return ''\n\n"
        "    def unused(self):\n        return self.unused()\n\n"
        "    def documented_method(self):\n        return 0\n\n"
        "class Dead:\n    def shown(self):\n        return ''\n\n"
        "@click.group()\ndef main():\n    pass\n\n"
        "@main.command(name='verb')\ndef verb():\n    return _private()\n\n"
        "def _private():\n    return Kept()\n\n"
        "CONSTANT = at_import()\n")
    other.write_text("from lib import used_by_other\n\n"
                     "def caller():\n    return used_by_other()\n\n"
                     "CALLED = caller()\n")
    script.write_text("import lib\n\nprint(lib.used_by_script())\n")
    bench.write_text("from lib import used_by_bench  # noqa: F401\n")
    found, unknown = unreached_public_defs(
        {"lib": lib, "other": other}, [script, bench],
        {"lib.exported", "lib.documented", "lib.Kept.documented_method", "lib.gone"})
    assert [(p.name, line, key) for p, line, key in found] == [
        ("lib.py", 3, "lib.dead"), ("lib.py", 6, "lib.helper"),
        ("lib.py", 9, "lib.recursive"), ("lib.py", 45, "lib.Kept.unused"),
        ("lib.py", 51, "lib.Dead")]
    assert unknown == ["lib.gone"]


def test_the_public_api_sources_are_read(tmp_path):
    init, readme = tmp_path / "__init__.py", tmp_path / "README.md"
    init.write_text("_EXPORTS = {'latz': ('InnerProduct', 'gram_vol2'), 'logs': ('ExactLog',)}\n")
    readme.write_text("# x\n\n- `not.listed`\n\n## Public API\n\n"
                      "- `latff.VolumeSpace.transformed`: the GL_n action\n"
                      "* `building.standard_vertex`\n\nprose `not.a.name`\n\n"
                      "## Next\n\n- `not.listed.either`\n")
    assert exported_names(init) == {"latz.InnerProduct", "latz.gram_vol2", "logs.ExactLog"}
    assert readme_public_api(readme) == {"latff.VolumeSpace.transformed",
                                         "building.standard_vertex"}
