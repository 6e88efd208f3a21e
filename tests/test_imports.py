"""No dead imports: every name that a module under src/torfan imports is
used in that module or re-exported through its ``__all__``.  No dead
private helpers: every module-level ``_name`` function, class or
constant under src/torfan is named somewhere in src/torfan outside its
own definition.
No dead local stores: every local name a function under src/torfan
assigns, unless it starts with ``_``, is also read.  No dead exports:
every name in an ``__all__`` under src/torfan is read somewhere in
src/, tests/ or perfbench/: as a name, an attribute or a string outside
an ``__all__`` (the benchmark wraps the functions it names by string)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "torfan"


def _imported(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def dead_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_no_dead_imports_under_src():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    dead = {
        str(path.relative_to(SRC)): found
        for path in modules
        if (found := dead_imports(path.read_text(encoding="utf-8")))
    }
    assert dead == {}


def test_dead_import_is_seen():
    source = (
        "from .exact_algebra import charpoly, match_nearest\n"
        "from .errors import ToleranceExceeded\n"
        "import numpy as np\n"
        "__all__ = ['charpoly']\n"
        "def f(M):\n"
        "    return np.asarray(M)\n"
    )
    assert dead_imports(source) == [("match_nearest", 1), ("ToleranceExceeded", 2)]


def _names(node):
    """Every name a syntax tree reads: bare names, attributes and the
    names that its from-imports bind."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _defined(node):
    """The names a top-level statement defines: a function's or class's
    own, or the bare-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def dead_helpers(sources):
    """(module, name) for every module-level private function, class or
    constant (``_name``, not dunder) in `sources` (module -> source) that
    no top-level statement other than its own definition names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in tree.body:
            used |= set(_names(node)) - set(_defined(node))
    return [
        (module, name)
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


def test_no_dead_private_helpers_under_src():
    sources = {
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert sources
    assert dead_helpers(sources) == []


def test_dead_helper_is_seen():
    sources = {
        "a.py": (
            "def _called(): pass\n"
            "def _imported(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Attribute: pass\n"
            "class _Unused: pass\n"
            "def __getattr__(name): pass\n"
            "def f(): return _called()\n"
        ),
        "b.py": "from .a import _imported\nimport a\ng = a._Attribute\n",
    }
    assert dead_helpers(sources) == [("a.py", "_recursive"), ("a.py", "_Unused")]


def test_dead_constant_is_seen():
    sources = {
        "a.py": (
            "_READ = 16\n"
            "_IMPORTED = 3\n"
            "_ATTRIBUTE: int = 2\n"
            "_UNUSED = 0\n"
            "_ANNOTATED_UNUSED: int = 1\n"
            "_SELF = _SELF_SEED = 5\n"
            "__version__ = '0'\n"
            "def f(): return _READ + _SELF_SEED\n"
        ),
        "b.py": "from .a import _IMPORTED\nimport a\ng = a._ATTRIBUTE\n",
    }
    assert dead_helpers(sources) == [
        ("a.py", "_UNUSED"), ("a.py", "_ANNOTATED_UNUSED"), ("a.py", "_SELF")
    ]


def dead_stores(source):
    """(function, name) for every name that a function in the module
    assigns and that nothing in the function, its nested scopes
    included, reads; names starting with ``_`` are exempt."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, funcs):
            continue
        stored, read = [], set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node.ctx, ast.Store) and not node.id.startswith("_"):
                    stored.append(node.id)
        found += [(fn.name, name) for name in dict.fromkeys(stored) if name not in read]
    return found


def test_no_dead_local_stores_under_src():
    dead = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if (found := dead_stores(path.read_text(encoding="utf-8")))
    }
    assert dead == {}


def test_dead_store_is_seen():
    source = (
        "def f(M):\n"
        "    pres, A = M\n"
        "    _, B = M\n"
        "    for i, row in enumerate(A):\n"
        "        total = sum(row)\n"
        "    def g():\n"
        "        return B\n"
        "    return g\n"
    )
    assert dead_stores(source) == [("f", "pres"), ("f", "i"), ("f", "total")]


def test_every_export_is_read():
    exported = {
        (str(path.relative_to(SRC)), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in _exported(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert {module for module, _ in exported} >= {"cli.py", "exact_algebra/__init__.py"}
    read = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if _defined(node) == ["__all__"]:
                    continue
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        read.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        read.add(sub.attr)
                    elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                        read.add(sub.value)
    assert sorted((module, name) for module, name in exported if name not in read) == []
