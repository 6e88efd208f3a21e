"""No dead imports: every name that a module under src/torfan imports is
used in that module or re-exported through its ``__all__``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "torfan"


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
