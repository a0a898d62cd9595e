"""The library keeps what its callers run.

Every top-level function and every non-dunder method in src/epsilon_lab is
referenced by name somewhere in src outside its own body.  Code that only
the tests run lives under tests/.  The one exception is an entry point
whose callers live outside src: a name that README.md shows in its code,
or that the benchmark's worker (perfbench/worker.py) uses.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "epsilon_lab"


def _used_names(tree):
    """Each name an ast.Name or ast.Attribute node of tree refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def _definitions(tree):
    """(qualified name, node) of each top-level function and each
    non-dunder method of a top-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield "%s.%s" % (node.name, item.name), item


def _entry_points():
    """The identifiers in README.md's code spans and blocks, and the names
    perfbench/worker.py uses."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`]+`", readme, re.S)
    names = set(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))
    worker = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    return names | {name for name, _node in _used_names(worker)}


def test_every_function_in_src_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    uses = defaultdict(list)
    for tree in trees.values():
        for name, node in _used_names(tree):
            uses[name].append(node)
    entry = _entry_points()
    orphans = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            own = set(map(id, ast.walk(node)))
            if node.name in entry or any(id(use) not in own for use in uses[node.name]):
                continue
            orphans.append("%s: %s" % (module, qualname))
    assert not orphans, "defined in src, called only from outside it: %s" % ", ".join(orphans)
