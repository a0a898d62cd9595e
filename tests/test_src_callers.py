"""The library keeps what its callers run.

Every top-level function in src/epsilon_lab is referenced by name
somewhere in src outside its own body, and every non-dunder method is read
as an attribute, `.name`, there: a bare name that happens to match a
method calls no method.  Code that only the tests run lives under tests/.
The one exception is an entry point whose callers live outside src: a
function that README.md names in its code or the benchmark's worker
(perfbench/worker.py) uses, or a method that README's code reads after a
`.` or the worker reads as an attribute.

Methods are matched by name only, whatever class the read belongs to, so
a method with no caller survives this test while a same-named method of
another class is called, named in README's code or read by the worker.
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
    """The functions and the methods called from outside src: for
    functions, the identifiers in README.md's code spans and blocks and the
    names perfbench/worker.py uses; for methods, the identifiers after a
    `.` in README's code and the attributes the worker reads."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = "\n".join(re.findall(r"```.*?```|`[^`]+`", readme, re.S))
    worker = list(_used_names(ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))))
    functions = set(re.findall(r"[A-Za-z_]\w*", code)) | {name for name, _node in worker}
    methods = set(re.findall(r"\.\s*([A-Za-z_]\w*)", code))
    methods |= {name for name, node in worker if isinstance(node, ast.Attribute)}
    return functions, methods


def test_every_function_in_src_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    uses = defaultdict(list)
    for tree in trees.values():
        for name, node in _used_names(tree):
            uses[name].append(node)
    functions, methods = _entry_points()
    orphans = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            method = "." in qualname
            if node.name in (methods if method else functions):
                continue
            own = set(map(id, ast.walk(node)))
            if any(
                id(use) not in own and (isinstance(use, ast.Attribute) or not method)
                for use in uses[node.name]
            ):
                continue
            orphans.append("%s: %s" % (module, qualname))
    assert not orphans, "defined in src, called only from outside it: %s" % ", ".join(orphans)
