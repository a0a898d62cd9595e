"""The library keeps what its callers run.

The product is driven in one fresh interpreter under sys.setprofile: every
golden CLI case (product-check also under the two unit-sum methods),
README's Python blocks, and the few extra inputs in _EXTRA_ARGV and
_drive that reach the remaining paths.  Each call into src/epsilon_lab is
recorded as an edge from the nearest src frame below it; frames outside
src, argparse's included, are transparent, so argparse calling `_refuse`
counts as a call from `main`.  Every top-level function and every method
of a top-level class, dunders included, must be reachable along those
edges from a root: a module body, the console entry point `cli.main`, a
function that README.md names in its code or that the benchmark's worker
(perfbench/worker.py) uses, or a method that README's code reads after a
`.` or the worker reads as an attribute or applies as an operator (`*`,
`**`, `==` and `!=`: the worker multiplies and compares the CoeffElems
that it hands in and reads out).  `__repr__` is exempt: pytest and
debugging read it.

The interpreter is fresh because the tests' process holds the field
tables and descriptors that earlier tests built, so their builders would
go unrecorded, and so that a call made while src imports is recorded
too.  Code objects are mapped to definitions by file and line, not by
co_qualname, which Python 3.10 lacks.  Reachability, not "has a caller",
is what counts, so a chain that only the tests enter fails whole.  Code
that only the tests run lives under tests/.

Run this file directly, with src on PYTHONPATH, to print the recorded
edges as JSON; with --lines, the same drive runs under sys.settrace and
prints each executable line of src that it never runs, as file:line:
text.  That report is no gate, since refusals of outside input are in it,
but it shows branches that only the tests run, as the guard shows
definitions.
"""

import ast
import contextlib
import dis
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "epsilon_lab"
EXEMPT = {"__repr__"}

# argv past the golden cases: a bad command line, a pinned prime, a
# constant-mode spec (no punctures, a constant wild datum) and a form with
# a common factor; {name} is a file _drive writes first
_EXTRA_ARGV = [
    ["gauss"],
    ["gauss", "--p", "3", "--q", "3", "--c", "1", "--ell", "73"],
    ["product-check", "--spec", "{constant_spec}"],
    ["product-check", "--omega", "{common_factor}"],
]
_FILES = {
    "constant_spec": {"p": 3, "n": 1, "wild": {"num": [[1]], "den": [[1]]}},
    # (t + 1) / (t (t + 1)) = 1 / t
    "common_factor": {"num": [[1], [1]], "den": [[0], [1], [1]]},
}


def _definitions(tree):
    """(qualified name, node) of each top-level function and each method
    of a top-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs):
                    yield "%s.%s" % (node.name, item.name), item


def _units():
    """{source path: [unit of each line]}: the "module: qualname" of the
    definition a line lies in, or "module: <module>" outside any."""
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = ["%s: <module>" % path.name] * (text.count("\n") + 2)
        for qualname, node in _definitions(ast.parse(text)):
            # a decorated def's code starts at its first decorator
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            lines[first : node.end_lineno + 1] = ["%s: %s" % (path.name, qualname)] * (node.end_lineno + 1 - first)
        owners[str(path)] = lines
    return owners


def _recorder(edges):
    """A profile function adding (caller unit, callee unit) to edges."""
    owners = _units()
    by_file = {}
    by_code = {}

    def unit(code):
        got = by_code.get(code, by_code)
        if got is by_code:
            name = code.co_filename
            if name not in by_file:
                by_file[name] = owners.get(os.path.realpath(name))
            lines = by_file[name]
            got = by_code[code] = lines[code.co_firstlineno] if lines else None
        return got

    def hook(frame, event, _arg):
        if event != "call":
            return
        callee = unit(frame.f_code)
        if callee is None:
            return
        frame = frame.f_back
        while frame is not None:
            caller = unit(frame.f_code)
            if caller is not None:
                edges.add((caller, callee))
                return
            frame = frame.f_back

    return hook


def _readme_blocks():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", readme, re.S)


def _drive(tmp):
    """Run the product on every input the guard covers."""
    from epsilon_lab.cli import main
    from golden_cases import CASES

    files = {}
    for name, obj in _FILES.items():
        files[name] = os.path.join(tmp, name + ".json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    argvs = list(CASES.values())
    argvs += [argv + ["--method", m] for argv in CASES.values() if argv[0] == "product-check" for m in ("tate", "tate_slow")]
    argvs += [[arg.format(**files) for arg in argv] for argv in _EXTRA_ARGV]
    for argv in argvs:
        main(argv)
    # the blocks share one session
    ns = {}
    for block in _readme_blocks():
        exec(block, ns)
    # README's spec again, with a form equal to its omega but another
    # object: the spec's form cache compares the two
    omega = ns["RationalFunction"].from_poly(ns["Poly"](ns["F3"], [1]))
    ns["product_formula_check"](ns["spec"], ns["coeff_setup"](3, [2]), omega)


def _driven(install, hook):
    """Run the drive once, in this interpreter, with hook installed by
    install (sys.setprofile or sys.settrace)."""
    install(hook)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            _drive(tmp)
    finally:
        install(None)
    import epsilon_lab

    assert Path(epsilon_lab.__file__).resolve().parent == SRC, "drove %s, not this checkout" % epsilon_lab.__file__


def _edges():
    """The edges of one profiled drive."""
    edges = set()
    _driven(sys.setprofile, _recorder(edges))
    return edges


def _executable_lines(path):
    """The lines of the source file that compile to bytecode, over all of
    its code objects."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _offset, line in dis.findlinestarts(code) if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def _unrun_lines():
    """"file:line: text" of each executable src line that one traced drive
    never runs, in file order.  A frame's first line counts as run when the
    frame starts, which is when its header's bytecode runs."""
    paths = {str(path): path for path in sorted(SRC.glob("*.py"))}
    real = {}  # co_filename: the src path it names, or None
    ran = set()

    def local(frame, event, _arg):
        if event == "line":
            ran.add((real[frame.f_code.co_filename], frame.f_lineno))
        return local

    def hook(frame, event, _arg):
        name = frame.f_code.co_filename
        if name not in real:
            path = os.path.realpath(name)
            real[name] = path if path in paths else None
        if real[name] is None:
            return None
        ran.add((real[name], frame.f_code.co_firstlineno))
        return local

    _driven(sys.settrace, hook)
    out = []
    for name, path in paths.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(_executable_lines(path)):
            if (name, line) not in ran:
                out.append("%s:%d: %s" % (path.relative_to(ROOT), line, text[line - 1].strip()))
    return out


# the methods an operator may call; != falls back on __eq__ where a class
# defines no __ne__
_OPERATORS = {
    ast.Mult: ("__mul__", "__rmul__"),
    ast.Pow: ("__pow__", "__rpow__"),
    ast.Eq: ("__eq__",),
    ast.NotEq: ("__ne__", "__eq__"),
}


def _used_names(tree):
    """(name, is an attribute) of each ast.Name and ast.Attribute of tree,
    and the methods behind its operators, as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.Compare)):
            for op in node.ops if isinstance(node, ast.Compare) else [node.op]:
                for name in _OPERATORS.get(type(op), ()):
                    yield name, True


def _roots(units):
    """The units called from outside src: module bodies, cli.main, and the
    functions and methods README's code or the worker names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = "\n".join(re.findall(r"```.*?```|`[^`]+`", readme, re.S))
    worker = list(_used_names(ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))))
    functions = set(re.findall(r"[A-Za-z_]\w*", code)) | {name for name, _attr in worker}
    methods = set(re.findall(r"\.\s*([A-Za-z_]\w*)", code)) | {name for name, attr in worker if attr}
    roots = {"cli.py: main"}
    for unit in units:
        qualname = unit.split(": ", 1)[1]
        name = qualname.rpartition(".")[2]
        if qualname == "<module>" or name in (methods if "." in qualname else functions):
            roots.add(unit)
    return roots


def _unreached(edges):
    """Each definition in src that no root reaches, in file order."""
    units = [unit for lines in _units().values() for unit in dict.fromkeys(lines)]
    callees = {}
    for caller, callee in edges:
        callees.setdefault(caller, set()).add(callee)
    reached = set()
    todo = list(_roots(units))
    while todo:
        unit = todo.pop()
        if unit not in reached:
            reached.add(unit)
            todo += callees.get(unit, ())
    return [u for u in units if u not in reached and u.split(": ", 1)[1].rpartition(".")[2] not in EXEMPT]


def test_every_function_in_src_has_a_caller_in_src():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(Path(__file__).parent)]))
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    orphans = _unreached({tuple(edge) for edge in json.loads(run.stdout)})
    assert not orphans, "defined in src, run only from outside it: %s" % ", ".join(orphans)


if __name__ == "__main__":
    if sys.argv[1:] == ["--lines"]:
        print("\n".join(_unrun_lines()))
    else:
        json.dump(sorted(_edges()), sys.stdout)
