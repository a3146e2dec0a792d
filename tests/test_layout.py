"""src/ holds only what the program runs.

Every public function and class defined in ``src/boltlab`` must be read
somewhere in ``src/`` outside its own definition, as a name or an attribute,
and every public method as an attribute (a local variable of the same name
does not count); every public dataclass field must be read somewhere in ``src/``
as an attribute; and every parameter default must be overridden by some
call in ``src/``, by keyword or by position.  A reference that only the
tests need lives in ``tests/oracles.py``.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "boltlab"

ALLOWED = set()  # public names that nothing in src/ need read
# the console entry point reads sys.argv when called with no arguments
ALLOWED_DEFAULTS = {"main(argv)"}


def _definitions(path, tree):
    """(qualified name, file, first line, last line) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, path, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", path, item.lineno, item.end_lineno


def _uses(path, tree):
    """(name, is an attribute, file, line) of every name and attribute read in the file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False, path, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, path, node.lineno


def test_every_public_name_in_src_is_used_in_src():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    uses = {}
    for path, tree in trees.items():
        for name, attr, file, line in _uses(path, tree):
            uses.setdefault(name, []).append((attr, file, line))
    unused = [
        qualname
        for path, tree in trees.items()
        for qualname, file, first, last in _definitions(path, tree)
        if qualname not in ALLOWED
        and not any((attr or "." not in qualname) and (f != file or not first <= line <= last)
                    for attr, f, line in uses.get(qualname.rsplit(".", 1)[-1], []))
    ]
    assert unused == [], f"public names that nothing in src/ reads: {unused}"


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_in_src_is_read_in_src():
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]
    reads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [
        f"{cls.name}.{item.target.id}"
        for tree in trees
        for cls in tree.body if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_")
        and item.target.id not in reads
    ]
    assert unread == [], f"dataclass fields that nothing in src/ reads: {unread}"


def _defaulted(fn):
    """(name, position or None) of each parameter of fn that has a default; the
    position counts the arguments a call passes, so a method's self is left out."""
    a = fn.args
    pos = a.posonlyargs + a.args
    skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
    for arg in pos[len(pos) - len(a.defaults):]:
        yield arg.arg, pos.index(arg) - skip
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _overrides(call, name, position):
    """Whether the call may pass the parameter: by keyword, by position, or by unpacking."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(x, ast.Starred) for x in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_default_in_src_is_overridden_by_a_call_in_src():
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(callee, []).append(node)
    unused = [
        f"{fn.name}({name})"
        for tree in trees
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for name, position in _defaulted(fn)
        if f"{fn.name}({name})" not in ALLOWED_DEFAULTS
        and not any(_overrides(c, name, position) for c in calls.get(fn.name, []))
    ]
    assert unused == [], f"defaults that no call in src/ overrides: {unused}"


def test_importing_the_package_loads_none_of_its_modules():
    # a layer is loaded by what imports it, as ``import boltlab.cli`` loads every one
    code = "import sys, boltlab; print(sorted(m for m in sys.modules if m.startswith('boltlab')))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert run.stdout == "['boltlab']\n"
