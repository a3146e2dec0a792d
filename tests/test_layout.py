"""src/ holds only what the program runs.

Every public function, class and method defined in ``src/boltlab`` must be
read somewhere in ``src/`` outside its own definition, as a name or an
attribute, and every public dataclass field must be read somewhere in
``src/`` as an attribute.  A reference that only the tests need lives in
``tests/oracles.py``.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "boltlab"

# the benchmark's tracer wraps it to count the calls; the program itself never undoes an extraction
ALLOWED = {"ExtractionPlan.unextract"}
# acceptance criterion 9 reads it to size its tolerance; no report carries it yet
ALLOWED_FIELDS = {"CounterfeitStats.per_trial_f2_sd"}


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
    """(name, file, line) of every name and attribute read in the file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, path, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, path, node.lineno


def test_every_public_name_in_src_is_used_in_src():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    uses = {}
    for path, tree in trees.items():
        for name, file, line in _uses(path, tree):
            uses.setdefault(name, []).append((file, line))
    unused = [
        qualname
        for path, tree in trees.items()
        for qualname, file, first, last in _definitions(path, tree)
        if qualname not in ALLOWED
        and not any(f != file or not first <= line <= last
                    for f, line in uses.get(qualname.rsplit(".", 1)[-1], []))
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
        and item.target.id not in reads and f"{cls.name}.{item.target.id}" not in ALLOWED_FIELDS
    ]
    assert unread == [], f"dataclass fields that nothing in src/ reads: {unread}"
