"""Guard: ``src/qsg`` holds only what the package, its scripts and the
benchmark run, and gives each object one name.

A top-level function or class of ``src/qsg``, or a method, is used when
code under ``src/``, ``scripts/`` or ``perfbench/`` names it outside its
own body and outside every unused definition.  A top-level definition is
named by a name, an attribute or a string (the benchmark's tracer wraps
callables by name); a method by an attribute or a string, and a class
method by ``Class.method`` or ``cls.method`` in its class.  Functions
registered by a decorator call (``@family(...)``) are used by their
registry, dunder methods by syntax, and ``__all__`` is an export, not a
use.  The scan is by name, so a colliding name can hide an unused
definition, never flag a used one.

One name per object: no top-level function only forwards its own
positional parameters, in order, to another callable (a second name for
it), and the package namespace re-exports nothing from its modules.  No
top-level function only restates one field product: its body is not a
lone ``return poly_einsum(...)``, which its callers write in place.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src", "scripts", "perfbench")

# definitions that only the tests use, kept on purpose, with the reason
ALLOWED = {}
# functions that only restate one field product, kept on purpose, with the reason
RESTATEMENTS_KEPT = {
    "structures.fundamental_two_form": "perfbench/tracing.py hooks the name (ROADMAP item 2)",
    "structures.twin_metric": "perfbench/tracing.py hooks the name (ROADMAP item 2)",
}


def _definitions(root):
    """(qualified name, path, node, enclosing class node or None)."""
    out = []
    for path in sorted((root / "src" / "qsg").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and any(isinstance(d, ast.Call)
                                                         for d in node.decorator_list):
                continue  # registered
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((f"{path.stem}.{node.name}", path, node, None))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{m.name}", path, m, node) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    return out


def _references(root, dirs):
    """{name: [(path, line, kind, the attribute's base name)]}."""
    out = {}
    for path in sorted(p for d in dirs for p in (root / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        exports = {id(n) for node in tree.body if isinstance(node, ast.Assign)
                   and "__all__" in [getattr(t, "id", None) for t in node.targets]
                   for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name, kind, base = node.id, "name", None
            elif isinstance(node, ast.Attribute):
                name, kind, base = node.attr, "attr", getattr(node.value, "id", None)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name, kind, base = node.value, "str", None
            else:
                continue
            if id(node) not in exports:
                out.setdefault(name, []).append((path, node.lineno, kind, base))
    return out


def _inside(node, path, def_path, line):
    return path == def_path and node.lineno <= line <= node.end_lineno


def unused_definitions(root=ROOT, dirs=USERS):
    """Qualified names of the ``src/qsg`` definitions nothing under ``dirs``
    uses; a use from inside an unused definition does not count."""
    defs, refs = _definitions(root), _references(root, dirs)

    def uses(qualname, path, node, cls, dead):
        bound = any(getattr(d, "id", None) == "classmethod" for d in node.decorator_list)
        for p, line, kind, base in refs.get(node.name, ()):
            if _inside(node, p, path, line) or any(_inside(n, p, dp, line) for dp, n in dead):
                continue
            if (cls is None or kind == "str" or kind == "attr" and not bound
                    or base == cls.name or base == "cls" and _inside(cls, p, path, line)):
                return True
        return False

    unused = set()
    while True:
        dead = [(path, node) for q, path, node, _ in defs if q in unused]
        found = {q for q, path, node, cls in defs if not uses(q, path, node, cls, dead)}
        if found == unused:
            return unused
        unused = found


def _returned_calls(root):
    """(qualified name, function node, call node) for every top-level
    ``src/qsg`` function whose body, after its docstring, is only
    ``return <call>``."""
    for path in sorted((root / "src" / "qsg").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and isinstance(body[0].value, ast.Call)):
                yield f"{path.stem}.{node.name}", node, body[0].value


def forwarding_functions(root=ROOT):
    """Qualified names of the top-level ``src/qsg`` functions whose body,
    after its docstring, is only ``return f(a, b, ...)`` with exactly the
    function's own positional parameters, in order."""
    return {name for name, node, call in _returned_calls(root)
            if not call.keywords and [getattr(a, "id", None) for a in call.args]
            == [a.arg for a in node.args.posonlyargs + node.args.args]}


def product_restatements(root=ROOT):
    """Qualified names of the top-level ``src/qsg`` functions whose body,
    after its docstring, is only ``return poly_einsum(...)``."""
    return {name for name, _, call in _returned_calls(root)
            if "poly_einsum" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))}


def test_src_holds_only_what_runs():
    assert sorted(unused_definitions() - ALLOWED.keys()) == []
    # an allowed definition is still there, unused, and used by the tests
    assert ALLOWED.keys() <= unused_definitions() - unused_definitions(dirs=USERS + ("tests",))


def test_the_scan_on_a_small_package(tmp_path):
    (tmp_path / "src" / "qsg").mkdir(parents=True)
    (tmp_path / "src" / "qsg" / "mod.py").write_text("""
def used():
    return helper() + Box.make().size() + getattr(Box(), "traced")()
def helper(): pass
def only_tested(): return chain()
def chain(): pass
def recursive(): return recursive()
@register("id")
def family(): pass
class Box:
    def size(self): return self.inner()
    def inner(self): pass
    def traced(self): pass
    def stale(self): pass
    @classmethod
    def make(cls): return cls()
    @classmethod
    def size_of(cls): pass
__all__ = ["only_tested"]
size_of = Other.size_of
used()
""")
    assert unused_definitions(tmp_path, ("src",)) == {
        "mod.only_tested", "mod.chain", "mod.recursive", "mod.Box.stale", "mod.Box.size_of"}


def test_no_function_is_a_second_name():
    assert sorted(forwarding_functions()) == []


def test_forwarding_scan_on_a_small_package(tmp_path):
    (tmp_path / "src" / "qsg").mkdir(parents=True)
    (tmp_path / "src" / "qsg" / "mod.py").write_text('''
def alias(a, b):
    """Docstring."""
    return Box(a, b)
def bare(x): return f(x)
def reordered(a, b): return f(b, a)
def keyword(a, b): return f(a, b=b)
def extra(a): return f(a, 1)
def two_lines(a):
    b = a
    return f(b)
class Box:
    def same(self, a): return f(self, a)
''')
    assert forwarding_functions(tmp_path) == {"mod.alias", "mod.bare"}


def test_no_function_only_restates_a_field_product():
    assert sorted(product_restatements() - RESTATEMENTS_KEPT.keys()) == []
    # a kept restatement is still there and still only restates
    assert RESTATEMENTS_KEPT.keys() <= product_restatements()


def test_restatement_scan_on_a_small_package(tmp_path):
    (tmp_path / "src" / "qsg").mkdir(parents=True)
    (tmp_path / "src" / "qsg" / "mod.py").write_text('''
def documented(J, b):
    """Docstring."""
    return poly_einsum("ki,kj->ij", J, b, valence=(0, 2))
def qualified(A, B): return fields.poly_einsum("km,mj->kj", A, B, valence=(1, 1))
def negated(A, B): return -poly_einsum("km,mj->kj", A, B, valence=(1, 1))
def checked(J, X):
    if J is None:
        raise ValueError
    return poly_einsum("kj,j->k", J, X, valence=(1, 0))
def scaled(b): return poly_einsum("ij->ji", b, valence=(0, 2)).scale(0.5)
def other(A, B): return contract("km,mj->kj", A, B)
class Box:
    def method(self, A): return poly_einsum("kj->jk", A, valence=(1, 1))
''')
    assert product_restatements(tmp_path) == {"mod.documented", "mod.qualified"}


def test_package_namespace_reexports_nothing():
    tree = ast.parse((ROOT / "src" / "qsg" / "__init__.py").read_text())
    assert not any(isinstance(n, ast.Name) and n.id == "__all__" for n in ast.walk(tree))
    sources = {n.module or alias.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) and n.level for alias in n.names}
    assert sources <= {"blas"}
