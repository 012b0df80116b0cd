"""Checks on the source of ``src/vanish``, read with the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "vanish"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.  A name counts as read when
    it appears as a Name node, in code or in a string annotation."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = ([node.returns] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                       else [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign))
                       else [])
        for a in annotations:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                used.update(n.id for n in ast.walk(ast.parse(a.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from math import gcd, lcm\n\ndef f(x: 'Fraction') -> \"gcd\":\n    return os\n")
    assert unused_imports(source) == ["regex", "lcm"]


def raised_names(source: str) -> list[str]:
    """The name of each class a module raises, as in ``raise Name(...)``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.append(exc.id)
    return names


def test_ring_mismatch_is_raised_in_poly_only():
    # PolyRing.check is the one ring-agreement check; substitute's field
    # check is the other raise
    raises = {p.name: raised_names(p.read_text()).count("RingMismatchError")
              for p in MODULES}
    assert {name: n for name, n in raises.items() if n} == {"poly.py": 2}


def test_term_cap_error_is_built_in_config_only():
    # config.term_cap_error builds every term-cap message
    built = {p.name: sites(p.read_text(), calls("TermCapExceededError")) for p in MODULES}
    assert {name: s for name, s in built.items() if s} == {"config.py": ["term_cap_error"]}


def test_raised_names_are_found():
    source = "def f(x):\n    if x:\n        raise KeyError(x)\n    raise StopIteration\n"
    assert sorted(raised_names(source)) == ["KeyError", "StopIteration"]


def sites(source: str, match) -> list:
    """The top-level definition around each node ``match`` accepts, by
    name (None at module level)."""
    return [getattr(stmt, "name", None) for stmt in ast.parse(source).body
            for node in ast.walk(stmt) if match(node)]


def calls(name: str):
    return lambda node: (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def method_calls(name: str):
    return lambda node: (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Attribute)
                         and node.func.attr == name)


def catches(name: str):
    return lambda node: (isinstance(node, ast.ExceptHandler)
                         and node.type is not None
                         and any(isinstance(t, ast.Name) and t.id == name
                                 for t in ast.walk(node.type)))


def test_theorems_report_through_one_core():
    # every claim's report, the inconclusive one included, is built in
    # _verify, the one place an uncertified symbolic power is caught
    source = (SRC / "theorems.py").read_text()
    assert sites(source, calls("VerificationReport")) == ["_verify", "_verify"]
    assert sites(source, catches("UncertifiedSymbolicPowerError")) == ["_verify"]


def test_theorems_decide_hypotheses_in_one_helper():
    # both hypotheses, for pairs, multi and ci alike, are decided in
    # _hypotheses: the one radical-membership test in the module
    source = (SRC / "theorems.py").read_text()
    assert sites(source, method_calls("radical_contains")) == ["_hypotheses"]


def test_overflow_is_caught_in_one_widening_helper():
    # a packed monomial's overflow widens the reducer in one place, for the
    # division loop and the remainder table alike
    tree = ast.parse((SRC / "groebner.py").read_text())
    handlers = [node for node in ast.walk(tree) if catches("OverflowError")(node)]
    owners = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              for node in ast.walk(f) if node in handlers]
    assert len(handlers) == 1 and owners == ["_widening"]


def reached_calls(source: str, name: str) -> set[str]:
    """The names called, as f(...) or a.f(...), by the top-level function
    ``name`` of a module and by each top-level function of the module it
    reaches that way."""
    tree = ast.parse(source)
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    called, todo = set(), [name]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
                if callee in defs and callee not in called:
                    todo.append(callee)
                called.add(callee)
    return called


TAG_VARIABLE_ROUTE = {"colon", "intersect", "saturate", "eliminate", "adjoin"}


def test_graded_colon_takes_no_tag_variable():
    # Bayer's criterion divides one weighted basis: the helper reaches no
    # colon, intersection, saturation or elimination, whose tag-variable
    # route stays independent of it for the probes
    called = reached_calls((SRC / "ideals.py").read_text(), "_graded_colon")
    assert called and not called & TAG_VARIABLE_ROUTE


def test_restriction_probe_takes_no_tag_variable():
    # the graded route's probe reads Hilbert numerators off grevlex bases:
    # it reaches no colon, intersection or tag variable, and so shares
    # nothing with the colon route it replaces
    called = reached_calls((SRC / "local.py").read_text(), "_regular_by_restriction")
    assert {"_numerator", "_hilbert_numerator", "groebner_basis"} <= called
    assert not called & TAG_VARIABLE_ROUTE


def test_reached_calls_follow_module_functions():
    source = ("def f():\n    return g() + a.h()\n"
              "def g():\n    return k.colon()\n"
              "def u():\n    return adjoin()\n")
    assert reached_calls(source, "f") == {"g", "h", "colon"}


def test_sites_are_found():
    source = ("try:\n    f()\nexcept (KeyError, E):\n    pass\n"
              "def g():\n    def h():\n        return f(1)\n    return [f()]\n"
              "class C:\n    def m(self):\n        try:\n            g.f()\n"
              "        except E:\n            f()\n")
    assert sites(source, calls("f")) == [None, "g", "g", "C"]
    assert sites(source, catches("E")) == [None, "C"]


def test_method_call_sites_are_found():
    source = "def g():\n    return a.f(b.f, f())\nclass C:\n    x = f\n    y = a.b.f()\n"
    assert sites(source, method_calls("f")) == ["g", "C"]
