"""Differential oracle: reduced bases agree with sympy's ``groebner``.

sympy is a test-only dependency; the module is skipped without it.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from vanish.fields import GF, QQ
from vanish.groebner import buchberger
from vanish.orders import GREVLEX, LEX
from vanish.poly import PolyRing

sympy = pytest.importorskip("sympy")

ORDERS = {"grevlex": GREVLEX, "lex": LEX}


@st.composite
def systems(draw):
    """2-3 variables, at most 3 generators of degree <= 3."""
    nvars = draw(st.integers(2, 3))
    monomial = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).filter(
        lambda e: sum(e) <= 3).map(tuple)
    generator = st.dictionaries(monomial, st.integers(-4, 4).filter(bool),
                                min_size=1, max_size=3)
    return nvars, draw(st.lists(generator, min_size=1, max_size=3))


@st.composite
def monomial_systems(draw):
    """1-4 variables, up to 5 single-term generators with any coefficient;
    these take the closed-form route."""
    nvars = draw(st.integers(1, 4))
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * nvars),
                     st.integers(-4, 4).filter(bool))
    return nvars, [dict([t]) for t in draw(st.lists(term, min_size=1, max_size=5))]


def sympy_basis(gens, nvars, order, modulus):
    xs = sympy.symbols(f"x0:{nvars}")
    exprs = [sum(c * sympy.Mul(*(x**k for x, k in zip(xs, e)))
                 for e, c in g.items()) for g in gens]
    opts = {"modulus": modulus} if modulus else {"domain": "QQ"}
    G = sympy.groebner(exprs, *xs, order=order, **opts)
    out = []
    for poly in G.polys:
        terms = {}
        for e, c in poly.terms():
            r = poly.domain.to_sympy(c)
            terms[e] = int(r) % modulus if modulus else Fraction(int(r.p), int(r.q))
        out.append(terms)
    return out


@settings(max_examples=25, deadline=None)
@given(systems(), st.sampled_from(sorted(ORDERS)), st.sampled_from([None, 7, 32003]))
def test_buchberger_matches_sympy(system, order, modulus):
    assert_matches_sympy(system, order, modulus)


@settings(max_examples=25, deadline=None)
@given(monomial_systems(), st.sampled_from(sorted(ORDERS)),
       st.sampled_from([None, 7, 32003]))
def test_monomial_bases_match_sympy(system, order, modulus):
    assert_matches_sympy(system, order, modulus)


def assert_matches_sympy(system, order, modulus):
    nvars, gens = system
    ring = PolyRing(QQ if modulus is None else GF(modulus),
                    tuple(f"x{i}" for i in range(nvars)))
    ours = buchberger(ring, [ring.from_terms(g) for g in gens], ORDERS[order])
    ours = [g.terms for g in ours if not g.is_zero()]
    theirs = sympy_basis(gens, nvars, order, modulus)
    key = lambda terms: sorted(terms.items())  # noqa: E731
    assert sorted(ours, key=key) == sorted(theirs, key=key)
