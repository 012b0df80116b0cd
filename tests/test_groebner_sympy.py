"""Differential oracle: reduced bases agree with sympy's ``groebner``.

sympy is a test-only dependency; the module is skipped without it.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from vanish.fields import GF, QQ
from vanish.groebner import buchberger
from vanish.orders import GREVLEX, LEX, elimination_order
from vanish.poly import PolyRing

sympy = pytest.importorskip("sympy")

ORDERS = {"grevlex": GREVLEX, "lex": LEX}
ALL_ORDERS = {**ORDERS, "elim1": elimination_order(1)}
# elimination_order(1) as sympy spells it: grevlex on the first variable,
# then grevlex on the rest
SYMPY_ORDERS = {"elim1": sympy.polys.orderings.ProductOrder(
    (sympy.polys.orderings.grevlex, lambda m: m[:1]),
    (sympy.polys.orderings.grevlex, lambda m: m[1:]))}


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


# x^2 - y^200, x*y^10 - z, y*z^3 - x, z^2 - y: y^200 fits the 8-bit fields,
# and in LEX an S-pair passes them while eight pairs are queued
WIDENING = (3, [{(2, 0, 0): 1, (0, 200, 0): -1}, {(1, 10, 0): 1, (0, 0, 1): -1},
                {(0, 1, 3): 1, (1, 0, 0): -1}, {(0, 0, 2): 1, (0, 1, 0): -1}])


@pytest.mark.parametrize("modulus", [None, 32003])
@pytest.mark.parametrize("order", sorted(ALL_ORDERS))
def test_widening_with_pairs_queued_matches_sympy(order, modulus):
    assert_matches_sympy(WIDENING, order, modulus)


def assert_matches_sympy(system, order, modulus):
    nvars, gens = system
    ring = PolyRing(QQ if modulus is None else GF(modulus),
                    tuple(f"x{i}" for i in range(nvars)))
    ours = buchberger(ring, [ring.from_terms(g) for g in gens], ALL_ORDERS[order])
    ours = [g.terms for g in ours if not g.is_zero()]
    theirs = sympy_basis(gens, nvars, SYMPY_ORDERS.get(order, order), modulus)
    key = lambda terms: sorted(terms.items())  # noqa: E731
    assert sorted(ours, key=key) == sorted(theirs, key=key)
