"""Randomized algebraic laws, driven by hypothesis."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from oracles import schoolbook_mul
from vanish.fields import GF, QQ
from vanish.orders import GREVLEX, GRLEX, LEX, elimination_order
from vanish.parser import parse_polynomial
from vanish.poly import PolyRing

R3 = PolyRing(QQ, ("x", "y", "z"))
R_GF = PolyRing(GF(7), ("x", "y"))

exponents3 = st.tuples(st.integers(0, 3), st.integers(0, 3),
                       st.integers(0, 3))
coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def polys(draw, ring=R3, exps=exponents3):
    terms = draw(st.lists(st.tuples(exps, coeffs), max_size=5))
    f = ring.zero()
    for e, c in terms:
        f = f + ring.monomial(e) * Fraction(c)
    return f


@st.composite
def gf_polys(draw):
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
    terms = draw(st.lists(st.tuples(exps, st.integers(0, 6)), max_size=5))
    f = R_GF.zero()
    for e, c in terms:
        f = f + R_GF.monomial(e) * c
    return f


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_mul_associative_and_distributive(self, f, g, h):
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_commutativity_and_schoolbook(self, f, g):
        assert f * g == g * f
        assert f * g == schoolbook_mul(f, g)

    @settings(max_examples=40, deadline=None)
    @given(polys())
    def test_pow_matches_repeated_product(self, f):
        assert f**2 == f * f
        assert f**3 == f * f * f
        assert f + (-f) == R3.zero()

    @settings(max_examples=40, deadline=None)
    @given(gf_polys(), gf_polys())
    def test_gf_ring_laws(self, f, g):
        assert f * g == g * f
        assert (f + g) ** 7 == f**7 + g**7  # freshman's dream in char 7


@st.composite
def same_ring_pairs(draw):
    """Two polynomials of one ring, QQ[x, y] or GF(7)[x, y], with few
    monomials and small coefficients, so that terms often cancel; x^7
    has a derivative that vanishes over GF(7)."""
    ring = draw(st.sampled_from((PolyRing(QQ, ("x", "y")), R_GF)))
    exps = st.tuples(st.sampled_from((0, 1, 2, 7)), st.integers(0, 2))
    return tuple(ring.from_terms(draw(st.dictionaries(exps, coeffs, max_size=5)))
                 for _ in range(2))


def assert_field_coefficients(h):
    """Every coefficient is a nonzero Fraction over QQ, an int in [1, p)
    over GF(p), and the rendering never reads "+ -"."""
    mod = h.ring.field.p
    for c in h.terms.values():
        if mod is None:
            assert type(c) is Fraction and c != 0
        else:
            assert type(c) is int and 0 < c < mod
    assert "+ -" not in h.render()


class TestCoefficientTypes:
    @settings(max_examples=150, deadline=None)
    @given(same_ring_pairs(), st.integers(-9, 9))
    def test_arithmetic_keeps_field_coefficients(self, pair, k):
        f, g = pair
        results = [f + g, f - g, g - f, -f, f * g, f ** 2, f ** 3,
                   f + k, k - f, f * k, f.monic(), f.differentiate(0),
                   f.differentiate("y")]
        for h in results:
            assert_field_coefficients(h)
        assert (f - f).terms == {} and (f + (-f)).terms == {}
        assert f * g == schoolbook_mul(f, g)
        assert f ** 2 == schoolbook_mul(f, f)


class TestRendering:
    @settings(max_examples=80, deadline=None)
    @given(polys())
    def test_parse_render_round_trip(self, f):
        assert parse_polynomial(str(f), R3) == f

    @settings(max_examples=40, deadline=None)
    @given(gf_polys())
    def test_gf_round_trip(self, f):
        assert parse_polynomial(str(f), R_GF) == f


class TestOrders:
    @settings(max_examples=80, deadline=None)
    @given(exponents3, exponents3, exponents3)
    def test_multiplicative_invariance(self, a, b, c):
        # a < b must survive multiplying both sides by any monomial c
        shift = lambda e: tuple(x + y for x, y in zip(e, c))
        for order in (LEX, GRLEX, GREVLEX, elimination_order(1),
                      elimination_order(2, inner="lex")):
            assert (order.key(a) < order.key(b)) == \
                (order.key(shift(a)) < order.key(shift(b)))

    @settings(max_examples=80, deadline=None)
    @given(exponents3)
    def test_constant_is_minimal(self, a):
        zero = (0, 0, 0)
        for order in (LEX, GRLEX, GREVLEX, elimination_order(1)):
            assert order.key(zero) <= order.key(a)


class TestHomogeneousDecomposition:
    @settings(max_examples=60, deadline=None)
    @given(polys())
    def test_components_sum_back(self, f):
        by_degree: dict[int, list] = {}
        for exps, coeff in f.terms.items():
            by_degree.setdefault(sum(exps), []).append((exps, coeff))
        total = R3.zero()
        for deg, terms in by_degree.items():
            comp = R3.zero()
            for exps, coeff in terms:
                comp = comp + R3.monomial(exps) * coeff
            assert comp.is_homogeneous()
            assert comp.total_degree() == deg
            total = total + comp
        assert total == f

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_order_at_origin_is_a_valuation_bound(self, f, g):
        if f.is_zero() or g.is_zero():
            return
        prod = f * g
        assert prod.order_at_origin() == \
            f.order_at_origin() + g.order_at_origin()
        s = f + g
        if not s.is_zero():
            assert s.order_at_origin() >= min(f.order_at_origin(),
                                              g.order_at_origin())
