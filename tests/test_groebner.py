"""Division, S-polynomials, Buchberger, and basis certificates."""

import itertools
import math
import pickle
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from oracles import monomial_divides, monomials_of_degree, naive_divmod
from vanish import groebner
from vanish.errors import RingMismatchError, TermCapExceededError
from vanish.fields import GF, QQ
from vanish.fixtures import curated_sp2_pairs
from vanish.groebner import (
    GroebnerBasis,
    buchberger,
    divmod_poly,
    normal_form,
    spoly,
)
from vanish.ideals import Ideal
from vanish.local import associativity_check, multiplicity_graded, symbolic_power
from vanish.orders import (
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Packing,
    elimination_order,
)
from vanish.poly import PolyRing, Polynomial, monomial_lcm
from vanish.theorems import verify_sp2

GF_PRIME = 32003
R4 = {"QQ": PolyRing(QQ, ("w", "x", "y", "z")),
      "GF": PolyRing(GF(GF_PRIME), ("w", "x", "y", "z"))}
DIVISION_ORDERS = [LEX, GREVLEX, GRLEX, elimination_order(1),
                   MonomialOrder("block", elim=(1, 3))]


def as_strs(polys):
    return [str(g) for g in polys]


class TestDivision:
    def test_textbook_lex_division(self, r2):
        # dividing x^2*y + x*y^2 + y^2 by [x*y - 1, y^2 - 1] under lex
        x, y = r2.gens()
        f = x**2 * y + x * y**2 + y**2
        divisors = [x * y - 1, y**2 - 1]
        quotients, remainder = divmod_poly(f, divisors, LEX)
        assert remainder == x + y + 1
        assert quotients[0] == x + y
        assert quotients[1] == r2.one()

    def test_representation_identity(self, r3):
        x, y, z = r3.gens()
        f = (x + y + z) ** 3 + x * y - 2 * z
        divisors = [x**2 - y, y * z + 1, z**3 - x]
        quotients, remainder = divmod_poly(f, divisors, GREVLEX)
        rebuilt = sum((q * g for q, g in zip(quotients, divisors)),
                      start=remainder)
        assert rebuilt == f

    def test_remainder_irreducible(self, r3):
        x, y, z = r3.gens()
        f = x**4 + y**4 + z**4
        divisors = [x**2 - y, y**2 - z]
        _, remainder = divmod_poly(f, divisors, GREVLEX)
        lts = [g.leading_exps(GREVLEX) for g in divisors]
        for exps in remainder.terms:
            assert not any(all(a <= b for a, b in zip(lt, exps)) for lt in lts)

    def test_zero_divisors_skipped(self, r2):
        x, y = r2.gens()
        quotients, remainder = divmod_poly(x * y, [r2.zero(), x], GREVLEX)
        assert remainder.is_zero()
        assert quotients[0].is_zero()
        assert quotients[1] == y

    def test_sums_cancel_a_common_factor(self, r2):
        # 1/6 + 1/6 = 2/6 = 1/3: the sum's gcd step divides the shared
        # denominator by the factor its numerator took
        x, y = r2.gens()
        quotients, remainder = divmod_poly(x + Fraction(1, 6) * y, [x - Fraction(1, 6) * y], LEX)
        assert quotients == [r2.one()]
        assert remainder == Fraction(1, 3) * y

    def test_normal_form_agrees_with_divmod(self, r3):
        x, y, z = r3.gens()
        f = x**3 * y - z**2 + x
        divisors = [x * y - z, z**2 - y]
        _, remainder = divmod_poly(f, divisors, GREVLEX)
        assert normal_form(f, divisors, GREVLEX) == remainder


@st.composite
def division_problems(draw):
    """f and up to four divisors in four variables; divisors may be zero."""
    ring = R4[draw(st.sampled_from(sorted(R4)))]
    monomial = st.tuples(*[st.integers(0, 2)] * 4)

    def poly(max_terms):
        terms = draw(st.dictionaries(monomial, st.integers(-5, 5),
                                     max_size=max_terms))
        return ring.from_terms(terms)

    return (poly(8), [poly(3) for _ in range(draw(st.integers(0, 4)))],
            draw(st.sampled_from(DIVISION_ORDERS)))


@settings(max_examples=200, deadline=None)
@given(division_problems())
def test_division_matches_naive_oracle(problem):
    # the heap reducer must take exactly the textbook loop's steps:
    # same quotients, same remainder, for divmod_poly and normal_form
    f, divisors, order = problem
    quotients, remainder = divmod_poly(f, divisors, order)
    assert (quotients, remainder) == naive_divmod(f, divisors, order)
    assert normal_form(f, divisors, order) == remainder


# p/q for |p|, q up to 10**30, both prime to the characteristic over GF
_BIG = st.integers(-10**30, 10**30).filter(lambda n: n % GF_PRIME)
BIG_COEFFS = st.builds(Fraction, _BIG, _BIG.map(abs))


@st.composite
def rational_division_problems(draw):
    """Like ``division_problems``, with coefficients p/q for |p|, q up to
    10**30, both prime to the characteristic over GF, and nonzero divisors
    that are never monic, so every step scales by an inverse leading
    coefficient."""
    ring = R4[draw(st.sampled_from(sorted(R4)))]
    monomial = st.tuples(*[st.integers(0, 2)] * 4)

    def poly(min_terms, max_terms):
        terms = draw(st.dictionaries(monomial, BIG_COEFFS, min_size=min_terms,
                                     max_size=max_terms))
        return ring.from_terms(terms)

    order = draw(st.sampled_from(DIVISION_ORDERS))
    divisors = []
    for _ in range(draw(st.integers(1, 4))):
        d = poly(1, 3)
        if d.leading_coefficient(order) == ring.field.one():
            d = d * 3
        divisors.append(d)
    return poly(0, 8), divisors, order


@settings(max_examples=150, deadline=None)
@given(rational_division_problems())
def test_rational_division_matches_naive_oracle(problem):
    # large coefficients through the working-form arithmetic: the oracle
    # divides with Fraction arithmetic on every term, so it is independent
    # of the reducer's integers and single scale
    f, divisors, order = problem
    quotients, remainder = divmod_poly(f, divisors, order)
    assert (quotients, remainder) == naive_divmod(f, divisors, order)
    assert normal_form(f, divisors, order) == remainder
    assert sum((q * d for q, d in zip(quotients, divisors)), start=remainder) == f
    mod = f.ring.field.p
    for h in (*quotients, remainder):
        for c in h.terms.values():
            if mod is None:
                assert type(c) is Fraction
            else:
                assert type(c) is int and 0 < c < mod


class TestReductionWork:
    def test_each_term_keyed_once(self, monkeypatch):
        # One packing per term of f: the terms a reduction step creates are
        # packed by integer addition, and a basis's divisors are packed
        # once, by its reducer.  A per-step search of the live terms for
        # the leading one would key far more.
        ring = R4["QQ"]
        w, x, y, z = ring.gens()
        quadrics = [w*x + 2*y*z - z**2, x**2 - 3*w*y + y*z, w**2 + x*z - 5*y**2]
        basis = buchberger(ring, quadrics, GREVLEX)
        cubic = (w + x + y + z) ** 3
        f = (cubic * quadrics[0] + (cubic - 2*w**3) * quadrics[1]
             + (cubic + x*y*z) * quadrics[2] + 7*w*x*y*z*z)
        quotients, remainder = divmod_poly(f, basis, GREVLEX)
        gb = GroebnerBasis(ring, GREVLEX, tuple(basis))
        gb.reduce(f)    # build the basis's reducer
        calls = []

        def counting(orig):
            def wrapper(self, exps):
                calls.append(exps)
                return orig(self, exps)
            return wrapper

        monkeypatch.setattr(MonomialOrder, "key", counting(MonomialOrder.key))
        monkeypatch.setattr(Packing, "pack", counting(Packing.pack))
        bound = len(f.terms) + sum(len(q.terms) * (len(g.terms) - 1)
                                   for q, g in zip(quotients, basis))
        assert not remainder.is_zero()
        assert gb.reduce(f) == remainder
        assert len(f.terms) <= len(calls) <= bound

    def test_interreduction_is_one_pass(self, monkeypatch):
        # Each element of a minimal basis is reduced once: the leading
        # monomials never move, so one pass already gives the reduced basis.
        ring = R4["QQ"]
        w, x, y, z = ring.gens()
        gens = [w*x + 2*y*z - z**2, x**2 - 3*w*y + y*z, w**2 + x*z - 5*y**2]
        reduced = buchberger(ring, gens, GREVLEX)[::-1]    # smallest first
        assert len(reduced) > 2
        # adding the next smaller element keeps each leading monomial
        minimal = [reduced[0]] + [g + 2 * h for g, h in zip(reduced[1:], reduced)]
        calls = count_divisor_calls(monkeypatch, "_steps")
        assert list(GroebnerBasis.from_minimal(ring, GREVLEX, minimal)) == reduced
        assert len(calls) == len(reduced)

    @pytest.mark.parametrize("field", ["QQ", "GF"])
    @pytest.mark.parametrize("order, expected", [
        (GREVLEX, "z^4 x^2*y x*y^2 y^3"),
        (LEX, "x^2*y x*y^2 y^3 z^4"),
        (elimination_order(1), "x^2*y x*y^2 z^4 y^3"),
    ], ids=["grevlex", "lex", "elim1"])
    def test_monomial_basis_makes_nothing_monic(self, monkeypatch, field, order,
                                                expected):
        # A monomial ideal's reduced basis is read off the generators'
        # exponents: no generator is scaled, whatever its coefficient.
        ring = PolyRing(QQ if field == "QQ" else GF(GF_PRIME), ("x", "y", "z"))
        x, y, z = ring.gens()
        gens = [3*x**2*y, -2*x*y**2, x**3*y, 5*y**3, x**2*y, 4*x*y**2*z, 2*z**4]
        calls = []
        monic = Polynomial.monic

        def counting(self, *args):
            calls.append(self)
            return monic(self, *args)

        monkeypatch.setattr(Polynomial, "monic", counting)
        basis = buchberger(ring, gens, order)
        assert as_strs(basis) == expected.split()
        assert all(g.leading_coefficient(order) == 1 for g in basis)
        assert buchberger(ring, [3*x, ring.zero(), -2*ring.one()], order) == [ring.one()]
        assert calls == []

    def test_fractions_only_leave_the_reducer(self, monkeypatch):
        # Over QQ the reducer works on integers: an S-pair's remainder is
        # appended as its primitive part, so Buchberger builds a Fraction
        # only in ``reduced``, once per term of the final basis, and a
        # member's membership test, whose remainder is 0, builds none.
        ring = PolyRing(QQ, ("u0", "u1", "u2", "u3"))
        callers = []

        def counting(*args):
            frame, names = sys._getframe(1), set()
            while frame:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            callers.append(names)
            return Fraction(*args)

        monkeypatch.setattr(groebner, "Fraction", counting)
        basis = buchberger(ring, katsura(ring), GREVLEX)
        assert any(c.denominator > 1 for g in basis for c in g.terms.values())
        assert len(callers) == sum(len(g.terms) for g in basis)
        assert all("reduced" in names and not names & {"pair", "_steps"}
                   for names in callers)
        callers.clear()
        _, u1, _, u3 = ring.gens()
        gb = GroebnerBasis(ring, GREVLEX, tuple(basis))
        assert gb.contains(u1 * basis[0] - Fraction(2, 3) * u3 * basis[-1])
        assert callers == []


class TestPackedWidths:
    # Packed exponents below the field limit take the narrowest packing;
    # an input exponent at the limit, or a term the division creates past
    # it, restarts the call at twice the width with the same answer.
    @pytest.mark.parametrize("order", DIVISION_ORDERS)
    def test_exponents_at_the_field_limit(self, order):
        ring = R4["GF"]
        w, x, y, z = ring.gens()
        limit = order.packing(ring.nvars).limit
        for top in (limit - 1, limit):
            f = w**top * x + 3 * x**top * y - y * z**top + w * z + 1
            divisors = [w**top - x * y, x**2 - z**top + y, y * z - w]
            assert divmod_poly(f, divisors, order) == naive_divmod(f, divisors, order)

    def test_lex_division_grows_past_the_limit(self, r2):
        # x^3 by x - y^k leaves y^(3k): past the limit once 3k >= 256
        x, y = r2.gens()
        for k in (85, 86, 128, 300):
            f, divisors = x**3 + x * y, [x - y**k]
            assert divmod_poly(f, divisors, LEX) == naive_divmod(f, divisors, LEX)
            assert normal_form(f, divisors, LEX) == y**(3 * k) + y**(k + 1)

    @pytest.mark.parametrize("order", [LEX, elimination_order(1, "lex"), GREVLEX])
    def test_overflowing_product_meets_a_pending_term(self, order):
        # w*z^56 by w - z^200 forms z^256: past the 8-bit fields its K
        # would carry into the K of the pending y, merging the two terms
        ring = R4["QQ"]
        w, x, y, z = ring.gens()
        divisors = [w - z**200]
        for f in (w * z**56 + y, w * z**56 + w * y, w * x * z**56 + x + w):
            assert divmod_poly(f, divisors, order) == naive_divmod(f, divisors, order)
        if order != GREVLEX:
            assert normal_form(w * z**56 + y, divisors, order) == z**256 + y

    def test_lex_overflow_meets_a_pending_term(self, r2):
        x, y = r2.gens()
        f, divisors = x * y**56 + x, [x - y**200]
        assert divmod_poly(f, divisors, LEX) == naive_divmod(f, divisors, LEX)
        assert normal_form(f, divisors, LEX) == y**256 + y**200

    def test_wide_inputs_keep_their_cached_packing(self, r2, monkeypatch):
        # a basis's reducer packs its divisors once, wide enough for every
        # exponent, so a second reduction packs only the terms of f
        x, y = r2.gens()
        f, divisors = x**2 * y + x * y**3, (x - y**300, y**400 - x * y)
        gb = GroebnerBasis(r2, LEX, divisors)
        remainder = gb.reduce(f)
        assert remainder == normal_form(f, divisors, LEX)
        calls = []
        pack = Packing.pack
        monkeypatch.setattr(Packing, "pack", lambda self, exps: calls.append(exps) or pack(self, exps))
        assert gb.reduce(f) == remainder
        assert len(calls) == len(f.terms)

    def test_an_overflowed_width_stays(self, r2, monkeypatch):
        # x^3 by x - y^100 overflows the 8-bit fields; the basis's reducer
        # keeps the 16-bit packing, so a second reduction starts there and
        # packs only the terms of f
        x, y = r2.gens()
        f, gb = x**3 + x * y, GroebnerBasis(r2, LEX, (x - y**100,))
        assert gb.reduce(f) == y**300 + y**101
        calls = []
        pack = Packing.pack
        monkeypatch.setattr(Packing, "pack", lambda self, exps: calls.append(exps) or pack(self, exps))
        assert gb.reduce(f) == y**300 + y**101
        assert len(calls) == len(f.terms)

    def test_buchberger_widens_for_a_new_leading_monomial(self, r2):
        x, y = r2.gens()
        gb = buchberger(r2, [x - y**150, x**2], LEX)
        assert gb == [x - y**150, y**300]
        assert GroebnerBasis(r2, LEX, tuple(gb)).check_certificate()

    def test_s_pair_set_up_widens_past_the_limit(self, r2):
        # the pair (x^2 - y^250, x*y^10 - 1) starts as y^10 (x^2 - y^250),
        # whose tail y^260 is past the 8-bit fields: the set-up must read
        # its guard bits and start over wider
        x, y = r2.gens()
        gb = buchberger(r2, [x**2 - y**250, x * y**10 - 1], LEX)
        assert gb == [x - y**260, y**270 - 1]
        assert GroebnerBasis(r2, LEX, tuple(gb)).check_certificate()

    def test_buchberger_widens_with_pairs_queued(self, r3, monkeypatch):
        # y^200 fits the 8-bit fields; an S-pair passes them while eight
        # pairs wait, so the reducer widens and the queue is re-keyed
        x, y, z = r3.gens()
        widths = []
        repack = groebner._Divisors._repack
        monkeypatch.setattr(groebner._Divisors, "_repack",
                            lambda self, bound: widths.append(bound) or repack(self, bound))
        gb = buchberger(r3, [x**2 - y**200, x * y**10 - z, y * z**3 - x, z**2 - y], LEX)
        assert gb == [x - z**5, y - z**2, z**7 - z]
        assert any(widths)      # a restart passes the old limit as its bound
        assert GroebnerBasis(r3, LEX, tuple(gb)).check_certificate()


@st.composite
def s_pair_problems(draw):
    """Two to four monic polynomials, an order and a pair i < j of them.
    An exponent of 128 in a tail, shifted by 128, meets the 8-bit field
    limit."""
    ring = R4[draw(st.sampled_from(sorted(R4)))]
    order = draw(st.sampled_from(DIVISION_ORDERS))
    exponent = st.integers(0, 2) | st.just(128)
    coeff = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 50))
    terms = st.dictionaries(st.tuples(*[exponent] * 4), coeff, min_size=1, max_size=4)
    G = [ring.from_terms(t).monic(order)
         for t in draw(st.lists(terms, min_size=2, max_size=4))]
    j = draw(st.integers(1, len(G) - 1))
    return G, order, draw(st.integers(0, j - 1)), j


def s_pair_routes(G, order, i, j) -> list:
    """The element the pair set-up inside the reducer appends for (i, j),
    zero when it appends none, and the monic normal form of the
    polynomial-arithmetic spoly; TermCapExceededError for a route that
    passes the term cap.  The appended element is read through
    ``reduced``, which leaves its already irreducible tail as it is."""
    ring = G[0].ring

    def pair():
        divisors = groebner._Divisors(ring, order, G)
        lcm = monomial_lcm(G[i].leading_exps(order), G[j].leading_exps(order))
        return divisors.reduced(len(G)) if divisors.pair(i, j, lcm) else ring.zero()

    out = []
    for route in (pair, lambda: normal_form(spoly(G[i], G[j], order), G, order).monic(order)):
        try:
            out.append(route())
        except TermCapExceededError:
            out.append(TermCapExceededError)
    return out


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(s_pair_problems())
def test_s_pair_route_matches_spoly(low_term_cap, problem):
    # both routes give the same remainder, or both pass the term cap, which
    # is lowered so that a draw of genuine lex growth stops in well under
    # a second
    low_term_cap(1000)
    pair, reference = s_pair_routes(*problem)
    assert pair == reference


@st.composite
def big_s_pair_problems(draw):
    """Like ``s_pair_problems``, with exponents 0..2 and the coefficients
    of ``rational_division_problems``: over QQ the remainder's integer
    multiple then has content > 1, and its leading coefficient may be
    negative, before it is made primitive."""
    ring = R4[draw(st.sampled_from(sorted(R4)))]
    order = draw(st.sampled_from(DIVISION_ORDERS))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), BIG_COEFFS,
                            min_size=1, max_size=4)
    G = [ring.from_terms(t).monic(order)
         for t in draw(st.lists(terms, min_size=2, max_size=4))]
    j = draw(st.integers(1, len(G) - 1))
    return G, order, draw(st.integers(0, j - 1)), j


@settings(max_examples=100, deadline=None)
@given(big_s_pair_problems())
def test_s_pair_route_matches_spoly_with_big_coefficients(problem):
    # and over QQ the appended element is primitive, with a positive
    # leading coefficient
    pair, reference = s_pair_routes(*problem)
    assert pair == reference
    G, order, i, j = problem
    divisors = groebner._Divisors(G[0].ring, order, G)
    lcm = monomial_lcm(G[i].leading_exps(order), G[j].leading_exps(order))
    if G[0].ring.field.p is None and divisors.pair(i, j, lcm):
        _, _, _, s, tail = divisors.data[-1]
        assert s > 0 and math.gcd(s, *(c for _, _, c in tail)) == 1


def test_s_pair_routes_both_pass_the_term_cap(low_term_cap):
    # a draw of the test above whose remainder grows past the default cap
    # on both routes, through genuine lex growth, after seconds each
    ring = R4["GF"]
    G = [ring.parse(t).monic(LEX) for t in (
        "11860*w^128*y^128*z^128 + w^128*x*y^128*z + 29635*w^128*x*y^128 + 6343*y^128*z^128",
        "x^128*y + 21669")]
    low_term_cap(1000)
    assert s_pair_routes(G, LEX, 0, 1) == [TermCapExceededError] * 2


class TestSPolynomial:
    def test_classic_example(self, r3):
        x, y, z = r3.gens()
        f = x**3 - 2 * x * y
        g = x**2 * y - 2 * y**2 + x
        assert spoly(f, g, GREVLEX) == -(x**2)

    def test_spoly_of_self_is_zero(self, r2):
        x, y = r2.gens()
        f = x**2 + y
        assert spoly(f, f, GREVLEX).is_zero()


def katsura(ring) -> list:
    """The katsura system on the ring's n + 1 variables u_0..u_n, with
    u_-l = u_l and u_l = 0 for |l| > n: sum_l u_l u_(m-l) = u_m for
    m < n, and sum_l u_l = 1."""
    n = ring.nvars - 1
    u = lambda l: ring.gens()[abs(l)] if abs(l) <= n else ring.zero()   # noqa: E731
    span = range(-n, n + 1)
    return ([sum((u(l) * u(m - l) for l in span), start=-u(m)) for m in range(n)]
            + [sum((u(l) for l in span), start=-ring.one())])


@st.composite
def basis_problems(draw):
    """One to three sparse generators in x, y, z over QQ or GF(32003), and
    an order that does not rank degree first."""
    ring = PolyRing(draw(st.sampled_from([QQ, GF(GF_PRIME)])), ("x", "y", "z"))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                            st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    gens = [ring.from_terms(t) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    order = draw(st.sampled_from([LEX, elimination_order(1), elimination_order(2, "lex"),
                                  MonomialOrder("block", elim=(1,), inner="lex")]))
    return ring, gens, order


@settings(max_examples=100, deadline=None)
@given(basis_problems())
def test_lex_and_block_bases_are_reduced_and_span_the_ideal(problem):
    # the sugar queue and the Gebauer-Moeller update keep every S-pair
    # that the certificate needs
    ring, gens, order = problem
    gb = GroebnerBasis(ring, order, tuple(buchberger(ring, gens, order)))
    assert gb.is_reduced() and gb.check_certificate()
    assert all(gb.contains(f) for f in gens)
    grevlex = Ideal(ring, gens).groebner_basis(GREVLEX)
    assert all(grevlex.contains(g) for g in gb)


def count_divisor_calls(monkeypatch, name) -> list:
    """Wrap the reducer's method ``name``; the list returned grows by one
    for each call from then on.  Its ``pair`` is called once for each
    S-pair handed to the reducer."""
    calls = []
    orig = getattr(groebner._Divisors, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return orig(*args, **kwargs)

    monkeypatch.setattr(groebner._Divisors, name, counting)
    return calls


class TestBuchberger:
    def test_monomial_curve_grevlex(self, r3):
        x, y, z = r3.gens()
        gens = [y**2 - x * z, x**2 * y - z**2, x**3 - y * z]
        gb = buchberger(r3, gens, GREVLEX)
        assert as_strs(gb) == ["x^3 - y*z", "x^2*y - z^2", "y^2 - x*z"]

    def test_monomial_curve_lex(self, r3):
        x, y, z = r3.gens()
        gens = [y**2 - x * z, x**2 * y - z**2, x**3 - y * z]
        gb = buchberger(r3, gens, LEX)
        assert [g.render(LEX) for g in gb] == [
            "x^3 - y*z",
            "x^2*y - z^2",
            "x*y^3 - z^3",
            "x*z - y^2",
            "y^5 - z^4",
        ]

    def test_symmetric_cycle(self, r3):
        x, y, z = r3.gens()
        gb = buchberger(r3, [x + y + z, x*y + y*z + z*x, x*y*z - 1], GREVLEX)
        assert as_strs(gb) == ["z^3 - 1", "y^2 + y*z + z^2", "x + y + z"]

    def test_redundant_generator_dropped(self, r2):
        x, _ = r2.gens()
        assert as_strs(buchberger(r2, [x**2, x], GREVLEX)) == ["x"]

    def test_zero_ideal(self, r2):
        assert buchberger(r2, [], GREVLEX) == []
        assert buchberger(r2, [r2.zero()], GREVLEX) == []

    def test_unit_ideal(self, r2):
        x, _ = r2.gens()
        gb = buchberger(r2, [x, x + 1], GREVLEX)
        assert as_strs(gb) == ["1"]

    def test_idempotent(self, r3):
        x, y, z = r3.gens()
        gens = [x**2 + y * z, y**2 - z, x * z - y]
        first = buchberger(r3, gens, GREVLEX)
        second = buchberger(r3, first, GREVLEX)
        assert first == second

    def test_input_order_irrelevant(self, r3):
        x, y, z = r3.gens()
        gens = [y**2 - x * z, x**2 * y - z**2, x**3 - y * z]
        assert buchberger(r3, gens, GREVLEX) == \
            buchberger(r3, list(reversed(gens)), GREVLEX)

    def test_curated_sp2_suite_pair_count(self, monkeypatch):
        # Which S-polynomials get formed depends on the order pairs leave
        # the queue (sugar, then lcm), on the pairs the Gebauer-Moeller
        # update drops as each element arrives, and on which ideals come
        # with their reduced basis (monomial ideals by the closed forms,
        # eliminations and colons by hand-over), so this machine-independent
        # count of S-pairs handed to the reducer pins all three.
        calls = count_divisor_calls(monkeypatch, "pair")
        for _, p, q in curated_sp2_pairs():
            for m in (1, 2):
                for n in (1, 2):
                    verify_sp2(p, q, m, n)
        assert len(calls) == 758

    def test_lex_katsura4_pair_count(self, monkeypatch):
        # lex katsura-4 over GF(32003): a system that is not degree-ranked,
        # where smallest-lcm-first selection took seconds; its basis is
        # u0 - ..., u1 - ..., u2 - ..., u3 - ... and a degree-16 u4-polynomial
        ring = PolyRing(GF(GF_PRIME), ("u0", "u1", "u2", "u3", "u4"))
        calls = count_divisor_calls(monkeypatch, "pair")
        gb = buchberger(ring, katsura(ring), LEX)
        assert len(calls) == 66
        assert [g.leading_exps(LEX) for g in gb] == [
            (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 16)]
        assert GroebnerBasis(ring, LEX, tuple(gb)).check_certificate()

    def test_grevlex_katsura5_over_the_rationals(self):
        # real coefficient growth: the fraction-free reducer must give a
        # Groebner basis with the leading monomials found mod 32003, of a
        # zero-dimensional ideal with 2^5 solutions
        ideal, ideal_mod = (Ideal(ring, katsura(ring)) for ring in (
            PolyRing(field, ("u0", "u1", "u2", "u3", "u4", "u5"))
            for field in (QQ, GF(GF_PRIME))))
        gb = ideal.groebner_basis()
        assert gb.check_certificate()
        assert gb.leading_term_exponents() == ideal_mod.groebner_basis().leading_term_exponents()
        assert ideal.dimension() == 0 and multiplicity_graded(ideal) == 32

    def test_monomial_inputs_form_no_s_polynomials(self, monkeypatch):
        # Monomial ideals take the closed forms (bases, intersections,
        # colons, radical membership) and form no S-polynomial.  The primes
        # are built first, since that runs Buchberger on the suite's curves.
        primes = {id(w): w for _, p, q in curated_sp2_pairs() for w in (p, q)
                  if w.is_coordinate_subspace}
        assert len(primes) == 17
        calls = count_divisor_calls(monkeypatch, "pair")
        ring = PolyRing(QQ, ("x", "y", "z"))
        monos = monomials_of_degree(3, 1) + monomials_of_degree(3, 2)
        chains = [c for k in range(len(monos) + 1)
                  for c in itertools.combinations(monos, k)
                  if not any(monomial_divides(a, b) or monomial_divides(b, a)
                             for a, b in itertools.combinations(c, 2))]
        for chain in chains:
            assert associativity_check(
                Ideal(ring, [ring.monomial(e) for e in chain])).holds
        for p in primes.values():
            for m in (1, 2, 3):
                symbolic_power(p, m)
        assert len(chains) == 95
        assert calls == []

    def test_prime_field_basis(self):
        ring = PolyRing(GF(7), ("x", "y"))
        a, b = ring.gens()
        gb = buchberger(ring, [a**2 + b, b**2 + a], GREVLEX)
        assert as_strs(gb) == ["x^2 + y", "y^2 + x"]
        assert GroebnerBasis(ring, GREVLEX, tuple(gb)).check_certificate()


class TestGroebnerBasisObject:
    @pytest.fixture
    def curve_basis(self, r3):
        x, y, z = r3.gens()
        gens = [y**2 - x * z, x**2 * y - z**2, x**3 - y * z]
        return GroebnerBasis(r3, GREVLEX,
                             tuple(buchberger(r3, gens, GREVLEX)))

    def test_certificate(self, curve_basis):
        assert curve_basis.check_certificate()

    def test_reduced_flag(self, curve_basis, r3):
        assert curve_basis.is_reduced()
        x, y, z = r3.gens()
        sloppy = GroebnerBasis(r3, GREVLEX, (x**2, x**2 + y, y))
        assert not sloppy.is_reduced()

    def test_membership(self, curve_basis, r3):
        x, y, z = r3.gens()
        inside = (y**2 - x * z) * (x + 3) - z * (x**3 - y * z)
        assert curve_basis.contains(inside)
        assert not curve_basis.contains(x + y)
        assert curve_basis.reduce(r3.zero()).is_zero()

    def test_leading_term_exponents(self, curve_basis):
        assert curve_basis.leading_term_exponents() == [
            (3, 0, 0), (2, 1, 0), (0, 2, 0)]

    def test_iteration_and_len(self, curve_basis):
        assert len(curve_basis) == 3
        assert all(not g.is_zero() for g in curve_basis)

    def test_reducer_is_not_part_of_the_value(self, curve_basis, r3):
        # the reducer a basis builds on first use stays out of equality,
        # hashing and pickling
        x, y, z = r3.gens()
        assert curve_basis.contains(y**2 - x * z)
        copy = pickle.loads(pickle.dumps(curve_basis))
        assert sorted(vars(copy)) == ["order", "polys", "ring"]
        assert copy == curve_basis and hash(copy) == hash(curve_basis)
        assert copy.contains(y**2 - x * z)

    def test_failed_certificate_detected(self, r2):
        x, y = r2.gens()
        fake = GroebnerBasis(r2, GREVLEX, (x * y - 1, y**2 - 1))
        assert not fake.check_certificate()


@st.composite
def zero_dimensional_problems(draw):
    """A random zero-dimensional basis in x, y, z over GF(32003) or GF(7),
    in an order that ranks degree first: the reduced basis of
    x^a + lower terms, y^b + lower terms and z^c + lower terms, lower in
    the order; and three queries."""
    ring = PolyRing(GF(draw(st.sampled_from([GF_PRIME, 7]))), ("x", "y", "z"))
    order = draw(st.sampled_from([GREVLEX, GRLEX]))
    coeffs = st.integers(1, ring.field.p - 1)
    gens = []
    for v in range(3):
        power = tuple(draw(st.integers(1, 3)) if i == v else 0 for i in range(3))
        lower = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coeffs,
                                     max_size=3))
        gens.append(ring.from_terms({**{m: c for m, c in lower.items()
                                        if order.key(m) < order.key(power)}, power: 1}))
    queries = [ring.from_terms(draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * 3), coeffs, min_size=1, max_size=5)))
        for _ in range(3)]
    return GroebnerBasis(ring, order, tuple(buchberger(ring, gens, order))), queries


@settings(max_examples=100, deadline=None)
@given(zero_dimensional_problems())
def test_remainder_table_matches_the_loop(problem):
    # a held reducer over GF(p) on a zero-dimensional basis answers its
    # second query on from its table of remainders: the same remainder as
    # the division loop and the textbook oracle, on a repeated query too,
    # and across a widening, which a query with an exponent at the
    # packing's field limit forces
    gb, (f, g, h) = problem
    ring, basis, order = gb.ring, list(gb), gb.order
    limit = order.packing(ring.nvars).limit
    wide = order.packing(ring.nvars, limit)

    def check(q):
        assert gb.reduce(q) == normal_form(q, basis, order) == naive_divmod(q, basis, order)[1]

    for q in (f, g, f, g):      # the first by the loop, the rest by the table
        check(q)
    assert gb._divisors.table
    # the monomials whose E at the wider packing keys an entry made before
    aliases = [m for m in map(wide.unpack, gb._divisors.table) if max(m) < limit]
    # the oracle, which scans every live term for the leading one, would
    # take seconds on the last variable's power
    q = ring.gens()[-1] ** limit + g
    assert gb.reduce(q) == normal_form(q, basis, order)
    assert gb._divisors.packing is wide
    check(h + ring.from_terms({m: 1 for m in aliases}))


def held_terms(gb) -> int:
    """The terms a basis's table holds, an empty remainder counting one."""
    return sum(len(entry) or 1 for entry in gb._divisors.table.values())


class TestRemainderTable:
    @pytest.fixture
    def gf_basis(self):
        # zero-dimensional: x^2 and y^2 lead
        ring = PolyRing(GF(GF_PRIME), ("x", "y"))
        x, y = ring.gens()
        return Ideal(ring, [x**2 - y - 1, y**2 - x + 3]).groebner_basis()

    def test_later_queries_read_only_the_table(self, gf_basis, monkeypatch):
        # the first query takes the loop and fills nothing; the second
        # fills the table and the third reads it, neither entering the loop
        x, y = gf_basis.ring.gens()
        calls = count_divisor_calls(monkeypatch, "_steps")
        f = (x + 2*y + 1) ** 5
        first = gf_basis.reduce(f)
        assert first == normal_form(f, list(gf_basis))
        assert len(calls) == 2 and not gf_basis._divisors.table
        assert gf_basis.reduce(f) == first
        assert not gf_basis.contains(f) and gf_basis.contains((x**2 - y - 1) * f)
        assert len(calls) == 2 and gf_basis._divisors.table

    def test_other_bases_keep_the_loop(self, monkeypatch):
        # over QQ, over GF(p) on a positive-dimensional basis (a curated
        # prime's generators read mod p), and over GF(p) on a
        # zero-dimensional basis in an order that does not rank degree
        # first, the reducer holds no table
        _, prime, _ = next(pair for pair in curated_sp2_pairs() if "curve" in pair[0])
        gf = PolyRing(GF(GF_PRIME), prime.ring.variables)
        m = Ideal(prime.ring, prime.ring.gens())
        ring = PolyRing(GF(7), ("x", "y", "z"))
        x, y, z = ring.gens()
        zd = Ideal(ring, [x**3 + y*z + 2, y**2 + x*z + 1, z**3 + x**2 + 3])
        bases = [prime.ideal.groebner_basis(), m.groebner_basis(),
                 Ideal(gf, [gf.from_terms(g.terms) for g in prime.ideal.gens]).groebner_basis(),
                 zd.groebner_basis(LEX), zd.groebner_basis(elimination_order(1))]
        calls = count_divisor_calls(monkeypatch, "_steps")
        for gb in bases:
            f = sum(gb.ring.gens(), start=gb.ring.one()) ** 3
            gb.reduce(f)
            gb.reduce(f)
            assert gb._divisors.table is None
        assert len(calls) == 2 * len(bases)

    def test_lex_power_is_answered_by_the_loop(self, low_term_cap):
        # in lex the monomials a high power reaches are not bounded by its
        # degree; the held reducer answers as normal_form does, or both
        # pass the cap
        ring = PolyRing(GF(7), ("x", "y", "z"))
        x, y, z = ring.gens()
        gb = Ideal(ring, [x**3 + y*z + 2, y**2 + x*z + 1, z**3 + x**2 + 3]).groebner_basis(LEX)
        low_term_cap(1000)

        def outcome(reduce, f):
            try:
                return reduce(f)
            except TermCapExceededError:
                return "cap"

        for f in (x**40 * y, x**40 * y, x**256 * y):
            assert outcome(gb.reduce, f) == outcome(lambda q: normal_form(q, list(gb), LEX), f)

    def fill_to_the_cap(self, gf_basis, low_term_cap):
        # three queries that fit fill the table to 43 terms, the cap; the
        # first query, the loop's, fills nothing
        x, y = gf_basis.ring.gens()
        low_term_cap(43)
        gf_basis.reduce(x)
        for f in (x**3 * y**2, x**2 + y, x**4 * y**3 + 1):
            yield f, gf_basis.reduce(f)

    def test_term_cap_bounds_the_terms_held(self, gf_basis, low_term_cap):
        # the terms the table holds count against the cap as each entry is
        # stored, an empty remainder as one, and may reach it
        for f, r in self.fill_to_the_cap(gf_basis, low_term_cap):
            assert r == normal_form(f, list(gf_basis))
            assert gf_basis._divisors.table_terms == held_terms(gf_basis) <= 43
        assert held_terms(gf_basis) == 43
        # a zero remainder counts one: x^3 y lies in the ideal
        x, y = gf_basis.ring.gens()
        gb = Ideal(gf_basis.ring, [x**2, y**2 - x + 3]).groebner_basis()
        gb.reduce(x)        # the loop's
        assert gb.reduce(x**3 * y) == 0
        assert gb._divisors.table_terms == held_terms(gb) == 1

    def test_term_cap_counts_one_query_across_a_drop(self, gf_basis, low_term_cap,
                                                     monkeypatch):
        # x^4 y^4 needs 20 terms where 43, the cap, are held: one count
        # covers the table and that query, so the basis drops its table
        # and the loop answers that query and the later ones
        x, y = gf_basis.ring.gens()
        queries = [x**4 * y**4, x**3 * y**2]
        expected = [normal_form(f, list(gf_basis)) for f in queries]
        calls = count_divisor_calls(monkeypatch, "_steps")
        for _ in self.fill_to_the_cap(gf_basis, low_term_cap):
            pass
        assert len(calls) == 1 and held_terms(gf_basis) == 43
        for n, (f, r) in enumerate(zip(queries, expected), start=2):
            assert gf_basis.reduce(f) == r
            assert gf_basis._divisors.table is None and len(calls) == n

    def test_term_cap_still_bounds_the_loop(self, gf_basis, low_term_cap):
        # a query that passes the cap in the table and in the loop raises
        # the reducer's error, on the table's route as on the first query's
        x, y = gf_basis.ring.gens()
        f = (x + 2*y + 1) ** 5
        low_term_cap(3)
        for _ in range(2):
            with pytest.raises(TermCapExceededError, match="reduction intermediate"):
                gf_basis.reduce(f)
        assert gf_basis._divisors.table is None


class TestRingAgreement:
    # a polynomial of another ring is refused; division used to zip its
    # exponent tuples with the ring's and return a wrong answer
    def test_division_refuses_another_ring(self, r2, r3):
        x, y = r2.gens()
        X, Y, Z = r3.gens()
        f, divisor = x * y + y, X * Z + Y
        for divide in (lambda: normal_form(f, [divisor]),
                       lambda: divmod_poly(f, [divisor]),
                       lambda: GroebnerBasis(r3, GREVLEX, (divisor,)).reduce(f),
                       lambda: Ideal(r3, [divisor]).normal_form(f)):
            with pytest.raises(RingMismatchError):
                divide()

    def test_buchberger_refuses_another_ring(self, r2):
        x, _ = r2.gens()
        a, _ = PolyRing(QQ, ("a", "b")).gens()
        with pytest.raises(RingMismatchError):
            buchberger(r2, [x, a])
        with pytest.raises(RingMismatchError):
            buchberger(r2, [x**2 + x, a])


class TestResourceGuard:
    def test_division_respects_term_cap(self, r2, low_term_cap):
        x, y = r2.gens()
        f = (x + y) ** 6
        low_term_cap(3)
        with pytest.raises(TermCapExceededError):
            # the divisor's tail forces repeated expansion past the cap
            normal_form(f, [x - y], GREVLEX)
        # divmod_poly runs the same loop, so it trips with the same message
        with pytest.raises(TermCapExceededError, match="reduction intermediate"):
            divmod_poly(f, [x - y], GREVLEX)

    def test_remainder_counts_against_the_term_cap(self, r3, low_term_cap):
        # the remainder so far is part of the intermediate: no more than two
        # terms are ever pending here, but the remainder has three
        f = r3.parse("2*x*y^2*z^2 + x*y^3")
        d = r3.parse("3*x*y^2*z^2 + 2*x*y^2*z + 2*y*z")
        low_term_cap(3)
        assert len(normal_form(f, [d], LEX).terms) == 3
        low_term_cap(2)
        with pytest.raises(TermCapExceededError, match="reduction intermediate"):
            normal_form(f, [d], LEX)
