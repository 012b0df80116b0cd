"""Ideal operations: membership, arithmetic, intersection, colon,
saturation, radical membership, dimension, elimination."""

import itertools
from fractions import Fraction
from functools import reduce

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from oracles import (
    colon_members,
    exponent_box,
    graded_pieces_agree,
    intersection_members,
    minimal_members,
    monomial_dimension,
    monomial_members,
    order_key,
    radical_membership,
)
from test_orders import ALL_ORDERS
from vanish import ideals
from vanish.errors import (
    RingMismatchError,
    UnitIdealError,
    ZeroDivisorRequestError,
)
from vanish.fields import GF, QQ
from vanish.ideals import Ideal, coordinate_prime, maximum_independent_sets
from vanish.orders import GREVLEX, LEX
from vanish.poly import PolyRing


def gb_strs(ideal, order=GREVLEX):
    return [g.render(order) for g in ideal.groebner_basis(order)]


@pytest.fixture
def curve(r3):
    x, y, z = r3.gens()
    return Ideal(r3, [y**2 - x * z, x**2 * y - z**2, x**3 - y * z])


class TestConstruction:
    def test_zero_generators_dropped(self, r2):
        x, _ = r2.gens()
        ideal = Ideal(r2, [r2.zero(), x, r2.zero()])
        assert ideal.gens == (x,)

    def test_zero_ideal(self, r2):
        ideal = Ideal(r2, [])
        assert ideal.is_zero()
        assert not ideal.is_unit()
        assert ideal.is_proper()

    def test_unit_ideal(self, r2):
        ideal = Ideal(r2, [r2.one()])
        assert ideal.is_unit()
        assert not ideal.is_proper()

    def test_ring_mismatch(self, r2, r3):
        with pytest.raises(RingMismatchError):
            Ideal(r2, [r3.gens()[0]])

    def test_unhashable(self, r2):
        with pytest.raises(TypeError):
            hash(Ideal(r2, []))


class TestMembership:
    def test_generator_membership(self, r3):
        x, y, z = r3.gens()
        p = Ideal(r3, [x, y])
        assert y in p
        assert x * z + y**2 in p
        assert z not in p

    def test_order_one_vanishing(self, r3):
        # a coordinate lies in the maximal ideal but not in its square
        x, y, z = r3.gens()
        m = Ideal(r3, [x, y, z])
        assert y in m
        assert y not in m**2

    def test_zero_in_everything(self, r3):
        assert r3.zero() in Ideal(r3, [])
        assert r3.zero() in Ideal(r3, [r3.gens()[0]])

    def test_mismatched_ring_raises(self, r2, r3):
        with pytest.raises(RingMismatchError):
            r3.gens()[0] in Ideal(r2, [r2.gens()[0]])

    def test_non_polynomial_not_member(self, r2):
        assert "x" not in Ideal(r2, [r2.gens()[0]])
        assert 0.0 not in Ideal(r2, [r2.gens()[0]])

    def test_ints_are_constants(self, r2, gf7):
        x, _ = r2.gens()
        assert 0 in Ideal(r2, [x])
        assert 1 not in Ideal(r2, [x])
        assert 1 in Ideal(r2, [r2.one()])
        assert -3 in Ideal(r2, [x + 1, x])
        assert 7 in Ideal(gf7, [gf7.gens()[0]])     # 7 is 0 in GF(7)
        assert 8 not in Ideal(gf7, [gf7.gens()[0]])

    def test_fractions_are_constants(self, r2, gf7):
        # as in Polynomial arithmetic and ==, a Fraction reads as a constant
        x, _ = r2.gens()
        for ring in (r2, gf7):
            unit = Ideal(ring, [ring.one()])
            assert Fraction(1, 2) in unit
        assert Fraction(0) in Ideal(r2, [x])
        assert Fraction(1, 2) not in Ideal(r2, [x])
        assert Fraction(7, 2) in Ideal(gf7, [gf7.gens()[0]])  # 7/2 is 0 in GF(7)


class TestEquality:
    def test_generator_presentation_irrelevant(self, r2):
        x, y = r2.gens()
        assert Ideal(r2, [x, y]) == Ideal(r2, [y, x + y])

    def test_strict_containment_detected(self, r2):
        x, _ = r2.gens()
        assert Ideal(r2, [x]) != Ideal(r2, [x**2])

    def test_scaled_generators_equal(self, r2):
        x, y = r2.gens()
        assert Ideal(r2, [2 * x, 3 * y]) == Ideal(r2, [x, y])


class TestArithmetic:
    def test_sum(self, r3):
        x, y, z = r3.gens()
        assert Ideal(r3, [x]) + Ideal(r3, [y]) == Ideal(r3, [x, y])

    def test_product(self, r3):
        x, y, z = r3.gens()
        p = Ideal(r3, [x, y])
        q = Ideal(r3, [y, z])
        assert p * q == Ideal(r3, [x * y, x * z, y**2, y * z])

    def test_power(self, r2):
        x, y = r2.gens()
        p = Ideal(r2, [x, y])
        assert p**2 == Ideal(r2, [x**2, x * y, y**2])
        assert p**1 == p
        assert (p**0).is_unit()
        with pytest.raises(ValueError):
            p ** (-1)

    def test_power_of_zero_ideal(self, r2):
        z = Ideal(r2, [])
        assert (z**3).is_zero()
        assert (z**0).is_unit()


class TestIntersection:
    def test_textbook_intersection(self):
        ring = PolyRing(QQ, ("X1", "X2", "X3"))
        X1, X2, X3 = ring.gens()
        p2 = Ideal(ring, [X1, X2]) ** 2
        q = Ideal(ring, [X2, X3])
        result = p2.intersect(q)
        assert gb_strs(result) == ["X1^2*X3", "X1*X2", "X2^2"]

    def test_commutative(self, curve, r3):
        x, y, z = r3.gens()
        other = Ideal(r3, [z, x - y])
        assert curve.intersect(other) == other.intersect(curve)

    def test_self_intersection(self, curve):
        assert curve.intersect(curve) == curve

    def test_zero_and_unit_shortcuts(self, r2):
        x, _ = r2.gens()
        ideal = Ideal(r2, [x])
        assert ideal.intersect(Ideal(r2, [])).is_zero()
        assert ideal.intersect(Ideal(r2, [r2.one()])) == ideal

    def test_coprime_monomials_multiply(self, r3):
        x, y, z = r3.gens()
        assert Ideal(r3, [x]).intersect(Ideal(r3, [y, z])) == \
            Ideal(r3, [x * y, x * z])

    def test_against_graded_oracle(self, r3):
        x, y, z = r3.gens()
        # complete-intersection pair: the intersection equals the product,
        # and the degreewise linear-algebra oracle confirms it
        a = Ideal(r3, [x**2 + y**2, z])
        b = Ideal(r3, [x + y])
        meet = a.intersect(b)
        product = [g * h for g in a.gens for h in b.gens]
        assert graded_pieces_agree(list(meet.groebner_basis()), product, r3, 6)
        # crossing planes: the product is strictly smaller than the
        # intersection and the oracle distinguishes them
        p = Ideal(r3, [x, y])
        q = Ideal(r3, [y, z])
        meet2 = p.intersect(q)
        product2 = [g * h for g in p.gens for h in q.gens]
        assert not graded_pieces_agree(list(meet2.groebner_basis()),
                                       product2, r3, 6)
        for g in product2:
            assert g in meet2


class TestColonAndSaturation:
    def test_colon_by_variable(self, r3):
        x, y, z = r3.gens()
        assert Ideal(r3, [x * y, x * z]).colon(x) == Ideal(r3, [y, z])

    def test_colon_by_constant(self, r3):
        x, _, _ = r3.gens()
        ideal = Ideal(r3, [x**2])
        assert ideal.colon(r3.constant(5)) == ideal

    def test_colon_by_zero_rejected(self, r2):
        with pytest.raises(ZeroDivisorRequestError):
            Ideal(r2, [r2.gens()[0]]).colon(r2.zero())

    def test_colon_by_ideal(self, r3):
        x, y, z = r3.gens()
        ideal = Ideal(r3, [x * y, x * z])
        assert ideal.colon(Ideal(r3, [x])) == Ideal(r3, [y, z])
        assert ideal.colon(Ideal(r3, [])).is_unit()

    def test_colon_undoes_principal_multiple(self, r3):
        x, y, z = r3.gens()
        base = Ideal(r3, [y**2 - x * z, z**3])
        f = x**2 - y
        scaled = Ideal(r3, [g * f for g in base.gens])
        assert scaled.colon(f) == base

    def test_saturation_index_two(self, r2):
        x, y = r2.gens()
        sat, index = Ideal(r2, [x**2 * y]).saturate(x)
        assert sat == Ideal(r2, [y])
        assert index == 2

    def test_saturation_index_one(self, r3):
        x, y, z = r3.gens()
        sat, index = Ideal(r3, [x * y, x * z]).saturate(x)
        assert sat == Ideal(r3, [y, z])
        assert index == 1

    def test_saturation_to_unit(self, r2):
        x, _ = r2.gens()
        sat, index = Ideal(r2, [x**2]).saturate(x)
        assert sat.is_unit()
        assert index == 2

    def test_already_saturated(self, r2):
        x, y = r2.gens()
        sat, index = Ideal(r2, [y]).saturate(x)
        assert sat == Ideal(r2, [y])
        assert index == 0

    def test_saturate_by_zero_rejected(self, r2):
        with pytest.raises(ZeroDivisorRequestError):
            Ideal(r2, [r2.gens()[0]]).saturate(r2.zero())


class TestRadicalMembership:
    def test_nilpotent_detected(self, r2):
        x, y = r2.gens()
        ideal = Ideal(r2, [x**3])
        assert ideal.radical_contains(x)
        assert not ideal.radical_contains(y)

    def test_mixed_powers(self, r3):
        x, y, z = r3.gens()
        ideal = Ideal(r3, [x**2, y**3])
        assert ideal.radical_contains(x + y)
        assert ideal.radical_contains(x * z + y)
        assert not ideal.radical_contains(z)

    def test_member_is_radical_member(self, r2):
        x, _ = r2.gens()
        assert Ideal(r2, [x]).radical_contains(x)

    def test_zero_poly(self, r2):
        assert Ideal(r2, [r2.gens()[0]]).radical_contains(r2.zero())


class TestDimension:
    def test_known_dimensions(self, r3, curve):
        x, y, z = r3.gens()
        assert curve.dimension() == 1
        assert Ideal(r3, [x]).dimension() == 2
        assert Ideal(r3, []).dimension() == 3
        assert Ideal(r3, [x, y, z]).dimension() == 0
        assert Ideal(r3, [x + y + z]).dimension() == 2
        assert Ideal(r3, [x + y + z, x*y + y*z + z*x, x*y*z - 1]).dimension() == 0

    def test_height(self, r3, curve):
        assert curve.height() == 2
        assert Ideal(r3, [r3.gens()[0]]).height() == 1

    def test_unit_ideal_has_no_dimension(self, r2):
        with pytest.raises(UnitIdealError):
            Ideal(r2, [r2.one()]).dimension()

    def test_monomial_sweep_matches_vertex_cover_oracle(self, r3):
        monos = []
        for total in range(1, 4):
            for combo in itertools.combinations_with_replacement(range(3), total):
                e = [0, 0, 0]
                for i in combo:
                    e[i] += 1
                monos.append(tuple(e))
        import random
        rng = random.Random(11)
        for _ in range(60):
            picks = rng.sample(monos, rng.randint(1, 4))
            ideal = Ideal(r3, [r3.monomial(e) for e in picks])
            expected = monomial_dimension(picks, 3)
            assert ideal.dimension() == expected, picks

    def test_order_choice_does_not_change_dimension(self, curve):
        # leading-term ideals differ between orders; the dimension must not
        assert len(curve.groebner_basis(LEX)) != len(curve.groebner_basis(GREVLEX))
        assert curve.dimension() == 1


class TestIndependentSets:
    def test_principal(self, r3):
        x, _, _ = r3.gens()
        dim, sets = maximum_independent_sets(Ideal(r3, [x]))
        assert dim == 2
        assert sets == [frozenset({1, 2})]

    def test_full_variable_ideal(self, r3):
        x, y, z = r3.gens()
        dim, sets = maximum_independent_sets(Ideal(r3, [x, y, z]))
        assert dim == 0
        assert sets == [frozenset()]

    def test_zero_ideal(self, r3):
        dim, sets = maximum_independent_sets(Ideal(r3, []))
        assert dim == 3
        assert sets == [frozenset({0, 1, 2})]

    def test_two_components(self, r3):
        x, y, z = r3.gens()
        dim, sets = maximum_independent_sets(Ideal(r3, [x * y]))
        assert dim == 2
        assert sorted(sets, key=sorted) == [frozenset({0, 2}), frozenset({1, 2})]

    def test_pure_powers_leave_their_variables_out(self, monkeypatch):
        # the maximal ideal of 22 variables: one subset examined, not 2^22
        examined = []
        combinations = itertools.combinations

        def counting(pool, size):
            for combo in combinations(pool, size):
                examined.append(combo)
                yield combo

        monkeypatch.setattr(itertools, "combinations", counting)
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(22)))
        assert coordinate_prime(ring, ring.variables).dimension() == 0
        assert examined == [()]

    def test_disjoint_supports_bound_the_size(self, monkeypatch):
        # the path ideal x0*x1, ..., x18*x19 holds ten disjoint supports,
        # so the scan starts at size 10, not at 20
        examined = []
        combinations = itertools.combinations

        def counting(pool, size):
            for combo in combinations(pool, size):
                examined.append(combo)
                yield combo

        monkeypatch.setattr(itertools, "combinations", counting)
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(20)))
        x = ring.gens()
        assert Ideal(ring, [a * b for a, b in zip(x, x[1:])]).dimension() == 10
        assert examined and max(map(len, examined)) == 10


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 2)] * n).filter(any),
                         max_size=5))))
def test_independent_sets_match_every_subset(case):
    # the same sets, in the same order, as a scan of every subset
    nvars, exps = case
    supports = [{i for i, e in enumerate(x) if e} for x in exps]
    every = [frozenset(c) for size in range(nvars, -1, -1)
             for c in itertools.combinations(range(nvars), size)
             if not any(s <= set(c) for s in supports)]
    top = len(every[0])
    assert ideals.independent_sets(exps, nvars) == \
        (top, [s for s in every if len(s) == top])
    assert ideals.independent_sets(exps, nvars, all_sets=False) == \
        (top, every[:1])


class TestLeadingTermIdeal:
    def test_curve(self, curve, r3):
        lt = curve.leading_term_ideal(GREVLEX)
        assert lt.is_monomial_ideal()
        assert lt.monomial_exponents() == [(3, 0, 0), (2, 1, 0), (0, 2, 0)]

    def test_non_monomial_rejected(self, curve):
        with pytest.raises(ValueError):
            curve.monomial_exponents()


class TestElimination:
    def test_monomial_curve_kernel(self, r3):
        big = PolyRing(QQ, ("t", "x", "y", "z"))
        t, x, y, z = big.gens()
        graph = Ideal(big, [x - t**3, y - t**4, z - t**5])
        kernel = graph.eliminate(["t"])
        assert kernel.ring == r3
        X, Y, Z = r3.gens()
        assert kernel == Ideal(r3, [Y**2 - X * Z, X**2 * Y - Z**2,
                                    X**3 - Y * Z])

    def test_eliminate_nothing(self, curve):
        assert curve.eliminate([]) == curve

    def test_unknown_variable(self, curve):
        with pytest.raises(KeyError):
            curve.eliminate(["w"])

    def test_cannot_eliminate_everything(self, curve):
        with pytest.raises(ValueError):
            curve.eliminate(["x", "y", "z"])


@st.composite
def elimination_problems(draw):
    """Two or three sparse generators in w, x, y, z over QQ or GF(32003),
    and the variables to eliminate, a prefix of them or not."""
    ring = PolyRing(draw(st.sampled_from([QQ, GF(32003)])), ("w", "x", "y", "z"))
    monomial = st.tuples(*[st.integers(0, 2)] * 4)
    terms = st.dictionaries(monomial, st.integers(-3, 3).filter(bool),
                            min_size=1, max_size=3)
    gens = [ring.from_terms(t) for t in draw(st.lists(terms, min_size=2, max_size=3))]
    names = draw(st.sampled_from([["w"], ["w", "x"], ["x"], ["x", "z"], ["y", "w"]]))
    return Ideal(ring, gens), names


@settings(max_examples=40, deadline=None)
@given(elimination_problems())
def test_eliminate_hands_over_its_reduced_basis(problem):
    # the t-free elements of the reduced block basis, in order, are the
    # reduced grevlex basis of the elimination ideal
    ideal, names = problem
    sub = ideal.eliminate(names)
    assert list(sub.groebner_basis().polys) == ideals.buchberger(sub.ring, sub.gens, GREVLEX)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF"])
def test_elimination_draw_gives_the_zero_ideal(field):
    # a draw of the test above that ran past 60 s when pairs were taken
    # smallest lcm first
    ring = PolyRing(field, ("w", "x", "y", "z"))
    ideal = Ideal(ring, [ring.parse(f) for f in (
        "-3*w^2*x^2*z^2 - 2*w*x*y*z - 2*x*z", "w^2*x*y*z + 3*w*x*y + w",
        "-2*w^2*z^2 - x^2*z^2 + 3*w")])
    sub = ideal.eliminate(["w", "x"])
    assert sub.ring.variables == ("y", "z") and sub.is_zero()


def test_monomial_closed_forms_hand_over_their_reduced_basis(r3, monkeypatch):
    x, y, z = r3.gens()
    I, J = Ideal(r3, [x**2, x * y, y**3]), Ideal(r3, [y**2, z])
    I.groebner_basis(), J.groebner_basis()
    calls = []
    orig = ideals.buchberger

    def recording(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(ideals, "buchberger", recording)
    results = [I.intersect(J), I.colon(x), I.colon(J)]
    bases = [list(K.groebner_basis().polys) for K in results]
    assert calls == []
    assert bases == [orig(r3, K.gens, GREVLEX) for K in results]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF"])
def test_colon_hands_over_its_reduced_basis(field, monkeypatch):
    # the quotients of the reduced basis of I cap (f), interreduced once,
    # are the reduced basis of I : f, read with no Buchberger run
    ring = PolyRing(field, ("x", "y", "z"))
    x, y, z = ring.gens()
    curve = Ideal(ring, [y**2 - x * z, x**2 * y - z**2, x**3 - y * z])
    cases = [(curve, x + y), (curve * curve, 3 * x - 2 * z),
             (Ideal(ring, [x**3, x * y * (x + y)]), 2 * x - 2 * y)]
    results = [I.colon(f) for I, f in cases]
    calls = []
    orig = ideals.buchberger
    monkeypatch.setattr(ideals, "buchberger", lambda *args: calls.append(args) or orig(*args))
    bases = [list(K.groebner_basis().polys) for K in results]
    assert calls == []
    assert bases == [orig(ring, K.gens, GREVLEX) for K in results]


class TestCoordinatePrime:
    def test_construction(self, r3):
        p = coordinate_prime(r3, ["x", "z"])
        assert gb_strs(p) == ["x", "z"]

    def test_unknown_name(self, r3):
        with pytest.raises(KeyError):
            coordinate_prime(r3, ["nope"])


class TestBasisCache:
    def test_same_object_returned(self, curve):
        assert curve.groebner_basis(GREVLEX) is curve.groebner_basis(GREVLEX)

    def test_orders_cached_separately(self, curve):
        a = curve.groebner_basis(GREVLEX)
        b = curve.groebner_basis(LEX)
        assert a is not b
        assert a.order != b.order


class TestMixedInputsTakeTheGeneralRoute:
    """A non-monomial ideal or polynomial still goes through a Groebner
    basis over a ring with a tag variable."""

    @pytest.fixture
    def basis_rings(self, monkeypatch):
        seen = []
        orig = ideals.buchberger

        def recording(ring, gens, order=GREVLEX):
            seen.append(ring.variables)
            return orig(ring, gens, order)

        monkeypatch.setattr(ideals, "buchberger", recording)
        return seen

    def test_intersection(self, r2, basis_rings):
        x, y = r2.gens()
        meet = Ideal(r2, [x]).intersect(Ideal(r2, [x + y]))
        assert meet == Ideal(r2, [x**2 + x * y])
        assert ("t", "x", "y") in basis_rings

    def test_colon(self, r2, basis_rings):
        x, y = r2.gens()
        assert Ideal(r2, [x**2, y]).colon(x + y) == Ideal(r2, [x, y])
        assert ("t", "x", "y") in basis_rings

    def test_colon_generators_monic(self, r2):
        # a divisor whose leading coefficient is not 1 leaves no 1/lc(f)
        # scaling on the generators, nor 1/lc(f)^s through saturate
        x, y = r2.gens()
        quotient = Ideal(r2, [x**2, y]).colon(3 * x + 3 * y)
        assert quotient == Ideal(r2, [x, y])
        assert [str(g) for g in quotient.gens] == ["x - y", "y"]
        saturated, index = Ideal(r2, [x**3, x * y * (x + y)]).saturate(2 * x - 2 * y)
        assert [str(g) for g in saturated.gens] == ["x"]
        assert (saturated, index) == (Ideal(r2, [x]), 3)

    def test_radical_membership(self, r2, basis_rings):
        x, y = r2.gens()
        assert Ideal(r2, [x**2, y**2]).radical_contains(x + y)
        assert ("w", "x", "y") in basis_rings

    def test_tag_names_avoid_the_ring_variables(self, basis_rings):
        # over variables t, w, t0 the tags are t1 and w0, and the answers
        # match the same computations over renamed variables
        answers = []
        for names in (("t", "w", "t0"), ("a", "b", "c")):
            ring = PolyRing(QQ, names)
            a, b, c = ring.gens()
            meet = Ideal(ring, [a**2 - b * c, b + c]).intersect(Ideal(ring, [a - c]))
            prime = Ideal(ring, [a**2 - b**3, c])
            answers.append((
                [sorted(g.terms.items()) for g in meet.groebner_basis()],
                [prime.radical_contains(f) for f in (a**3 - a * b**3, b + c, a * c)]))
        assert ("t1", "t", "w", "t0") in basis_rings
        assert ("w0", "t", "w", "t0") in basis_rings
        assert answers[0] == answers[1]
        assert answers[0][1] == [True, False, True]


# -- monomial ideals: the closed forms against box enumeration ---------------

COEFFS = st.sampled_from([1, 1, 2, -3, Fraction(5, 7)])


@st.composite
def monomial_cases(draw):
    """Two monomial ideals and a monomial in 1-4 variables over QQ or
    GF(32003).  Generators carry coefficients other than 1 and may repeat,
    divide one another or be constant; either ideal may be zero."""
    nvars = draw(st.integers(1, 4))
    ring = PolyRing(draw(st.sampled_from([QQ, GF(32003)])),
                    ("x", "y", "z", "w")[:nvars])
    exps = st.tuples(*[st.integers(0, 3)] * nvars)

    def gens(max_size):
        out = [ring.monomial(e, c) for e, c in
               draw(st.lists(st.tuples(exps, COEFFS), max_size=max_size))]
        if out and draw(st.booleans()):
            # a repeated exponent tuple and a multiple of a generator
            shift = draw(st.tuples(*[st.integers(0, 1)] * nvars))
            out += [ring.monomial(out[0].leading_exps(), 4),
                    out[-1] * ring.monomial(shift)]
        return out

    return ring, gens(4), gens(3), ring.monomial(draw(exps), draw(COEFFS))


def assert_monomial_ideal(result, members, gens_reduced):
    """``result`` is the monomial ideal with these monomials in the box;
    with ``gens_reduced`` its generators are its reduced basis."""
    basis = result.groebner_basis().polys
    assert all(g.is_monomial() and g.leading_coefficient() == 1 for g in basis)
    assert {g.leading_exps() for g in basis} == minimal_members(members)
    if gens_reduced:
        assert result.gens == basis


@settings(max_examples=150, deadline=None)
@given(monomial_cases())
def test_monomial_closed_forms_match_enumeration(case):
    ring, a_gens, b_gens, f = case
    I, J = Ideal(ring, a_gens), Ideal(ring, b_gens)
    ie = [g.leading_exps() for g in a_gens]
    je = [g.leading_exps() for g in b_gens]
    a = f.leading_exps()
    box = exponent_box(ie, je, [a])
    members = monomial_members(ie, box)
    for order in ALL_ORDERS:
        if any(i >= ring.nvars for i in order.elim):
            continue
        expected = sorted(minimal_members(members), reverse=True,
                          key=lambda e: order_key(order, e))
        assert [g.terms for g in I.groebner_basis(order)] == \
            [{e: 1} for e in expected]
    # a unit ideal, a constant divisor or an already saturated ideal comes
    # back with an input's generators as they are
    assert_monomial_ideal(I.intersect(J), intersection_members(ie, je, box),
                          gens_reduced=not (I.is_unit() or J.is_unit()))
    assert_monomial_ideal(I.colon(f), colon_members(ie, a, box),
                          gens_reduced=not f.is_constant())
    assert_monomial_ideal(
        I.colon(J),
        reduce(set.__and__, (colon_members(ie, b, box) for b in je), set(box)),
        gens_reduced=False)
    # I : f^s grows with s and is saturated once s passes every exponent
    top = max((max(e) for e in ie), default=0)
    powers = [colon_members(ie, tuple(s * v for v in a), box)
              for s in range(top + 2)]
    sat, index = I.saturate(f)
    assert index == powers.index(powers[-1])
    assert_monomial_ideal(sat, powers[-1], gens_reduced=index > 0)
    assert I.radical_contains(f) == radical_membership(a, ie)


@st.composite
def graded_colon_problems(draw):
    """One to three generators in x, y, z over QQ or GF(32003), each
    homogeneous under weights drawn from 1 to 5, and the variable to take
    the colon by."""
    ring = PolyRing(draw(st.sampled_from([QQ, GF(32003)])), ("x", "y", "z"))
    weights = draw(st.tuples(*[st.integers(1, 5)] * 3))
    degree = lambda e: sum(w * a for w, a in zip(weights, e))     # noqa: E731
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = degree(draw(st.tuples(*[st.integers(0, 2)] * 3).filter(any)))
        same = [e for e in itertools.product(range(d + 1), repeat=3) if degree(e) == d]
        terms = draw(st.dictionaries(st.sampled_from(same), st.integers(-3, 3).filter(bool),
                                     min_size=1, max_size=3))
        gens.append(ring.from_terms(terms))
    return Ideal(ring, gens), draw(st.integers(0, 2)), weights


@settings(max_examples=60, deadline=None)
@given(graded_colon_problems())
def test_graded_colon_matches_the_tag_variable_route(problem):
    # Bayer's criterion against Ideal.saturate (with its index), which
    # takes a tag variable
    ideal, var, weights = problem
    assert ideals._graded_colon(ideal, var, weights) == ideal.saturate(ideal.ring.gens()[var])


def test_graded_colon_refuses_inhomogeneous_generators(r3):
    x, y, z = r3.gens()
    with pytest.raises(ValueError):
        ideals._graded_colon(Ideal(r3, [x * y - z]), 0)
    # homogeneous under the weights (1, 1, 2): x^2 y = x (x y - z) + x z
    sat, index = ideals._graded_colon(Ideal(r3, [x * y - z, x * z]), 0, (1, 1, 2))
    assert index == 2 and sat == Ideal(r3, [y, z])
