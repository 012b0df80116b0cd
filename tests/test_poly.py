"""Polynomial arithmetic, predicates, and rendering."""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from oracles import minimal_by_pairs, schoolbook_mul
from vanish import config
from vanish.errors import RingMismatchError, TermCapExceededError
from vanish.fields import GF, MAX_CHARACTERISTIC, QQ, CoefficientField, _is_prime
from vanish.groebner import normal_form
from vanish.ideals import Ideal
from vanish.local import hilbert_series
from vanish.orders import GREVLEX, LEX, elimination_order
from vanish.poly import PolyRing, minimal_exponents


class TestCoefficientField:
    def test_rational_field_arithmetic(self):
        assert QQ.inv(Fraction(2, 7)) == Fraction(7, 2)
        assert QQ.coerce(3) == Fraction(3)

    def test_prime_field_arithmetic(self):
        f7 = GF(7)
        assert f7.inv(3) == 5
        assert f7.coerce(-1) == 6

    def test_prime_field_coerces_strings(self):
        assert GF(7).coerce("2/3") == 3
        assert GF(7).coerce("-1") == 6
        with pytest.raises(ZeroDivisionError):
            GF(7).coerce("1/7")

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_floats_are_rejected(self, field):
        # a float is not an exact coefficient: no truncation to 2 over
        # GF(7), no binary expansion of 0.1 over QQ
        ring = PolyRing(field, ("x",))
        for value in (2.5, 0.1, 2.0):
            with pytest.raises(TypeError):
                field.coerce(value)
            with pytest.raises(TypeError):
                ring.constant(value)
            with pytest.raises(TypeError):
                ring.monomial((1,), value)
        assert field.coerce(True) == field.one()
        assert ring.monomial((1,), "3") == 3 * ring.variable("x")

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            GF(1)

    def test_primality_matches_sieve(self):
        limit = 200_000
        sieve = [False, False] + [True] * (limit - 2)
        for k in range(2, int(limit ** 0.5) + 1):
            if sieve[k]:
                sieve[k * k::k] = [False] * len(range(k * k, limit, k))
        assert [n for n in range(limit) if _is_prime(n)] == \
            [n for n in range(limit) if sieve[n]]

    def test_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to the first 4 and the first 12 prime bases
        for n in (3215031751, 318665857834031151167461):
            assert not _is_prime(n)
            with pytest.raises(ValueError, match="must be prime"):
                GF(n)

    def test_large_characteristics(self):
        assert GF(2**61 - 1).characteristic == 2**61 - 1
        for n in (MAX_CHARACTERISTIC, 2**89 - 1):
            with pytest.raises(ValueError, match="must be below"):
                GF(n)

    def test_field_identity(self):
        assert GF(7) == GF(7)
        assert GF(7) != GF(11)
        assert QQ == CoefficientField()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(Fraction(0))
        with pytest.raises(ZeroDivisionError):
            GF(5).inv(0)


class TestRingConstruction:
    def test_variable_validation(self):
        with pytest.raises(ValueError):
            PolyRing(QQ, ())
        with pytest.raises(ValueError):
            PolyRing(QQ, ("x", "x"))
        with pytest.raises(ValueError):
            PolyRing(QQ, ("2bad",))

    def test_list_variables_normalized(self):
        ring = PolyRing(QQ, ["a", "b"])
        assert ring.variables == ("a", "b")
        assert ring == PolyRing(QQ, ("a", "b"))

    def test_generators(self, r2):
        x, y = r2.gens()
        assert str(x) == "x"
        assert r2.variable("y") == y
        with pytest.raises(KeyError):
            r2.variable("q")

    def test_monomial_constructor(self, r2):
        m = r2.monomial((2, 1), 3)
        assert str(m) == "3*x^2*y"
        assert r2.monomial((0, 0), 0).is_zero()
        with pytest.raises(ValueError):
            r2.monomial((1,))
        with pytest.raises(ValueError):
            r2.monomial((-1, 0))

    @pytest.mark.parametrize("exps", [(0.5, 1), (1.0, 1), ("1", 2), (Fraction(1), 0),
                                      (-1, 0), 5])
    def test_non_integer_exponents_rejected(self, r2, exps):
        # a float or string exponent used to be truncated by int()
        with pytest.raises(ValueError, match="bad exponent tuple"):
            r2.monomial(exps)
        with pytest.raises(ValueError, match="bad exponent tuple"):
            r2.from_terms({exps: 1})
        with pytest.raises(ValueError, match="bad exponent tuple"):
            r2.from_terms({exps: 0})    # checked before the zero is dropped


class TestArithmetic:
    def test_sum_cancels(self, r2):
        x, y = r2.gens()
        assert (x + y) - (y + x) == r2.zero()
        assert not (x - x)

    def test_product_matches_schoolbook(self, r3):
        x, y, z = r3.gens()
        f = (x + 2 * y - z) ** 2
        g = x * y - 3 * z + 1
        assert f * g == schoolbook_mul(f, g)

    def test_binomial_expansion(self, r2):
        x, y = r2.gens()
        assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3

    def test_power_edge_cases(self, r2):
        x, _ = r2.gens()
        assert x**0 == r2.one()
        assert r2.zero() ** 0 == r2.one()
        assert r2.zero() ** 3 == r2.zero()
        with pytest.raises(ValueError):
            x ** (-1)

    def test_scalar_mixing(self, r2):
        x, y = r2.gens()
        f = 2 * x + y * Fraction(1, 2)
        assert f == x * 2 + Fraction(1, 2) * y
        assert (f - f).is_zero()
        assert x + 1 == 1 + x

    def test_ring_mismatch(self, r2, r3):
        with pytest.raises(RingMismatchError):
            r2.gens()[0] + r3.gens()[0]

    def test_foreign_operand_rejected(self, r2):
        x, _ = r2.gens()
        with pytest.raises(TypeError):
            x + "y"

    def test_gf7_wraps(self, gf7):
        x, y = gf7.gens()
        assert (x + y) ** 7 == x**7 + y**7
        assert (3 * x + 4 * x).is_zero()
        assert str(-x) == "6*x"


class TestPredicates:
    def test_degrees(self, r3):
        x, y, z = r3.gens()
        f = x * y**2 + z
        assert f.total_degree() == 3
        assert f.degree_in(1) == 2
        assert r3.zero().total_degree() is None

    def test_order_at_origin(self, r3):
        x, y, z = r3.gens()
        assert (x + y * z).order_at_origin() == 1
        assert (x * y * z).order_at_origin() == 3
        assert (r3.one() + x).order_at_origin() == 0
        assert r3.zero().order_at_origin() == math.inf

    def test_homogeneity(self, r3):
        x, y, z = r3.gens()
        assert (x**2 + y * z).is_homogeneous()
        assert not (x**2 + y).is_homogeneous()
        assert (y**2 - x * z).is_homogeneous()

    def test_weighted_homogeneity(self, r3):
        x, y, z = r3.gens()
        # the (3,4,5) curve generators are homogeneous for weights 3,4,5
        for f in (y**2 - x * z, x**2 * y - z**2, x**3 - y * z):
            assert f.is_homogeneous(weights=(3, 4, 5))
        assert not (x + y).is_homogeneous(weights=(3, 4, 5))

    def test_monomial_predicates(self, r2):
        x, y = r2.gens()
        assert (3 * x * y).is_monomial()
        assert not (x + y).is_monomial()
        assert r2.constant(5).is_constant()
        assert not r2.zero().is_monomial()


class TestLeadingData:
    def test_leading_depends_on_order(self, r3):
        x, y, z = r3.gens()
        f = x**3 - y**4
        assert f.leading_exps(LEX) == (3, 0, 0)
        assert f.leading_exps(GREVLEX) == (0, 4, 0)

    def test_monic(self, r2):
        x, y = r2.gens()
        f = 3 * x**2 + 6 * y
        assert f.monic(GREVLEX) == x**2 + 2 * y
        assert r2.zero().monic(GREVLEX).is_zero()

    def test_leading_cache_follows_the_order(self, r3):
        x, y, z = r3.gens()
        f = x * y + x * z**3 + y**4
        elim, elim_again = elimination_order(1), elimination_order(1)
        assert elim == elim_again and elim is not elim_again
        expected = [(GREVLEX, (0, 4, 0)), (LEX, (1, 1, 0)), (elim, (1, 0, 3)),
                    (elim_again, (1, 0, 3)), (GREVLEX, (0, 4, 0))]
        for order, exps in expected:
            assert f.leading_exps(order) == max(f.terms, key=order.key) == exps

    def test_zero_has_no_leading_term(self, r2):
        with pytest.raises(ValueError):
            r2.zero().leading_exps(GREVLEX)


class TestCalculusAndSubstitution:
    def test_differentiate(self, r3):
        x, y, z = r3.gens()
        f = x**3 * y + z**2
        assert f.differentiate("x") == 3 * x**2 * y
        assert f.differentiate("z") == 2 * z
        assert f.differentiate("y") == x**3
        assert f.differentiate(2) == 2 * z

    def test_differentiate_unknown_variable(self, r3):
        x, _, _ = r3.gens()
        with pytest.raises(KeyError, match="no variable 'q'"):
            x.differentiate("q")
        for index in (3, -1):
            with pytest.raises(IndexError, match="variable index"):
                x.differentiate(index)

    def test_substitute_within_ring(self, r2):
        x, y = r2.gens()
        f = x**2 + y
        assert f.substitute({"x": y}) == y**2 + y

    def test_substitute_across_rings(self, r2, r3):
        x, y = r2.gens()
        X, Y, Z = r3.gens()
        f = x * y + x
        image = f.substitute({"x": X * Z, "y": Y}, target_ring=r3)
        assert image == X * Z * Y + X * Z

    def test_coefficient_of(self, r2):
        x, y = r2.gens()
        f = 3 * x**2 * y - y
        assert f.coefficient_of((2, 1)) == Fraction(3)
        assert f.coefficient_of((5, 5)) == Fraction(0)


class TestRendering:
    def test_canonical_forms(self, r3):
        x, y, z = r3.gens()
        assert str(x**2 + 2 * x * y + y**2) == "x^2 + 2*x*y + y^2"
        assert str(-x + 1) == "-x + 1"
        assert str(y**2 - x * z) == "y^2 - x*z"
        assert str(Fraction(1, 2) * x) == "1/2*x"
        assert str(r3.zero()) == "0"
        assert str(r3.one()) == "1"
        assert str(-r3.one()) == "-1"

    def test_render_respects_order(self, r3):
        x, y, z = r3.gens()
        f = x * z - y**2
        assert f.render(GREVLEX) == "-y^2 + x*z"
        assert f.render(LEX) == "x*z - y^2"


class TestHashingEquality:
    def test_equal_polys_hash_alike(self, r2):
        x, y = r2.gens()
        a = (x + y) ** 2
        b = x**2 + 2 * x * y + y**2
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_constant_comparison(self, r2):
        assert r2.one() == 1
        assert r2.constant(Fraction(3, 2)) == Fraction(3, 2)
        assert r2.zero() == 0


class TestTermCap:
    def test_product_over_cap_aborts(self, r2, low_term_cap):
        x, y = r2.gens()
        low_term_cap(5)
        with pytest.raises(TermCapExceededError):
            (x + y) ** 8

    @pytest.mark.parametrize("trip, message", [
        (lambda r, f: f * f,
         "product exceeds the term cap (3); set VANISH_TERM_CAP to raise it"),
        (lambda r, f: normal_form(f, [r.parse("x - y")], GREVLEX),
         "reduction intermediate exceeds the term cap (3); "
         "set VANISH_TERM_CAP to raise it"),
        (lambda r, f: Ideal(r, r.gens()) ** 3,
         "ideal power has more generator products than the term cap (3); "
         "set VANISH_TERM_CAP to raise it"),
        (lambda r, f: hilbert_series([(3, 1)], r),
         "Hilbert numerator has more coefficients than the term cap (3); "
         "set VANISH_TERM_CAP to raise it"),
    ], ids=["product", "reduction", "ideal-power", "hilbert-numerator"])
    def test_messages(self, r2, low_term_cap, trip, message):
        f = r2.parse("(x + y)^6")
        low_term_cap(3)
        with pytest.raises(TermCapExceededError) as info:
            trip(r2, f)
        assert str(info.value) == message

    def test_cap_restored(self, r2):
        x, y = r2.gens()
        assert len(((x + y) ** 8).terms) == 9

    def test_low_term_cap_restores_the_cap_it_found(self, request):
        # a cap set beforehand, as VANISH_TERM_CAP sets one, outlives the
        # fixture; the check runs after the fixture's teardown
        saved = config.term_cap()
        config.set_term_cap(12345)

        def check():
            found = config.term_cap()
            config.set_term_cap(saved)
            assert found == 12345

        request.addfinalizer(check)
        request.getfixturevalue("low_term_cap")(3)


# lists of exponent tuples in 1-5 variables, the zero tuple included
exponent_lists = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=10))


class TestMinimalExponents:
    @settings(max_examples=200, deadline=None)
    @given(exponent_lists, st.data())
    def test_matches_all_pairs_oracle(self, exps, data):
        # repeats, and a multiple of each tuple that was drawn, are dropped
        extra = [tuple(v + 1 for v in e) for e in exps]
        shuffled = data.draw(st.permutations(exps + exps + extra))
        assert minimal_exponents(shuffled) == tuple(minimal_by_pairs(exps))
        assert minimal_exponents(iter(shuffled)) == minimal_exponents(exps)

    def test_degree_then_tuple_order(self):
        exps = [(0, 2, 0), (1, 1, 0), (3, 0, 0), (0, 0, 1), (2, 0, 1), (1, 1, 0)]
        assert minimal_exponents(exps) == ((0, 0, 1), (0, 2, 0), (1, 1, 0), (3, 0, 0))
