"""Polynomial text parsing: grammar, round trips, and error positions."""

from fractions import Fraction

import pytest

from vanish.errors import ParseError, UnknownVariableError
from vanish.fields import GF
from vanish.parser import parse_generators, parse_polynomial
from vanish.poly import PolyRing


class TestBasicParsing:
    def test_single_terms(self, r3):
        x, y, z = r3.gens()
        assert parse_polynomial("x", r3) == x
        assert parse_polynomial("x*y*z", r3) == x * y * z
        assert parse_polynomial("x^3", r3) == x**3
        assert parse_polynomial("42", r3) == r3.constant(42)
        assert parse_polynomial("0", r3).is_zero()

    def test_sums_and_signs(self, r3):
        x, y, z = r3.gens()
        assert parse_polynomial("x + y - z", r3) == x + y - z
        assert parse_polynomial("-x", r3) == -x
        assert parse_polynomial("- x + - y", r3) == -x - y
        assert parse_polynomial("x - - y", r3) == x + y

    def test_coefficients(self, r3):
        x, y, _ = r3.gens()
        assert parse_polynomial("3*x", r3) == 3 * x
        assert parse_polynomial("1/2*x", r3) == Fraction(1, 2) * x
        assert parse_polynomial("2/4", r3) == r3.constant(Fraction(1, 2))

    def test_parentheses_and_powers(self, r3):
        x, y, z = r3.gens()
        assert parse_polynomial("(x + y)^2", r3) == (x + y) ** 2
        assert parse_polynomial("(x + y)*(x - y)", r3) == x**2 - y**2
        # unary minus binds looser than power
        assert parse_polynomial("-x^2", r3) == -(x**2)
        assert parse_polynomial("(-x)^2", r3) == x**2

    def test_implicit_products_rejected(self, r3):
        with pytest.raises(ParseError):
            parse_polynomial("2x", r3)
        with pytest.raises(ParseError):
            parse_polynomial("x y", r3)

    def test_whitespace_insensitive(self, r3):
        a = parse_polynomial("x^2+2*x*y", r3)
        b = parse_polynomial("  x^2 + 2 * x * y  ", r3)
        assert a == b


class TestRoundTrip:
    def test_render_then_parse(self, r3):
        x, y, z = r3.gens()
        cases = [
            y**2 - x * z,
            -x + 1,
            Fraction(1, 3) * x**2 - Fraction(5, 2) * y * z,
            (x + y + z) ** 3,
            r3.zero(),
            r3.constant(-7),
        ]
        for f in cases:
            assert parse_polynomial(str(f), r3) == f

    def test_gf_round_trip(self):
        ring = PolyRing(GF(7), ("a", "b"))
        a, b = ring.gens()
        for f in (3 * a**2 + 5 * b, -a, a * b - 1):
            assert parse_polynomial(str(f), ring) == f


class TestGfCoefficients:
    def test_wrapping(self, gf7):
        x, _ = gf7.gens()
        assert parse_polynomial("10*x", gf7) == 3 * x
        assert parse_polynomial("7*x", gf7).is_zero()

    def test_division_by_unit(self, gf7):
        x, _ = gf7.gens()
        # 1/3 = 5 in GF(7)
        assert parse_polynomial("1/3*x", gf7) == 5 * x

    def test_division_by_p_rejected(self, gf7):
        with pytest.raises(ParseError):
            parse_polynomial("1/7*x", gf7)


class TestErrors:
    def test_unknown_variable_reports_position(self, r2):
        with pytest.raises(UnknownVariableError) as exc:
            parse_polynomial("x + w", r2)
        assert exc.value.position == 4
        assert "w" in str(exc.value)

    def test_trailing_garbage(self, r2):
        with pytest.raises(ParseError):
            parse_polynomial("x + y)", r2)

    def test_unbalanced_parens(self, r2):
        with pytest.raises(ParseError):
            parse_polynomial("(x + y", r2)

    def test_dangling_operator(self, r2):
        with pytest.raises(ParseError):
            parse_polynomial("x *", r2)

    def test_empty_input(self, r2):
        with pytest.raises(ParseError):
            parse_polynomial("", r2)

    def test_zero_denominator(self, r2):
        with pytest.raises(ParseError):
            parse_polynomial("1/0", r2)

    def test_bad_exponent(self, r2):
        with pytest.raises(ParseError):
            parse_polynomial("x^y", r2)

    def test_deep_nesting(self, r2):
        for text in ("(" * 3000 + "x" + ")" * 3000, "-" * 5000 + "x"):
            with pytest.raises(ParseError, match="nested too deeply"):
                parse_polynomial(text, r2)
        assert parse_polynomial("(" * 50 + "x" + ")" * 50, r2) == r2.variable("x")

    def test_bad_character(self, r2):
        with pytest.raises(ParseError):
            parse_polynomial("x 国 y", r2)


class TestGeneratorLists:
    def test_split_on_commas(self, r3):
        x, y, z = r3.gens()
        gens = parse_generators("x + y, y^2 - x*z, z", r3)
        assert gens == [x + y, y**2 - x * z, z]

    def test_single_generator(self, r3):
        assert parse_generators("x", r3) == [r3.variable("x")]

    def test_parens_do_not_split(self, r3):
        # commas only split at the top level of the generator list
        gens = parse_generators("(x + y)^2, z", r3)
        assert len(gens) == 2

    def test_error_position_offset(self, r3):
        # the error in the second chunk is reported at its file offset
        with pytest.raises(ParseError) as exc:
            parse_generators("x + y, x + w", r3)
        assert exc.value.position == 11

    def test_empty_chunk_rejected(self, r3):
        with pytest.raises(ParseError):
            parse_generators("x, , y", r3)
        with pytest.raises(ParseError):
            parse_generators("", r3)
