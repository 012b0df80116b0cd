"""Ideal-file grammar: ring headers, entries, attributes, error spans."""

import pytest

from vanish.errors import ParseError
from vanish.fields import GF, QQ
from vanish.idealfile import IdealFile
from vanish.ideals import Ideal

SAMPLE = """\
# a plane, a line, and a curve
ring Q[x, y, z]

ideal p = x, y  witness=z dim=1
ideal q = z
ideal curve = y^2 - x*z, x^2*y - z^2, x^3 - y*z  witness=x dim=1 weights=3,4,5
ideal staircase = x^2, x*y   # trailing comment
ideal zero = 0
"""


class TestParsing:
    def test_ring_and_names(self):
        f = IdealFile.parse(SAMPLE)
        assert f.ring.field == QQ
        assert f.ring.variables == ("x", "y", "z")
        assert f.names() == ["p", "q", "curve", "staircase", "zero"]

    def test_entry_contents(self):
        f = IdealFile.parse(SAMPLE)
        x, y, z = f.ring.gens()
        assert f.ideal("p") == Ideal(f.ring, [x, y])
        assert f.ideal("zero") == Ideal(f.ring, [])
        assert f.ideal("staircase").gens == (x**2, x * y)

    def test_prime_attributes(self):
        f = IdealFile.parse(SAMPLE)
        curve = f.entry("curve")
        assert curve.is_declared_prime
        assert curve.dim == 1
        assert curve.weights == (3, 4, 5)
        assert str(curve.witness) == "x"
        assert curve.line == 6
        w = curve.prime_witness()
        assert w.claimed_dim == 1 and w.certified

    def test_plain_entry_is_not_prime(self):
        f = IdealFile.parse(SAMPLE)
        assert not f.entry("q").is_declared_prime

    def test_gf_header(self):
        f = IdealFile.parse("ring GF( 7 )[a, b]\nideal m = a, b\n")
        assert f.ring.field == GF(7)
        assert f.ring.variables == ("a", "b")
        f = IdealFile.parse("ring GF(2305843009213693951)[x, y]\nideal m = x, y\n")
        assert f.ring.field == GF(2**61 - 1)

    def test_attribute_order_is_free(self):
        f = IdealFile.parse("ring Q[x, y]\nideal p = x dim=1 witness=y\n")
        e = f.entry("p")
        assert e.dim == 1 and str(e.witness) == "y"

    def test_unknown_name(self):
        f = IdealFile.parse(SAMPLE)
        with pytest.raises(ParseError, match="no ideal named 'mystery'"):
            f.entry("mystery")


class TestErrors:
    def parse_err(self, text, needle):
        with pytest.raises(ParseError, match=needle):
            IdealFile.parse(text, path="test.txt")

    def test_missing_ring(self):
        self.parse_err("ideal p = x\n", "ring header must come first")
        self.parse_err("# only comments\n", "missing 'ring' header")

    def test_duplicate_ring(self):
        self.parse_err("ring Q[x]\nring Q[y]\n", "test.txt:2: duplicate ring")

    def test_bad_ring_syntax(self):
        self.parse_err("ring R[x]\n", "expected 'ring Q")
        self.parse_err("ring Q[]\n", "at least one variable")
        self.parse_err("ring Q[x, x]\n", "test.txt:1")
        self.parse_err("ring GF(4)[x]\n", "test.txt:1: .* must be prime")
        self.parse_err("ring GF(3317044064679887385961981)[x]\n",
                       "test.txt:1: .* must be below")

    def test_duplicate_ideal(self):
        self.parse_err("ring Q[x]\nideal p = x\nideal p = x\n",
                       "test.txt:3: ideal 'p' defined twice")

    def test_empty_generators(self):
        self.parse_err("ring Q[x]\nideal p =\n", "use 0 for the zero ideal")

    def test_generator_error_carries_line(self):
        self.parse_err("ring Q[x]\n\nideal p = x + w\n", "test.txt:3")

    def test_bad_attributes(self):
        self.parse_err("ring Q[x]\nideal p = x dim=one\n",
                       "dim must be an integer")
        self.parse_err("ring Q[x, y]\nideal p = x weights=a,b\n",
                       "comma-separated integers")
        self.parse_err("ring Q[x, y]\nideal p = x witness=q\n",
                       "bad witness")
        self.parse_err("ring Q[x]\nideal p = x dim=1 dim=2\n",
                       "duplicate attribute 'dim'")

    def test_junk_line(self):
        self.parse_err("ring Q[x]\nmodule m = x\n", "expected 'ideal")


class TestLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text(SAMPLE, encoding="utf-8")
        f = IdealFile.load(str(path))
        assert f.path == str(path)
        assert f.names() == ["p", "q", "curve", "staircase", "zero"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read ideal file"):
            IdealFile.load(str(tmp_path / "absent.txt"))
