"""Text to polynomial.

Grammar (whitespace ignored):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' INT)?
    base   := INT ('/' INT)? | NAME | '(' expr ')'

Multiplication must be explicit (``2*x``, never ``2x``) and rational
literals are written ``a/b`` with integer parts.  Errors carry the
0-based position of the offending token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, UnknownVariableError
from .poly import Polynomial, PolyRing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<INT>\d+)|(?P<NAME>[a-zA-Z][a-zA-Z0-9_]*)|(?P<OP>[-+*^/()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", position=bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: PolyRing):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_int(self, what: str) -> tuple[int, int]:
        kind, value, pos = self.peek()
        if kind != "INT":
            raise ParseError(f"expected an integer {what}", position=pos)
        self.advance()
        return int(value), pos

    def parse(self) -> Polynomial:
        kind, _, pos = self.peek()
        if kind == "END":
            raise ParseError("empty input", position=pos)
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected {value!r} after expression", position=pos)
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value == "*":
                self.advance()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "OP" and value == "-":
            self.advance()
            return -self.factor()
        result = self.base()
        kind, value, _ = self.peek()
        if kind == "OP" and value == "^":
            self.advance()
            n, _ = self.expect_int("exponent")
            result = result ** n
        return result

    def base(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == "INT":
            k2, v2, _ = self.peek()
            if k2 == "OP" and v2 == "/":
                self.advance()
                denom, dpos = self.expect_int("denominator")
                if denom == 0:
                    raise ParseError("zero denominator", position=dpos)
                try:
                    return self.ring.constant(Fraction(int(value), denom))
                except ZeroDivisionError:
                    raise ParseError(
                        "denominator is zero in the coefficient field",
                        position=dpos) from None
            return self.ring.constant(int(value))
        if kind == "NAME":
            if value not in self.ring.variables:
                raise UnknownVariableError(
                    f"unknown variable {value!r} (ring is {self.ring})",
                    position=pos)
            return self.ring.variable(value)
        if kind == "OP" and value == "(":
            inner = self.expr()
            k2, v2, p2 = self.advance()
            if not (k2 == "OP" and v2 == ")"):
                raise ParseError("expected ')'", position=p2)
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input",
                         position=pos)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    try:
        return _Parser(text, ring).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


def parse_generators(text: str, ring: PolyRing) -> list[Polynomial]:
    """Comma-separated polynomial list.  Commas never occur inside a
    polynomial, so a flat split is safe."""
    parts = text.split(",")
    gens = []
    offset = 0
    for part in parts:
        if not part.strip():
            raise ParseError("empty generator", position=offset)
        try:
            gens.append(parse_polynomial(part, ring))
        except ParseError as exc:
            if exc.position is not None:
                exc.position += offset
            raise
        offset += len(part) + 1
    return gens
