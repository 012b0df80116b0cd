"""Polynomial rings and exact multivariate polynomials.

A polynomial is a dict from exponent tuples to nonzero field elements:
Fractions over QQ, ints in [1, p) over GF(p).  Arithmetic combines them
with +, - and *, and over GF(p) takes each result % p.  Instances are
immutable: every operation returns a new polynomial, and terms dicts are
never mutated after construction.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .config import term_cap, term_cap_error
from .errors import RingMismatchError
from .fields import CoefficientField
from .orders import GREVLEX, MonomialOrder

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring over Q or GF(p) with named variables."""

    field: CoefficientField
    variables: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.variables, tuple):
            object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("a polynomial ring needs at least one variable")
        seen = set()
        for name in self.variables:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        return self.from_terms({(0,) * self.nvars: value})

    def index(self, name: str) -> int:
        """Position of the named variable; KeyError when there is none."""
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in {self}") from None

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): self.field.one()})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(v) for v in self.variables)

    def check(self, *items) -> None:
        """Raise RingMismatchError unless every item (a polynomial, an
        ideal or a prime) lives in this ring."""
        for item in items:
            if item.ring != self:
                raise RingMismatchError(
                    f"{type(item).__name__} of {item.ring} used with {self}")

    def exponents(self, exps) -> tuple[int, ...]:
        """``exps`` as a tuple of one non-negative int per variable; a
        float, string or other non-integer exponent is a ValueError."""
        try:
            exps = tuple(exps)
            out = tuple(map(operator.index, exps))
        except TypeError:
            out = ()
        if len(out) != self.nvars or min(out) < 0:
            raise ValueError(f"bad exponent tuple {exps} for {self}")
        return out

    def monomial(self, exps, coeff=1) -> "Polynomial":
        if not isinstance(exps, tuple):
            exps = self.exponents(exps)     # a list is no dict key
        return self.from_terms({exps: coeff})

    def from_terms(self, terms: dict) -> "Polynomial":
        """The polynomial of {exps: coeff}, the one entry point for outside
        coefficients: each is coerced into the field, and zeros dropped."""
        clean = {}
        for exps, coeff in terms.items():
            exps = self.exponents(exps)
            c = self.field.coerce(coeff)
            if c:
                clean[exps] = c
        return Polynomial(self, clean)

    def parse(self, text: str) -> "Polynomial":
        from .parser import parse_polynomial

        return parse_polynomial(text, self)

    def __str__(self):
        return f"{self.field}[{','.join(self.variables)}]"


class Polynomial:
    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._lead = None   # (order, exps) of the last leading_exps lookup

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_homogeneous(self, weights: tuple[int, ...] | None = None) -> bool:
        """All terms share one (weighted) degree.  Zero counts as homogeneous."""
        if not self.terms:
            return True
        degs = {_wdeg(e, weights) for e in self.terms}
        return len(degs) == 1

    # -- degree data ----------------------------------------------------

    def total_degree(self) -> int | None:
        """Largest term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def order_at_origin(self):
        """Smallest term degree; math.inf for the zero polynomial.

        This is the largest k with the polynomial in the k-th power of
        the maximal ideal at the origin.
        """
        if not self.terms:
            return math.inf
        return min(sum(e) for e in self.terms)

    def degree_in(self, var_index: int) -> int:
        if not self.terms:
            return 0
        return max(e[var_index] for e in self.terms)

    # -- leading data (relative to a monomial order) --------------------

    def leading_exps(self, order: MonomialOrder = GREVLEX) -> tuple[int, ...]:
        lead = self._lead
        if lead is not None and lead[0] is order:
            return lead[1]
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=order.key)
        self._lead = (order, exps)
        return exps

    def leading_coefficient(self, order: MonomialOrder = GREVLEX):
        return self.terms[self.leading_exps(order)]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        inv, mod = self.ring.field.inv(lc), self.ring.field.p
        if mod:
            return Polynomial(self.ring, {e: c * inv % mod for e, c in self.terms.items()})
        return Polynomial(self.ring, {e: c * inv for e, c in self.terms.items()})

    # -- arithmetic ------------------------------------------------------

    def _combine(self, other, subtract: bool):
        """self + other, or self - other when ``subtract``."""
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        self.ring.check(other)
        mod = self.ring.field.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + (-c if subtract else c)
            if mod:
                v %= mod
            if v:
                out[e] = v
            else:
                del out[e]
        return Polynomial(self.ring, out)

    def __add__(self, other):
        return self._combine(other, False)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return self.ring.zero() - self

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        self.ring.check(other)
        mod = self.ring.field.p
        cap = term_cap()
        out: dict = {}
        # iterate over the shorter factor's terms on the outside
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                old = out.get(key)
                v = ca * cb if old is None else old + ca * cb
                if mod:
                    v %= mod
                if v:
                    out[key] = v
                else:
                    del out[key]
            if len(out) > cap:
                raise term_cap_error("product exceeds", cap)
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _coerce_operand(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    # -- structural operations -------------------------------------------

    def substitute(self, mapping: dict[str, "Polynomial"],
                   target_ring: PolyRing | None = None) -> "Polynomial":
        """Map each variable to a polynomial; unmapped variables go to the
        target ring's variable of the same name."""
        target = target_ring if target_ring is not None else self.ring
        if target.field != self.ring.field:
            raise RingMismatchError(
                f"cannot substitute from {self.ring.field} into {target.field}")
        images = []
        for name in self.ring.variables:
            if name in mapping:
                target.check(mapping[name])
                images.append(mapping[name])
            else:
                images.append(target.variable(name))
        result = target.zero()
        for exps, coeff in self.terms.items():
            term = target.constant(coeff)
            for img, e in zip(images, exps):
                if e:
                    term = term * img ** e
            result = result + term
        return result

    def differentiate(self, var: str | int) -> "Polynomial":
        i = var if isinstance(var, int) else self.ring.index(var)
        if not 0 <= i < self.ring.nvars:
            raise IndexError(f"variable index {i} out of range for {self.ring}")
        mod = self.ring.field.p
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            c = coeff * e
            if mod:
                c %= mod
            if c:
                out[exps[:i] + (e - 1,) + exps[i + 1:]] = c
        return Polynomial(self.ring, out)

    def coefficient_of(self, exps: tuple[int, ...]):
        return self.terms.get(tuple(exps), self.ring.field.zero())

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        """Terms as (exps, coeff) pairs, largest monomial first."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=order.key, reverse=True)]

    # -- comparisons and hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- rendering ---------------------------------------------------------

    def render(self, order: MonomialOrder = GREVLEX) -> str:
        """Canonical text form: descending monomials, explicit * and ^."""
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms(order):
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.variables, exps) if e
            )
            negative = isinstance(coeff, Fraction) and coeff < 0
            mag = -coeff if negative else coeff
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Polynomial({self.render()} over {self.ring})"


def _wdeg(exps: tuple[int, ...], weights: tuple[int, ...] | None) -> int:
    if weights is None:
        return sum(exps)
    return sum(e * w for e, w in zip(exps, weights))


def positive_int(n, what: str = "exponent") -> int:
    """n as an int of at least 1, read through ``operator.index``; a
    float, a string or a value below 1 is a ValueError."""
    try:
        value = operator.index(n)
    except TypeError:
        value = 0
    if value < 1:
        raise ValueError(f"{what} must be a positive integer, got {n!r}")
    return value


# -- exponent-tuple helpers shared by the basis machinery -------------------

def monomial_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when x^a divides x^b."""
    return all(map(operator.le, a, b))

def monomial_div(b: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(y - x for x, y in zip(a, b))

def monomial_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))

def minimal_exponents(exps) -> tuple[tuple[int, ...], ...]:
    """The divisibility-minimal tuples of ``exps``, once each, ordered by
    (degree, exps): the minimal generators of the monomial ideal.  In that
    order a divisor precedes its multiples, so each tuple is checked only
    against the kept ones, and the check stops at the first divisor."""
    keep: list[tuple[int, ...]] = []
    for e in sorted(set(exps), key=lambda e: (sum(e), e)):
        for k in keep:
            if all(map(operator.le, k, e)):
                break
        else:
            keep.append(e)
    return tuple(keep)
