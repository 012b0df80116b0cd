"""Ideals and the operations on them.

Each :class:`Ideal` caches its reduced basis per monomial order, and
equality compares the cached reduced grevlex bases, which are canonical.
Monomial ideals are handled in closed form on exponent tuples (lcms for an
intersection, differences for a colon by a monomial, supports for radical
membership); everything else reduces to Groebner bases.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce

from .config import term_cap, term_cap_error
from .errors import UnitIdealError, ZeroDivisorRequestError
from .groebner import GroebnerBasis, buchberger, divmod_poly
from .orders import GREVLEX, MonomialOrder
from .poly import Polynomial, PolyRing, minimal_exponents, monomial_lcm


def fresh_name(base: str, taken) -> str:
    """A variable name starting with ``base`` that avoids ``taken``."""
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def adjoin(ring: PolyRing, base: str):
    """(big, v, lift): ``ring`` with a fresh first variable v named from
    ``base``, that variable, and the map lifting a polynomial of ``ring``
    into ``big``."""
    name = fresh_name(base, ring.variables)
    big = PolyRing(ring.field, (name,) + ring.variables)
    up = range(1, ring.nvars + 1)
    return big, big.variable(name), lambda f: map_variables(f, big, up)


def map_variables(f: Polynomial, target: PolyRing, positions) -> Polynomial:
    """Reindex variables: old variable i becomes target variable
    positions[i].  A position of None demands the variable is absent."""
    out = {}
    for exps, coeff in f.terms.items():
        new = [0] * target.nvars
        for i, e in enumerate(exps):
            if not e:
                continue
            pos = positions[i]
            if pos is None:
                raise ValueError(
                    f"variable {f.ring.variables[i]!r} survives into a ring "
                    "that drops it")
            new[pos] = e
        out[tuple(new)] = coeff
    return Polynomial(target, out)


def divide_exact(f: Polynomial, g: Polynomial,
                 order: MonomialOrder = GREVLEX) -> Polynomial:
    """f / g when the division is exact; raises ValueError otherwise."""
    if g.is_zero():
        raise ZeroDivisorRequestError("division by the zero polynomial")
    quotients, r = divmod_poly(f, [g], order)
    if not r.is_zero():
        raise ValueError(f"{f} is not a polynomial multiple of {g}")
    return quotients[0]


class Ideal:
    """A finitely generated ideal of a polynomial ring."""

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        clean = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise TypeError(f"ideal generator {g!r} is not a polynomial")
            ring.check(g)
            if not g.is_zero():
                clean.append(g)
        self.gens = tuple(clean)
        self._gb_cache: dict[MonomialOrder, GroebnerBasis] = {}

    # -- canonical form ---------------------------------------------------

    def groebner_basis(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        gb = self._gb_cache.get(order)
        if gb is None:
            gb = GroebnerBasis(self.ring, order,
                               tuple(buchberger(self.ring, self.gens, order)))
            self._gb_cache[order] = gb
        return gb

    def normal_form(self, f: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
        return self.groebner_basis(order).reduce(f)

    def __contains__(self, f) -> bool:
        if not isinstance(f, Polynomial):
            if not isinstance(f, (int, Fraction)):
                return False
            f = self.ring.constant(f)
        return self.groebner_basis().contains(f)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self is other:
            return True
        return self.groebner_basis().polys == other.groebner_basis().polys

    __hash__ = None

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inside}) in {self.ring}"

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        if not self.gens:
            return False
        return self.groebner_basis().polys == (self.ring.one(),)

    def is_proper(self) -> bool:
        return not self.is_unit()

    def is_monomial_ideal(self) -> bool:
        return all(g.is_monomial() for g in self.groebner_basis().polys)

    def monomial_exponents(self) -> list[tuple[int, ...]]:
        """Minimal monomial generators, for monomial ideals only."""
        if not self.is_monomial_ideal():
            raise ValueError("not a monomial ideal")
        return [g.leading_exps(GREVLEX) for g in self.groebner_basis().polys]

    def leading_term_ideal(self, order: MonomialOrder = GREVLEX) -> "Ideal":
        gb = self.groebner_basis(order)
        gens = [self.ring.monomial(e) for e in gb.leading_term_exponents()]
        return Ideal(self.ring, gens)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        if not self.gens or not other.gens:
            return Ideal(self.ring, [])
        prods = {f * g for f in self.gens for g in other.gens}
        return Ideal(self.ring, sorted(prods, key=_poly_sort_key))

    def __pow__(self, k: int) -> "Ideal":
        if k < 0:
            raise ValueError("negative ideal power")
        if k == 0:
            return Ideal(self.ring, [self.ring.one()])
        if len(self.gens) <= 1:
            return Ideal(self.ring, [g ** k for g in self.gens])
        cap = term_cap()
        if math.comb(len(self.gens) + k - 1, k) > cap:
            raise term_cap_error("ideal power has more generator products than", cap)
        prods = set()
        for combo in itertools.combinations_with_replacement(self.gens, k):
            p = combo[0]
            for q in combo[1:]:
                p = p * q
            prods.add(p)
        return Ideal(self.ring, sorted(prods, key=_poly_sort_key))

    def _check(self, other: "Ideal"):
        if not isinstance(other, Ideal):
            raise TypeError(f"expected an ideal, got {type(other).__name__}")
        self.ring.check(other)

    # -- intersection, colon, saturation ---------------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        """I cap J: pairwise lcms if monomial, else eliminate t from t*I + (1-t)*J."""
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, [])
        if self.is_unit():
            return Ideal(self.ring, other.gens)
        if other.is_unit():
            return Ideal(self.ring, self.gens)
        if self.is_monomial_ideal() and other.is_monomial_ideal():
            return _monomial_ideal(self.ring, [
                monomial_lcm(a, b) for a in self.monomial_exponents()
                for b in other.monomial_exponents()])
        big, t, lift = adjoin(self.ring, "t")
        one_minus_t = big.one() - t
        gens = [t * lift(f) for f in self.gens]
        gens += [one_minus_t * lift(g) for g in other.gens]
        return Ideal(big, gens).eliminate(big.variables[:1])

    def colon(self, divisor) -> "Ideal":
        """I : f for a polynomial (closed form if monomial), or I : J per generator."""
        if isinstance(divisor, Ideal):
            self._check(divisor)
            if divisor.is_zero():
                return Ideal(self.ring, [self.ring.one()])
            parts = [self.colon(g) for g in divisor.gens]
            return reduce(lambda a, b: a.intersect(b), parts)
        f = divisor
        if not isinstance(f, Polynomial):
            raise TypeError(f"cannot colon by {type(f).__name__}")
        self.ring.check(f)
        if f.is_zero():
            raise ZeroDivisorRequestError("colon by the zero polynomial")
        if f.is_constant():
            return Ideal(self.ring, self.gens)
        if self.is_zero():
            return Ideal(self.ring, [])
        if f.is_monomial() and self.is_monomial_ideal():
            a = next(iter(f.terms))
            return _monomial_ideal(self.ring, [
                tuple(max(x - y, 0) for x, y in zip(e, a))
                for e in self.monomial_exponents()])
        inter = self.intersect(Ideal(self.ring, [f]))
        # every element of the reduced basis of I cap (f) is a multiple of
        # f, and the quotients are a Groebner basis of I : f whose leading
        # monomials are theirs over lt(f): an antichain, in the same order
        out = Ideal(self.ring, [divide_exact(g, f).monic() for g in inter.groebner_basis()])
        out._gb_cache[GREVLEX] = GroebnerBasis.from_minimal(self.ring, GREVLEX, out.gens)
        return out

    def saturate(self, f: Polynomial) -> tuple["Ideal", int]:
        """(I : f^infinity, saturation index).

        Iterates the colon until it stabilizes; the index is the smallest
        s with I : f^s equal to the saturation.
        """
        if isinstance(f, Ideal):
            raise TypeError("saturation witness must be a polynomial")
        if f.is_zero():
            raise ZeroDivisorRequestError("saturation by the zero polynomial")
        current = self
        index = 0
        while True:
            nxt = current.colon(f)
            if nxt == current:
                return current, index
            current = nxt
            index += 1

    # -- radical membership, dimension, elimination ------------------------------

    def radical_contains(self, f: Polynomial) -> bool:
        """f in sqrt(I): by supports if monomial, else 1 - w*f tested with a new w."""
        self.ring.check(f)
        if f.is_zero():
            return True
        if self.is_unit():
            return True
        if f.is_monomial() and self.is_monomial_ideal():
            a = next(iter(f.terms))
            return any(all(y or not x for x, y in zip(e, a))
                       for e in self.monomial_exponents())
        big, w, lift = adjoin(self.ring, "w")
        gens = [lift(g) for g in self.gens]
        gens.append(big.one() - w * lift(f))
        return Ideal(big, gens).is_unit()

    def dimension(self) -> int:
        """Krull dimension of the quotient ring.

        Computed on the leading-term ideal: the dimension is the largest
        size of a variable subset meeting the support of no minimal
        generator.
        """
        if self.is_unit():
            raise UnitIdealError("the unit ideal has no dimension")
        return independent_sets(self.groebner_basis().leading_term_exponents(),
                                self.ring.nvars, all_sets=False)[0]

    def height(self) -> int:
        """Codimension: number of variables minus the dimension."""
        return self.ring.nvars - self.dimension()

    def eliminate(self, names) -> "Ideal":
        """Intersect with the subring omitting the named variables.  The
        result holds its reduced grevlex basis: the elements of the reduced
        block-order basis free of them, in order, since the block order
        ranks the other variables by grevlex."""
        names = list(names)
        if not names:
            return Ideal(self.ring, self.gens)
        idxs = tuple(sorted({self.ring.index(name) for name in names}))
        if len(idxs) == self.ring.nvars:
            raise ValueError("cannot eliminate every variable")
        order = MonomialOrder("block", elim=idxs)
        basis = buchberger(self.ring, self.gens, order)
        keep_vars = [v for i, v in enumerate(self.ring.variables) if i not in idxs]
        sub = PolyRing(self.ring.field, tuple(keep_vars))
        positions: list[int | None] = []
        j = 0
        for i in range(self.ring.nvars):
            if i in idxs:
                positions.append(None)
            else:
                positions.append(j)
                j += 1
        kept = [
            map_variables(g, sub, positions)
            for g in basis
            if all(all(e[i] == 0 for i in idxs) for e in g.terms)
        ]
        out = Ideal(sub, kept)
        out._gb_cache[GREVLEX] = GroebnerBasis(sub, GREVLEX, out.gens)
        return out


def _monomial_ideal(ring: PolyRing, exps) -> Ideal:
    """The ideal of the minimal monomials among ``exps``, listed as its
    reduced grevlex basis, which it holds."""
    out = Ideal(ring, [ring.monomial(e) for e in sorted(
        minimal_exponents(exps), key=GREVLEX.key, reverse=True)])
    out._gb_cache[GREVLEX] = GroebnerBasis(ring, GREVLEX, out.gens)
    return out


def _poly_sort_key(g: Polynomial):
    return sorted(g.terms.items(), reverse=True)


def independent_sets(exps, nvars: int, all_sets: bool = True):
    """Largest variable subsets meeting the support of no exponent tuple.

    Returns (size, sets); with all_sets False only the first witness of
    the maximal size is kept.  For the minimal generators of a leading-term
    ideal the size is the dimension of the quotient.  A variable with a
    pure power among the tuples lies in no such set, so it is left out.
    Such a set misses a variable of every support, so k pairwise-disjoint
    supports among the other variables bound its size by len(free) - k.
    """
    supports = [frozenset(i for i, e in enumerate(x) if e) for x in exps]
    taken = {i for s in supports if len(s) == 1 for i in s}
    free = [i for i in range(nvars) if i not in taken]
    bound = len(free)
    for sup in supports:
        if taken.isdisjoint(sup):
            taken |= sup
            bound -= 1
    for size in range(bound, -1, -1):
        found = []
        for combo in itertools.combinations(free, size):
            s = set(combo)
            if not any(sup <= s for sup in supports):
                found.append(frozenset(combo))
                if not all_sets:
                    return size, found
        if found:
            return size, found
    raise AssertionError("unreachable for a proper ideal")


def maximum_independent_sets(ideal: Ideal) -> tuple[int, list[frozenset]]:
    """All maximum independent variable sets of the leading-term ideal."""
    if ideal.is_unit():
        raise UnitIdealError("the unit ideal has no independent sets")
    return independent_sets(ideal.groebner_basis().leading_term_exponents(),
                            ideal.ring.nvars)


def coordinate_prime(ring: PolyRing, names) -> Ideal:
    """The prime generated by a set of variables."""
    return Ideal(ring, [ring.variable(n) for n in names])
