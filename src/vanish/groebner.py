"""Multivariate division and Buchberger's algorithm.

Division has one loop, in ``_Divisors``, the one owner of the reducer's
working form.  Monomials are the packed ints of :mod:`vanish.orders`: a
heap of -K ints orders the pending terms, the guard bits of an E
difference test divisibility, and a multiple of a divisor term costs two
integer additions.  Coefficients are (numerator, denominator) pairs in
lowest terms over QQ, stepped by Henrici's gcd steps as ``Fraction``
does, and ints reduced mod p inline over GF(p).  Divisors are packed
once, at a width that only grows: an overflow repacks them at twice the
width and starts the division over.  :func:`divmod_poly` and
:func:`normal_form` build a ``_Divisors`` per call, a :class:`GroebnerBasis`
one for its life, and :func:`buchberger` one for its basis, in which an
S-pair starts as x^(L - lt g_i) g_i with its first step forced onto g_j.

The basis returned by :func:`buchberger` is always the reduced one:
monic elements, leading monomials forming an antichain under
divisibility, no term of any element divisible by another element's
leading monomial, sorted with the largest leading monomial first.  A
reduced basis is unique for a given ideal and order, which is what makes
ideal equality decidable by comparing bases.  When every generator is a
monomial that basis is the minimal generators, read off the exponent
tuples with no S-polynomial formed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

from .config import term_cap
from .errors import TermCapExceededError
from .orders import GREVLEX, MonomialOrder
from .poly import (
    Polynomial,
    PolyRing,
    minimal_exponents,
    monomial_div,
    monomial_divides,
    monomial_lcm,
)


def _working(fld, c):
    """c in the reducer's working form: a (numerator, denominator) pair in
    lowest terms over QQ, the int itself over GF(p)."""
    return c if fld.p else (c.numerator, c.denominator)


class _Divisors:
    """Divisors in working form: ``data`` has (index, K, E, 1/lc or None
    when lc is 1, [(K, E, coeff) of the tail]) for each nonzero divisor,
    all at ``packing``, whose width only grows."""

    def __init__(self, ring: PolyRing, order: MonomialOrder, divisors=()):
        self.ring, self.order, self.polys = ring, order, list(divisors)
        ring.check(*self.polys)
        self._repack(0)

    def _repack(self, bound):
        # the narrowest packing that holds bound and every divisor
        bound = max([bound, *(max(m) for d in self.polys for m in d.terms)])
        self.packing = self.order.packing(self.ring.nvars, bound)
        self.data = [self._pack(i, d) for i, d in enumerate(self.polys) if d]

    def _pack(self, i, d):
        fld, pack = self.ring.field, self.packing.pack
        le = d.leading_exps(self.order)
        lc = d.terms[le]
        return (i, *pack(le), None if lc == fld.one() else fld.inv(lc),
                [(*pack(m), _working(fld, c)) for m, c in d.terms.items() if m != le])

    def add(self, d: Polynomial):
        """Append a nonzero divisor that fits the packing, as a remainder of
        this reducer does: every term it holds passed the overflow checks."""
        self.polys.append(d)
        self.data.append(self._pack(len(self.polys) - 1, d))

    def reduce(self, f: Polynomial, with_quotients=False):
        """(quotients or None, remainder) of f on division by the divisors,
        each step using the first that divides."""
        self.ring.check(f)
        fld = self.ring.field
        return self._divide(lambda: [(*self.packing.pack(m), _working(fld, c))
                                     for m, c in f.terms.items()], None, with_quotients)

    def pair(self, i: int, j: int, lcm: tuple[int, ...]) -> Polynomial:
        """The remainder of spoly(g_i, g_j), for monic divisors with no
        zero divisor before them: the pending terms start as
        x^(lcm - lt g_i) g_i, and the first step takes g_j."""
        def start():
            k, e = self.packing.pack(lcm)
            _, ki, ei, _, tail = self.data[i]
            pending = [(tk + k - ki, te + e - ei, c) for tk, te, c in tail]
            if any(te & self.packing.guard for _, te, _ in pending):
                raise OverflowError     # K is one-to-one only below the limit
            return [(k, e, 1 if self.ring.field.p else (1, 1)), *pending]
        return self._divide(start, j)[1]

    def _divide(self, start, first=None, with_quotients=False):
        """Divide the pending [(K, E, coeff)] terms that ``start`` packs;
        the first step takes divisor ``first`` when given.  An overflow, in
        ``start`` or in a product, widens the packing and starts over."""
        try:
            return self._steps(start(), first, with_quotients)
        except OverflowError:
            self._repack(self.packing.limit)
            return self._divide(start, first, with_quotients)

    def _steps(self, pending, first, with_quotients):
        fld = self.ring.field
        mod = fld.p
        heappush, heappop = heapq.heappush, heapq.heappop
        cap = term_cap()
        guard = self.packing.guard
        back = (lambda c: c) if mod else (lambda c: Fraction(*c))
        p = {k: c for k, _, c in pending}        # K -> coefficient of the pending terms
        exps = {k: e for k, e, _ in pending}     # K -> E
        data = self.data
        scan = data if first is None else [data[first]]
        quotients = [{} for _ in self.polys]
        heap = [-k for k in p]
        heapq.heapify(heap)
        remainder: dict = {}
        while heap:
            k = -heappop(heap)
            lc = p.pop(k, None)
            if lc is None:
                continue        # stale: the term cancelled after it was pushed
            e = exps[k]
            for i, dk, de, inv, tail in scan:
                if (e - de) & guard:
                    continue
                shift_k, shift_e = k - dk, e - de
                factor = lc if inv is None else _working(fld, fld.mul(back(lc), inv))
                if with_quotients:
                    quotients[i][shift_e] = factor
                # p -= factor * x^shift * d; the leading term cancels lt.  K
                # is one-to-one only below the limit, so every product is
                # checked before its K is looked up
                factor = -factor if mod else (-factor[0], factor[1])
                for tk, te, c in tail:
                    me = te + shift_e
                    if me & guard:
                        raise OverflowError
                    m = tk + shift_k
                    old = p.get(m)
                    if mod:
                        v = (factor * c if old is None else old + factor * c) % mod
                    else:
                        # the steps of Fraction's __mul__ and __add__
                        (n, d), (cn, cd) = factor, c
                        g1, g2 = gcd(n, cd), gcd(cn, d)
                        n, d = n // g1 * (cn // g2), d // g2 * (cd // g1)
                        if old is not None:
                            on, od = old
                            g = gcd(od, d)
                            s = od // g
                            t = on * (d // g) + n * s
                            g = gcd(t, g)
                            n, d = t // g, s * (d // g)
                        v = (n, d) if n else 0
                    if old is None:
                        p[m] = v
                        exps[m] = me
                        heappush(heap, -m)
                    elif v:
                        p[m] = v
                    else:
                        del p[m]
                break
            else:
                remainder[e] = lc
            scan = data
            if len(p) > cap:
                raise TermCapExceededError(
                    f"reduction intermediate exceeds the term cap ({cap}); "
                    "set VANISH_TERM_CAP to raise it")
        unpack, ring = self.packing.unpack, self.ring
        return ([Polynomial(ring, {unpack(e): back(c) for e, c in q.items()}) for q in quotients]
                if with_quotients else None,
                Polynomial(ring, {unpack(e): back(c) for e, c in remainder.items()}))


def divmod_poly(f: Polynomial, divisors, order: MonomialOrder = GREVLEX):
    """Divide f by an ordered list of divisors: f = sum(q_i d_i) + r.

    No term of the remainder is divisible by any divisor's leading
    monomial; zero divisors get zero quotients.
    """
    return _Divisors(f.ring, order, divisors).reduce(f, with_quotients=True)


def normal_form(f: Polynomial, basis, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of f on division by the basis (quotients not tracked)."""
    return _Divisors(f.ring, order, basis).reduce(f)[1]


def spoly(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """S-polynomial x^(L - lt f) f/lc(f) - x^(L - lt g) g/lc(g), where L
    is the lcm of the leading monomials, which cancel."""
    ef, eg = f.leading_exps(order), g.leading_exps(order)
    l = monomial_lcm(ef, eg)
    ring = f.ring
    return (ring.monomial(monomial_div(l, ef)) * f.monic(order)
            - ring.monomial(monomial_div(l, eg)) * g.monic(order))


def buchberger(ring: PolyRing, gens, order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Pair selection follows the normal strategy (smallest lcm first): the
    pair queue is a heap keyed once per pair, at the reducer's packing, by
    the packed K of its lcm, ties broken by ``(i, j)``.  Pairs with coprime
    leading monomials are discarded outright, and the chain criterion drops
    a pair when a third basis element divides its lcm and both side pairs
    are already handled.
    """
    G = [g for g in gens if not g.is_zero()]
    ring.check(*G)
    if all(g.is_monomial() for g in G):
        # a monomial ideal's reduced basis is its minimal generators
        exps = minimal_exponents(e for g in G for e in g.terms)
        return [Polynomial(ring, {e: ring.field.one()})
                for e in sorted(exps, key=order.key, reverse=True)]
    G = [g.monic(order) for g in G]
    if any(g.is_constant() for g in G):
        return [ring.one()]
    lead = [g.leading_exps(order) for g in G]
    divisors = _Divisors(ring, order, G)
    packing = divisors.packing      # the packing the queue is keyed at
    queue = []      # heap of (K(lcm), (i, j), E(lcm))
    pairs = set()   # the pending pairs, as the chain criterion reads them

    def keyed(k, t):
        kl, el = divisors.packing.pack(monomial_lcm(lead[k], lead[t]))
        return kl, (k, t), el

    def add_pairs(t):
        for k in range(t):
            heapq.heappush(queue, keyed(k, t))
            pairs.add((k, t))

    for t in range(len(G)):
        add_pairs(t)
    while queue:
        if divisors.packing is not packing:
            # the reducer widened: re-key the queue; the pairs keep their order
            packing = divisors.packing
            queue = [keyed(k, t) for _, (k, t), _ in queue]
            heapq.heapify(queue)
        _, (i, j), l = heapq.heappop(queue)
        pairs.discard((i, j))
        data = divisors.data
        if l == data[i][2] + data[j][2]:
            continue        # coprime leading monomials
        if any(
            not (l - e) & packing.guard and k != i and k != j
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, _, e, _, _ in data
        ):
            continue
        r = divisors.pair(i, j, monomial_lcm(lead[i], lead[j]))
        if r.is_zero():
            continue
        if r.is_constant():
            return [ring.one()]
        r = r.monic(order)
        lead.append(r.leading_exps(order))
        divisors.add(r)
        add_pairs(len(lead) - 1)

    # interreduction keeps each leading monomial, so the order stays
    return _interreduce(_minimalize(divisors.polys, lead, order), divisors)[::-1]


def _minimalize(G, lead, order):
    """The first element of G for each minimal leading monomial, smallest
    first; ``lead[i]`` is the leading monomial of G[i]."""
    first: dict = {}
    for g, le in zip(G, lead):
        first.setdefault(le, g)
    return [first[e] for e in sorted(minimal_exponents(first), key=order.key)]


def _interreduce(M, divisors):
    """The reduced basis, in one pass, from a monic minimal basis M and
    the reducer of a Groebner basis of the same ideal.

    Each g becomes lt(g) plus the normal form of its tail.  No tail term
    is divisible by lt(g), which exceeds it, so lt(g) stays leading; and a
    normal form modulo a Groebner basis is unique, whichever basis of the
    ideal divides, so this is the one element of the ideal with leading
    monomial lt(g) and every other term irreducible.
    """
    out = []
    for g in M:
        lt = g.ring.monomial(g.leading_exps(divisors.order))
        out.append(lt + divisors.reduce(g - lt)[1])
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced basis together with its ring and order."""

    ring: PolyRing
    order: MonomialOrder
    polys: tuple[Polynomial, ...]

    @cached_property
    def _divisors(self) -> _Divisors:
        # kept out of the fields: equality, hashing and pickling ignore it
        return _Divisors(self.ring, self.order, self.polys)

    def __getstate__(self):
        return {"ring": self.ring, "order": self.order, "polys": self.polys}

    def reduce(self, f: Polynomial) -> Polynomial:
        return self._divisors.reduce(f)[1]

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def leading_term_exponents(self) -> list[tuple[int, ...]]:
        """Minimal generating exponents of the leading-term ideal, largest first."""
        exps = [g.leading_exps(self.order) for g in self.polys if not g.is_zero()]
        return sorted(minimal_exponents(exps), key=self.order.key, reverse=True)

    def check_certificate(self) -> bool:
        """Buchberger's criterion, on :func:`spoly`'s route rather than the
        S-pair set-up of :func:`buchberger`: every S-polynomial reduces to 0."""
        return all(self.reduce(spoly(f, g, self.order)).is_zero()
                   for f, g in combinations(self.polys, 2))

    def is_reduced(self) -> bool:
        one = self.ring.field.one()
        for i, g in enumerate(self.polys):
            if g.is_zero() or g.leading_coefficient(self.order) != one:
                return False
            others = [h.leading_exps(self.order)
                      for k, h in enumerate(self.polys) if k != i]
            for e in g.terms:
                if any(monomial_divides(le, e) for le in others):
                    return False
        return True

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)
