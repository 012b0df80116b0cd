"""Multivariate division and Buchberger's algorithm.

Division has one loop, ``_reduce``, behind both :func:`divmod_poly` and
:func:`normal_form`.  It works on the packed monomials of
:mod:`vanish.orders`: a heap of -K ints orders the pending terms, the
guard bits of an E difference test divisibility, and a multiple of a
divisor term costs two integer additions.  Coefficients, like monomials,
run in a working form there: over QQ a (numerator, denominator) pair in
lowest terms, added and multiplied by Henrici's gcd steps, as
``Fraction`` does, and over GF(p) an int reduced mod p inline.  Divisors
cache their packed terms.  An overflow starts the division over at twice
the field width.

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
from math import gcd

from .config import term_cap
from .errors import TermCapExceededError
from .orders import GREVLEX, MonomialOrder, Packing
from .poly import (
    Polynomial,
    PolyRing,
    minimal_exponents,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


def _working(fld, c):
    """c in _reduce's working form: a (numerator, denominator) pair in
    lowest terms over QQ, the int itself over GF(p)."""
    return c if fld.p else (c.numerator, c.denominator)


def _packed_divisor(d: Polynomial, order: MonomialOrder, packing: Packing):
    """(K, E, 1/lc or None when lc is 1, [(K, E, coeff in working form) of
    the tail]) of a nonzero divisor, cached on it per packing."""
    if d._packed is not None and d._packed[1] is packing:
        return d._packed[2]
    le = d.leading_exps(order)
    lc = d.terms[le]
    fld = d.ring.field
    data = (*packing.pack(le), None if lc == fld.one() else fld.inv(lc),
            [(*packing.pack(m), _working(fld, c)) for m, c in d.terms.items() if m != le])
    d._packed = (order, packing, data)
    return data


def _reduce(f: Polynomial, divisors, order: MonomialOrder, with_quotients=False, bound=0):
    """(remainder, quotients) of f on division by the divisors, each step
    using the first that divides; quotients is None unless asked for.

    The packing is the narrowest that holds ``bound``, every exponent of
    the inputs and the divisors' cached packings of this order, so a width
    that overflowed once stays; a product past its limit starts the call
    over at twice the width."""
    packing = order.packing(f.ring.nvars, max(bound, f.max_exponent(), *(
        d._packed[1].limit - 1 if d._packed is not None and d._packed[0] is order
        else d.max_exponent() for d in divisors)))
    fld = f.ring.field
    mod = fld.p
    heappush, heappop = heapq.heappush, heapq.heappop
    cap = term_cap()
    guard = packing.guard
    back = (lambda c: c) if mod else (lambda c: Fraction(*c))
    packed = [(*packing.pack(m), _working(fld, c)) for m, c in f.terms.items()]
    p = {k: c for k, _, c in packed}        # K -> coefficient of the pending terms
    exps = {k: e for k, e, _ in packed}     # K -> E
    div_data = [(i, _packed_divisor(d, order, packing))
                for i, d in enumerate(divisors) if not d.is_zero()]
    quotients = [{} for _ in divisors]
    heap = [-k for k in p]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        k = -heappop(heap)
        lc = p.pop(k, None)
        if lc is None:
            continue        # stale: the term cancelled after it was pushed
        e = exps[k]
        for i, (dk, de, inv, tail) in div_data:
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
                    return _reduce(f, divisors, order, with_quotients, packing.limit)
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
        if len(p) > cap:
            raise TermCapExceededError(
                f"reduction intermediate exceeds the term cap ({cap}); "
                "set VANISH_TERM_CAP to raise it")
    unpack = packing.unpack
    return ({unpack(e): back(c) for e, c in remainder.items()},
            [{unpack(e): back(c) for e, c in q.items()} for q in quotients]
            if with_quotients else None)


def divmod_poly(f: Polynomial, divisors, order: MonomialOrder = GREVLEX):
    """Divide f by an ordered list of divisors: f = sum(q_i d_i) + r.

    No term of the remainder is divisible by any divisor's leading
    monomial; zero divisors get zero quotients.
    """
    remainder, quotients = _reduce(f, divisors, order, with_quotients=True)
    return [Polynomial(f.ring, q) for q in quotients], Polynomial(f.ring, remainder)


def normal_form(f: Polynomial, basis, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of f on division by the basis (quotients not tracked)."""
    return Polynomial(f.ring, _reduce(f, basis, order)[0])


def spoly(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """S-polynomial: the leading terms are scaled to the lcm and cancelled."""
    fld = f.ring.field
    ef = f.leading_exps(order)
    eg = g.leading_exps(order)
    l = monomial_lcm(ef, eg)
    p: dict = {}
    # p = x^(l-ef) f / lc(f) - x^(l-eg) g / lc(g); the leading terms cancel
    for h, e, c in ((f, ef, fld.inv(f.terms[ef])), (g, eg, fld.neg(fld.inv(g.terms[eg])))):
        shift = monomial_div(l, e)
        for m, hc in h.terms.items():
            m = monomial_mul(m, shift)
            v = fld.mul(c, hc)
            if m in p:
                v = fld.add(p[m], v)
            if v:
                p[m] = v
            else:
                del p[m]
    return Polynomial(f.ring, p)


def buchberger(ring: PolyRing, gens, order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Pair selection follows the normal strategy (smallest lcm first): the
    pair queue is a heap keyed once per pair by the packed K of its lcm,
    ties broken by ``(i, j)``.  Pairs with coprime leading monomials are
    discarded outright, and the chain criterion drops a pair when a third
    basis element divides its lcm and both side pairs are already handled.
    """
    G = [g.monic(order) for g in gens if not g.is_zero()]
    if any(g.is_constant() for g in G):
        return [ring.one()]
    lead = [g.leading_exps(order) for g in G]
    if all(g.is_monomial() for g in G):
        # a monomial ideal's reduced basis is its minimal generators
        return _minimalize(G, lead, order)[::-1]
    packing = order.packing(ring.nvars, max(map(max, lead)))
    queue = []      # heap of (K(lcm), (i, j), E(lcm))
    pairs = set()   # the pending pairs, as the chain criterion reads them

    def pair(k, t):
        kl, el = packing.pack(monomial_lcm(lead[k], lead[t]))
        return kl, (k, t), el

    def add_pairs(t):
        for k in range(t):
            heapq.heappush(queue, pair(k, t))
            pairs.add((k, t))

    lead_e = [packing.pack(le)[1] for le in lead]
    for t in range(len(G)):
        add_pairs(t)
    while queue:
        _, (i, j), l = heapq.heappop(queue)
        pairs.discard((i, j))
        if l == lead_e[i] + lead_e[j]:
            continue        # coprime leading monomials
        if any(
            not (l - e) & packing.guard and k != i and k != j
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, e in enumerate(lead_e)
        ):
            continue
        r = normal_form(spoly(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        if r.is_constant():
            return [ring.one()]
        r = r.monic(order)
        le = r.leading_exps(order)
        G.append(r)
        lead.append(le)
        if max(le) >= packing.limit:
            # repack at a wider field; the pairs keep their order
            packing = order.packing(ring.nvars, max(le))
            lead_e = [packing.pack(e)[1] for e in lead[:-1]]
            queue = [pair(k, t) for _, (k, t), _ in queue]
            heapq.heapify(queue)
        lead_e.append(packing.pack(le)[1])
        add_pairs(len(G) - 1)

    G = _interreduce(_minimalize(G, lead, order), order)
    G.sort(key=lambda g: order.key(g.leading_exps(order)), reverse=True)
    return G


def _minimalize(G, lead, order):
    """The first element of G for each minimal leading monomial, smallest
    first; ``lead[i]`` is the leading monomial of G[i]."""
    first: dict = {}
    for g, le in zip(G, lead):
        first.setdefault(le, g)
    return [first[e] for e in sorted(minimal_exponents(first), key=order.key)]


def _interreduce(G, order):
    """Reduce each element of a minimal basis by the others, in one pass.

    A minimal basis's leading monomials never move, so a tail reduced
    once cannot become reducible when a later element changes.
    """
    for i in range(len(G)):
        G[i] = normal_form(G[i], G[:i] + G[i + 1:], order).monic(order)
    return G


def leading_exponents(polys, order: MonomialOrder = GREVLEX) -> list[tuple[int, ...]]:
    """Minimal generating exponents of the leading-term ideal, largest first."""
    exps = [g.leading_exps(order) for g in polys if not g.is_zero()]
    return sorted(minimal_exponents(exps), key=order.key, reverse=True)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced basis together with its ring and order."""

    ring: PolyRing
    order: MonomialOrder
    polys: tuple[Polynomial, ...]

    def reduce(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.polys, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def leading_term_exponents(self) -> list[tuple[int, ...]]:
        return leading_exponents(self.polys, self.order)

    def check_certificate(self) -> bool:
        """Buchberger's criterion: every S-polynomial reduces to zero."""
        polys = self.polys
        for j in range(len(polys)):
            for i in range(j):
                s = spoly(polys[i], polys[j], self.order)
                if not normal_form(s, polys, self.order).is_zero():
                    return False
        return True

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
