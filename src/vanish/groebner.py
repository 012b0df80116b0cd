"""Multivariate division and Buchberger's algorithm.

Division has one loop, ``_reduce``, behind both :func:`divmod_poly` and
:func:`normal_form`.  It keeps the pending terms in a dict beside a heap
keyed by ``order.desc_key``, so each term is keyed once, when it enters.

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
    monomial_mul,
)


def _sub_scaled(p: dict, g: dict, coeff, shift, fld):
    """p -= coeff * x^shift * g, mutating p."""
    for e, c in g.items():
        key = monomial_mul(e, shift)
        v = fld.sub(p.get(key, fld.zero()), fld.mul(coeff, c))
        if v:
            p[key] = v
        else:
            p.pop(key, None)


def _reduce(f: Polynomial, divisors, order: MonomialOrder, quotients=None) -> dict:
    """Remainder terms of f on division by the divisors, each step using
    the first that divides; quotient terms go to ``quotients[i]`` if given."""
    fld = f.ring.field
    cap = term_cap()
    dkey = order.desc_key
    div_data = []
    for d in divisors:
        if d.is_zero():
            div_data.append(None)   # keep indices aligned with the input
        else:
            le = d.leading_exps(order)
            div_data.append((le, fld.inv(d.terms[le]), d.terms))
    p = dict(f.terms)
    heap = [(dkey(m), m) for m in p]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        lt = heapq.heappop(heap)[1]
        lc = p.pop(lt, None)
        if lc is None:
            continue        # stale: the term cancelled after it was pushed
        for i, data in enumerate(div_data):
            if data is None or not monomial_divides(data[0], lt):
                continue
            le, lc_inv, dterms = data
            shift = monomial_div(lt, le)
            factor = fld.mul(lc, lc_inv)
            if quotients is not None:
                quotients[i][shift] = factor
            # p -= factor * x^shift * d; the leading term cancels lt
            for e, c in dterms.items():
                if e == le:
                    continue
                m = monomial_mul(e, shift)
                v = fld.mul(factor, c)
                if m in p:
                    v = fld.sub(p[m], v)
                else:
                    v = fld.neg(v)
                    heapq.heappush(heap, (dkey(m), m))
                if v:
                    p[m] = v
                else:
                    del p[m]
            break
        else:
            remainder[lt] = lc
        if len(p) > cap:
            raise TermCapExceededError(
                f"reduction intermediate exceeds the term cap ({cap}); "
                "set VANISH_TERM_CAP to raise it")
    return remainder


def divmod_poly(f: Polynomial, divisors, order: MonomialOrder = GREVLEX):
    """Divide f by an ordered list of divisors: f = sum(q_i d_i) + r.

    No term of the remainder is divisible by any divisor's leading
    monomial; zero divisors get zero quotients.
    """
    quotients: list[dict] = [{} for _ in divisors]
    remainder = _reduce(f, divisors, order, quotients)
    return [Polynomial(f.ring, q) for q in quotients], Polynomial(f.ring, remainder)


def normal_form(f: Polynomial, basis, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of f on division by the basis (quotients not tracked)."""
    return Polynomial(f.ring, _reduce(f, basis, order))


def spoly(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """S-polynomial: the leading terms are scaled to the lcm and cancelled."""
    fld = f.ring.field
    ef = f.leading_exps(order)
    eg = g.leading_exps(order)
    l = monomial_lcm(ef, eg)
    p: dict = {}
    _sub_scaled(p, f.terms, fld.neg(fld.inv(f.terms[ef])), monomial_div(l, ef), fld)
    _sub_scaled(p, g.terms, fld.inv(g.terms[eg]), monomial_div(l, eg), fld)
    return Polynomial(f.ring, p)


def buchberger(ring: PolyRing, gens, order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Pair selection follows the normal strategy (smallest lcm first): the
    pair queue is a heap keyed once per pair by the order key of its lcm,
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
    key = order.key
    queue = []      # heap of (key(lcm), (i, j), lcm)
    pairs = set()   # the pending pairs, as the chain criterion reads them

    def add_pairs(t):
        for k in range(t):
            l = monomial_lcm(lead[k], lead[t])
            heapq.heappush(queue, (key(l), (k, t), l))
            pairs.add((k, t))

    for t in range(len(G)):
        add_pairs(t)
    while queue:
        _, (i, j), l = heapq.heappop(queue)
        pairs.discard((i, j))
        if l == monomial_mul(lead[i], lead[j]):
            continue
        if any(
            k != i and k != j
            and monomial_divides(lead[k], l)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(G))
        ):
            continue
        r = normal_form(spoly(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        if r.is_constant():
            return [ring.one()]
        r = r.monic(order)
        G.append(r)
        lead.append(r.leading_exps(order))
        add_pairs(len(G) - 1)

    G = _interreduce(_minimalize(G, lead, order), order)
    G.sort(key=lambda g: key(g.leading_exps(order)), reverse=True)
    return G


def _minimalize(G, lead, order):
    """The first element of G for each minimal leading monomial, smallest
    first; ``lead[i]`` is the leading monomial of G[i]."""
    first: dict = {}
    for g, le in zip(G, lead):
        first.setdefault(le, g)
    return [first[e] for e in sorted(minimal_exponents(first), key=order.key)]


def _interreduce(G, order):
    changed = True
    while changed:
        changed = False
        for i in range(len(G)):
            others = G[:i] + G[i + 1:]
            r = normal_form(G[i], others, order).monic(order)
            if r != G[i]:
                G[i] = r
                changed = True
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
