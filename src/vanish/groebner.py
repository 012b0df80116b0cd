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
S-pair starts as x^(L - lt g_i) g_i with its first step forced onto g_j
and its remainder, made monic, stays there in working form as the next
element; only the final basis is built as polynomials.

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
        divisors = list(divisors)
        ring.check(*divisors)
        self.ring, self.order, self.count = ring, order, len(divisors)
        fld, one = ring.field, ring.field.one()
        self._one = _working(fld, one)
        self._back = (lambda c: c) if fld.p else (lambda c: Fraction(*c))
        self.packing = order.packing(ring.nvars, max([0, *(
            max(m) for d in divisors for m in d.terms)]))
        pack = self.packing.pack
        self.data = []
        for i, d in enumerate(divisors):
            if d:
                le = d.leading_exps(order)
                lc = d.terms[le]
                self.data.append((i, *pack(le), None if lc == one else fld.inv(lc),
                                  [(*pack(m), _working(fld, c))
                                   for m, c in d.terms.items() if m != le]))

    def _repack(self, bound):
        """Move every divisor to the narrowest packing that holds ``bound``."""
        old = self.packing
        new = self.packing = self.order.packing(self.ring.nvars, bound)
        move = lambda e: new.pack(old.unpack(e))     # noqa: E731
        self.data = [(i, *move(e), inv, [(*move(te), c) for _, te, c in tail])
                     for i, _, e, inv, tail in self.data]

    def _poly(self, terms) -> Polynomial:
        """The Polynomial of [(E, working coefficient)] terms."""
        unpack, back = self.packing.unpack, self._back
        return Polynomial(self.ring, {unpack(e): back(c) for e, c in terms})

    def reduced(self, i: int) -> Polynomial:
        """Monic divisor i, with no zero divisor before it, as lt(g_i) plus
        the normal form of its tail.  For a Groebner basis and a minimal
        lt(g_i) this is the reduced basis's element: lt(g_i) divides no
        tail term, each being smaller, and a normal form modulo a Groebner
        basis is unique, whichever basis of the ideal divides."""
        remainder = self._divide(lambda: self.data[i][4])[1]
        return self._poly([(self.data[i][2], self._one), *((e, c) for _, e, c in remainder)])

    def reduce(self, f: Polynomial, with_quotients=False):
        """(quotients or None, remainder) of f on division by the divisors,
        each step using the first that divides."""
        self.ring.check(f)
        fld = self.ring.field
        quotients, remainder = self._divide(
            lambda: [(*self.packing.pack(m), _working(fld, c)) for m, c in f.terms.items()],
            None, with_quotients)
        return ([self._poly(q.items()) for q in quotients] if with_quotients else None,
                self._poly((e, c) for _, e, c in remainder))

    def pair(self, i: int, j: int, lcm: tuple[int, ...]) -> bool:
        """Reduce spoly(g_i, g_j), for monic divisors with no zero divisor
        before them: the pending terms start as x^(lcm - lt g_i) g_i, and
        the first step takes g_j.  A nonzero remainder is made monic and
        appended as divisor ``count``, still in working form; True when
        one was."""
        def start():
            k, e = self.packing.pack(lcm)
            _, ki, ei, _, tail = self.data[i]
            pending = [(tk + k - ki, te + e - ei, c) for tk, te, c in tail]
            if any(te & self.packing.guard for _, te, _ in pending):
                raise OverflowError     # K is one-to-one only below the limit
            return [(k, e, self._one), *pending]
        remainder = self._divide(start, j)[1]
        if not remainder:
            return False
        (k, e, lc), *tail = remainder
        fld, back = self.ring.field, self._back
        if lc != self._one:
            inv = fld.inv(back(lc))
            tail = [(tk, te, _working(fld, fld.mul(back(c), inv))) for tk, te, c in tail]
        self.data.append((self.count, k, e, None, tail))
        self.count += 1
        return True

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
        """(quotients as {E: coeff} per divisor or None, the remainder as
        [(K, E, coeff)] with K decreasing), all in working form."""
        fld = self.ring.field
        mod = fld.p
        heappush, heappop = heapq.heappush, heapq.heappop
        cap = term_cap()
        guard = self.packing.guard
        back = self._back
        p = {k: c for k, _, c in pending}        # K -> coefficient of the pending terms
        exps = {k: e for k, e, _ in pending}     # K -> E
        data = self.data
        scan = data if first is None else [data[first]]
        quotients = [{} for _ in range(self.count)] if with_quotients else None
        heap = [-k for k in p]
        heapq.heapify(heap)
        remainder = []
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
                remainder.append((k, e, lc))
            scan = data
            if len(p) > cap:
                raise TermCapExceededError(
                    f"reduction intermediate exceeds the term cap ({cap}); "
                    "set VANISH_TERM_CAP to raise it")
        return quotients, remainder


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

    Pairs leave the queue by sugar (Giovini, Mora, Niesi, Robbiano and
    Traverso, 1991), then K(lcm), then (i, j).  A generator's sugar is its
    degree, a new element's the larger of its degree and its pair's sugar,
    and a pair's is deg lcm plus the larger excess of its elements' sugar
    over their leading degree.  Each new element h runs the Gebauer-Moeller
    update (1988) once, on the packed Es of the leading monomials: it drops
    a new pair (i, h) whose lcm another new lcm properly divides (M), or
    an earlier one equals (F), or equals a coprime one's; a queued pair
    (i, j) whose lcm lt h divides and neither lcm(lt g_i, lt h) nor
    lcm(lt g_j, lt h) equals (B), unless h's excess passes the pair's,
    so that no pair is traded for ones of higher sugar; and it takes the
    elements whose leading monomial lt h divides out of the pairing, not
    out of the reducer.
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
    divisors = _Divisors(ring, order, G)
    lead = [g.leading_exps(order) for g in G]
    excess = [g.total_degree() - sum(le) for g, le in zip(G, lead)]    # sugar - deg lt
    active = []     # the elements whose leading monomial no later one divides
    queue = []      # heap of (sugar, K(lcm), i, j, E(lcm), lcm)

    def keyed(sugar, i, j, lcm):
        k, e = divisors.packing.pack(lcm)
        return sugar, k, i, j, e, lcm

    def update(h):
        packing, data = divisors.packing, divisors.data
        guard, lcm_e, eh = packing.guard, packing.lcm, data[h][2]
        left = [q for q in queue if (q[4] - eh) & guard
                or lcm_e(data[q[2]][2], eh) == q[4] or lcm_e(data[q[3]][2], eh) == q[4]
                or excess[h] > max(excess[q[2]], excess[q[3]])]
        if len(left) < len(queue):
            queue[:] = left
            heapq.heapify(queue)
        news = [lcm_e(data[i][2], eh) for i in active]      # E of lcm(lt g_i, lt h)
        kept = {}       # E(lcm) -> (the first i with it, whether one is coprime)
        for i, l in zip(active, news):
            if not any(m != l and not (l - m) & guard for m in news):
                first, coprime = kept.get(l, (i, False))
                kept[l] = first, coprime or l == data[i][2] + eh
        for i, coprime in kept.values():
            if not coprime:
                lcm = monomial_lcm(lead[i], lead[h])
                heapq.heappush(queue, keyed(max(excess[i], excess[h]) + sum(lcm), i, h, lcm))
        active[:] = [i for i in active if (data[i][2] - eh) & guard] + [h]

    for h in range(len(G)):
        update(h)
    while queue:
        packing = divisors.packing
        sugar, _, i, j, _, lcm = heapq.heappop(queue)
        added = divisors.pair(i, j, lcm)
        if divisors.packing is not packing:
            # the reducer widened: re-key the queue; the pairs keep their order
            queue[:] = [keyed(q[0], q[2], q[3], q[5]) for q in queue]
            heapq.heapify(queue)
        if added:
            _, _, e, _, tail = divisors.data[-1]
            if not e:
                return [ring.one()]
            unpack = divisors.packing.unpack
            lead.append(unpack(e))
            # the new element's degree, which in an order that does not rank
            # degree first may pass the pair's sugar, bounds its sugar below
            sugar = max(sugar, sum(lead[-1]), *(sum(unpack(te)) for _, te, _ in tail))
            excess.append(sugar - sum(lead[-1]))
            update(len(lead) - 1)

    # the active leading monomials include every minimal one, once each
    first = {lead[i]: i for i in active}
    return [divisors.reduced(first[e])
            for e in sorted(minimal_exponents(first), key=order.key, reverse=True)]


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

    @classmethod
    def from_minimal(cls, ring: PolyRing, order: MonomialOrder, basis) -> "GroebnerBasis":
        """The reduced basis, in one interreduction pass, from a monic
        Groebner basis whose leading monomials form an antichain; each
        element keeps its leading monomial and its place."""
        divisors = _Divisors(ring, order, basis)
        return cls(ring, order, tuple(divisors.reduced(i) for i in range(len(basis))))

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
