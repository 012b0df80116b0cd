"""Multivariate division and Buchberger's algorithm.

Division has one loop, in ``_Divisors``, the one owner of the reducer's
working form.  Monomials are the packed ints of :mod:`vanish.orders`: a
heap of -K ints orders the pending terms, the guard bits of an E
difference test divisibility, and a multiple of a divisor term costs two
integer additions.  Coefficients are ints, reduced mod p inline over
GF(p).  Over QQ division is fraction-free, as in Collins's primitive
pseudo-remainder (J. ACM 14, 1967): each divisor is kept as its
primitive integer multiple and a division carries one integer scale, so
no step takes a gcd per term, and a ``Fraction`` is built only for each
term of a result.  Divisors are packed once, at a width that only
grows: an overflow repacks them at twice the width and starts the
division over.  :func:`divmod_poly` and :func:`normal_form` build a
``_Divisors`` per call, a :class:`GroebnerBasis` one for its life, and
:func:`buchberger` one for its basis, in which an S-pair starts as
x^(L - lt g_i) g_i with its first step forced onto g_j and its
remainder stays there in working form as the next element, primitive
over QQ and monic over GF(p); only the final basis is built as
polynomials.

The loop picks a divisor by the popped monomial alone, so a remainder is
linear in f: R(f) is the sum of c R(m) over the terms c m of f.  The
reducer a :class:`GroebnerBasis` holds keeps a table m -> R(m), the reuse
F4's *Simplify* makes of earlier reductions (Faugere, 1999), and answers
a query with one lookup per term, under three conditions.  The field is
GF(p): over QQ the entries would be fractions, whose arithmetic costs
more than the loop saves.  The basis is zero-dimensional, a pure power
of every variable being a leading monomial, so that each R(m) has at
most dim_k R/I terms; on a positive-dimensional basis the entries grow
with the degree.  The order ranks degree first, so that every monomial
an entry reaches has at most m's degree; in lex a high power reaches
monomials that its degree does not bound.  The table pays only when
queries share monomials, so a basis's first query keeps the loop: a
caller that asks once, as ``vanish member`` does, builds no table.  A
large query on a non-homogeneous basis still pays for every monomial it
reaches, where the loop cancels as it goes.  The terms the table holds
count against the term cap: a query that would pass it drops the table,
and the loop answers that query and every later one, so that the table
fails no query the loop answers.  One-shot reducers keep the loop.

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
from math import gcd, lcm

from .config import term_cap, term_cap_error
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


class _Divisors:
    """Divisors in working form: ``data`` has (index, K, E, s, [(K, E, c)
    of the tail]) for each nonzero divisor, all at ``packing``, whose width
    only grows.  Over QQ a divisor is kept as its primitive integer
    multiple (content 1) and s > 0 is its leading coefficient; over GF(p)
    the coefficients are ints mod p and s is 1/lc, or None when lc is 1.

    A ``held`` reducer over GF(p) in a degree-first order whose leading
    monomials include a pure power of every variable keeps ``table``: the
    E of each monomial m it has reduced -> its remainder R(m) as
    {E: c mod p}, holding ``table_terms`` terms (an empty R(m) counts
    one).  Its first query takes the loop and fills nothing, and a query
    that would take the terms held past the term cap drops the table for
    good.  Elsewhere ``table`` is None."""

    def __init__(self, ring: PolyRing, order: MonomialOrder, divisors=(), held=False):
        divisors = list(divisors)
        ring.check(*divisors)
        self.ring, self.order, self.count = ring, order, len(divisors)
        self.packing = order.packing(ring.nvars, max([0, *(
            max(m) for d in divisors for m in d.terms)]))
        pack = self.packing.pack
        self.data, self.units = [], []      # units[i] = (n, d): data holds divisor i times n/d
        for i, d in enumerate(divisors):
            unit = (1, 1)
            if d:
                le = d.leading_exps(order)
                lc, terms = d.terms[le], d.terms
                if ring.field.p:
                    s = None if lc == 1 else ring.field.inv(lc)
                else:
                    # d times den/g is primitive, den being the lcm of its
                    # denominators and g the gcd of its numerators, signed
                    # like lc: den/g times a numerator over its denominator
                    den = lcm(*(c.denominator for c in terms.values()))
                    g = gcd(*(c.numerator for c in terms.values())) * (1 if lc > 0 else -1)
                    terms = {m: c.numerator // g * (den // c.denominator)
                             for m, c in terms.items()}
                    s, unit = terms[le], (den, g)
                self.data.append((i, *pack(le), s,
                                  [(*pack(m), c) for m, c in terms.items() if m != le]))
            self.units.append(unit)
        self.table = None
        if held and ring.field.p and order.kind in ("grlex", "grevlex"):
            leads = [self.packing.unpack(e) for _, _, e, _, _ in self.data]
            if all(any(sum(le) == le[v] for le in leads) for v in range(ring.nvars)):
                self.table, self.table_terms, self.queried = {}, 0, False

    def _repack(self, bound):
        """Move every divisor to the narrowest packing that holds ``bound``;
        the table, keyed by the old Es, is emptied."""
        old = self.packing
        new = self.packing = self.order.packing(self.ring.nvars, bound)
        move = lambda e: new.pack(old.unpack(e))     # noqa: E731
        self.data = [(i, *move(e), s, [(*move(te), c) for _, te, c in tail])
                     for i, _, e, s, tail in self.data]
        if self.table:
            self.table.clear()
            self.table_terms = 0

    def _poly(self, terms, unit=(1, 1)) -> Polynomial:
        """The Polynomial of [(E, c, S)] terms: c over GF(p), and c n / (S d)
        over QQ, with (n, d) the ``unit``."""
        unpack = self.packing.unpack
        if self.ring.field.p:
            return Polynomial(self.ring, {unpack(e): c for e, c, _ in terms})
        n, d = unit
        return Polynomial(self.ring, {unpack(e): Fraction(c * n, S * d) for e, c, S in terms})

    def reduced(self, i: int) -> Polynomial:
        """Divisor i made monic, with no zero divisor before it and monic
        already over GF(p), as lt(g_i) plus the normal form of its tail.
        For a Groebner basis and a minimal lt(g_i) this is the reduced
        basis's element: lt(g_i) divides no tail term, each being smaller,
        and a normal form modulo a Groebner basis is unique, whichever
        basis of the ideal divides."""
        remainder = self._widening(lambda: self._steps(self.data[i][4], 1, None, False))[1]
        _, _, e, s, _ = self.data[i]
        s = 1 if self.ring.field.p else s       # the tail over QQ is s times g_i's
        return self._poly([(e, 1, 1), *((te, c, S * s) for _, te, c, S in remainder)])

    def reduce(self, f: Polynomial, with_quotients=False):
        """(quotients or None, remainder) of f on division by the divisors,
        each step using the first that divides.  Over QQ, f enters as its
        multiple over the lcm of its denominators."""
        self.ring.check(f)
        if self.table is not None and not with_quotients:
            if self.queried:
                try:
                    return None, self._widening(lambda: self._tabled(f))
                except TermCapExceededError:
                    # the loop answers, and raises if its own terms pass the cap
                    self.table = None
            self.queried = True
        scale, terms = 1, f.terms
        if not self.ring.field.p:
            scale = lcm(*(c.denominator for c in terms.values()))
            terms = {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}
        quotients, remainder = self._widening(lambda: self._steps(
            [(*self.packing.pack(m), c) for m, c in terms.items()],
            scale, None, with_quotients))
        return ([self._poly(((e, *q) for e, q in qs.items()), u)
                 for qs, u in zip(quotients, self.units)] if with_quotients else None,
                self._poly((e, c, S) for _, e, c, S in remainder))

    def _tabled(self, f: Polynomial) -> Polynomial:
        """f's remainder as the sum of c R(m) over its terms, taken mod p.

        R(m) is m when no divisor divides it, else the sum of
        -s c R(x^shift t) over the tail terms c t of the first divisor that
        does; a missing entry is built with an explicit stack, once all its
        children are in the table.  When the terms held pass the term cap,
        the reducer's error is raised."""
        mod, table, cap = self.ring.field.p, self.table, term_cap()
        guard, data, pack = self.packing.guard, self.data, self.packing.pack

        def fill(e):
            stack = [[e, None]]     # [E, children [(E, c)] once made]
            while stack:
                frame = stack[-1]
                me, kids = frame
                if kids is None:
                    if me in table:
                        stack.pop()
                        continue
                    for _, _, de, s, tail in data:
                        if not (me - de) & guard:
                            shift, factor = me - de, mod - (1 if s is None else s)
                            kids = frame[1] = [(te + shift, tc * factor) for _, te, tc in tail]
                            break
                    if kids is not None:
                        if any(k & guard for k, _ in kids):
                            raise OverflowError
                        missing = [[k, None] for k, _ in kids if k not in table]
                        if missing:
                            stack += missing
                            continue
                stack.pop()
                if kids is None:
                    entry = {me: 1}     # no divisor divides m
                else:
                    sums = {}
                    for k, kc in kids:
                        for be, v in table[k].items():
                            sums[be] = sums.get(be, 0) + kc * v
                    entry = {be: v % mod for be, v in sums.items() if v % mod}
                table[me] = entry
                self.table_terms += len(entry) or 1
                if self.table_terms > cap:
                    raise term_cap_error("reduction intermediate exceeds", cap)
            return table[e]

        total = {}
        for m, c in f.terms.items():
            e = pack(m)[1]
            entry = table.get(e)
            for be, v in (fill(e) if entry is None else entry).items():
                total[be] = total.get(be, 0) + c * v
        unpack = self.packing.unpack
        return Polynomial(self.ring, {unpack(e): v % mod for e, v in total.items() if v % mod})

    def pair(self, i: int, j: int, lcm: tuple[int, ...]) -> bool:
        """Reduce spoly(g_i, g_j), for divisors with no zero divisor before
        them and, over GF(p), monic: the pending terms start as
        x^(lcm - lt g_i) g_i, and the first step takes g_j.  A nonzero
        remainder, made primitive over QQ and monic over GF(p), is appended
        as divisor ``count``; True when one was."""
        mod = self.ring.field.p

        def start():
            k, e = self.packing.pack(lcm)
            _, ki, ei, s, tail = self.data[i]
            pending = [(tk + k - ki, te + e - ei, c) for tk, te, c in tail]
            if any(te & self.packing.guard for _, te, _ in pending):
                raise OverflowError     # K is one-to-one only below the limit
            return [(k, e, 1 if mod else s), *pending]
        remainder = self._widening(lambda: self._steps(start(), 1, j, False))[1]
        if not remainder:
            return False
        if mod:
            (k, e, lc, _), *rest = remainder
            inv = pow(lc, -1, mod)
            s, tail = None, [(tk, te, c * inv % mod) for tk, te, c, _ in rest]
        else:
            # over the last term's scale, which every earlier one divides
            top = remainder[-1][3]
            nums = [c * (top // S) for _, _, c, S in remainder]
            g = gcd(*nums) if nums[0] > 0 else -gcd(*nums)
            (k, e, _, _), s = remainder[0], nums[0] // g
            tail = [(tk, te, c // g) for (tk, te, _, _), c in zip(remainder[1:], nums[1:])]
        self.data.append((self.count, k, e, s, tail))
        self.count += 1
        return True

    def _widening(self, run):
        """run()'s value.  An overflow of a packed monomial, as terms are
        packed or multiplied, widens the packing and runs it again."""
        while True:
            try:
                return run()
            except OverflowError:
                self._repack(self.packing.limit)

    def _steps(self, pending, scale, first, with_quotients):
        """Divide the ``pending`` [(K, E, c)] terms, c being ints that stand
        for c / ``scale`` over QQ; the first step takes divisor ``first``
        when it is not None.  Returns (quotients as {E: (c, S)} per divisor
        or None, the remainder as [(K, E, c, S)] with K decreasing), where
        (c, S) stands for c over GF(p) and c / S over QQ, S being the scale
        when the term was made.
        Over QQ a step by a divisor with leading coefficient s takes p to
        (s/h) p - (c/h) x^shift tail, c being p's leading coefficient and
        h = gcd(c, s), and the scale to s/h times itself."""
        mod = self.ring.field.p
        heappush, heappop = heapq.heappush, heapq.heappop
        cap = term_cap()
        guard = self.packing.guard
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
            for i, dk, de, s, tail in scan:
                if (e - de) & guard:
                    continue
                shift_k, shift_e = k - dk, e - de
                if mod:
                    factor = lc if s is None else lc * s % mod
                else:
                    h = gcd(lc, s)
                    if h != s:
                        a = s // h
                        for m in p:
                            p[m] *= a
                        scale *= a
                    factor = lc // h
                if with_quotients:
                    quotients[i][shift_e] = factor, scale
                # p -= factor * x^shift * d; the leading term cancels lt.  K
                # is one-to-one only below the limit, so every product is
                # checked before its K is looked up
                factor = -factor
                for tk, te, c in tail:
                    me = te + shift_e
                    if me & guard:
                        raise OverflowError
                    m = tk + shift_k
                    old = p.get(m)
                    v = factor * c if old is None else old + factor * c
                    if mod:
                        v %= mod
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
                remainder.append((k, e, lc, scale))
            scan = data
            if len(p) + len(remainder) > cap:
                raise term_cap_error("reduction intermediate exceeds", cap)
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
        return _Divisors(self.ring, self.order, self.polys, held=True)

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
