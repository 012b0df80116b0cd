"""Executable containment checks and their hypothesis bookkeeping.

Each verifier returns a VerificationReport rather than a bare boolean so
that "the hypotheses fail" (inapplicable), "the computation is not
trusted" (uncertified), and "the containment is false" (a genuine
failure, with a replayable witness) stay distinguishable.  One helper,
``_hypotheses``, decides both hypotheses for every claim: the radical of
the summed ideals is the origin's maximal ideal, and the heights sum to
the number of variables.  Every claim builds its report in one place,
``_verify``: a verifier checks its hypotheses, then hands over a run
that returns a violating element or None.  A symbolic power that fails
certification during the run makes the report inconclusive, in every
claim alike."""

from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import reduce

from .errors import UncertifiedSymbolicPowerError
from .groebner import GroebnerBasis
from .ideals import Ideal, adjoin, coordinate_prime
from .local import PrimeWitness, ord_along, symbolic_power
from .orders import GREVLEX
from .poly import Polynomial, PolyRing, positive_int
from .reports import HypothesisReport, VerificationReport


def full_coordinate_prime(ring: PolyRing) -> Ideal:
    """The ideal of all variables, the origin's maximal ideal."""
    return coordinate_prime(ring, ring.variables)


def _hypotheses(ideals, dims) -> tuple[bool, bool]:
    """(the radical of the summed ideals is the origin's maximal ideal,
    their heights sum to the number of variables) for ideals of
    dimensions ``dims``.  For two ideals the height count is the
    dimension count dim + dim = d."""
    ring = ideals[0].ring
    ring.check(*ideals)
    s = reduce(lambda a, b: a + b, ideals)
    return (s.is_proper() and all(s.radical_contains(v) for v in ring.gens()),
            sum(ring.nvars - d for d in dims) == ring.nvars)


def _pair_report(ideals, dims) -> HypothesisReport:
    """The two hypotheses for a pair, as a report."""
    radical_ok, dims_ok = _hypotheses(ideals, dims)
    return HypothesisReport(radical_ok, *dims, dims_ok)


def check_hypotheses(p: PrimeWitness, q: PrimeWitness) -> HypothesisReport:
    """Radical-of-sum and dimension-count conditions for a prime pair,
    decided once per pair: the report is held on p, keyed by q, and each
    call returns its own copy."""
    hyp = p._hypotheses_cache.get(q)
    if hyp is None:
        hyp = p._hypotheses_cache[q] = _pair_report(
            [p.ideal, q.ideal], [p.claimed_dim, q.claimed_dim])
    return replace(hyp, notes=list(hyp.notes))


def _timed(timings: dict[str, float], phase: str, fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    timings[phase] = time.perf_counter() - t0
    return result


def _verify(claim: str, hyp: HypothesisReport | None, applicable: bool,
            primes, data: dict, timings: dict[str, float], run,
            notes=()) -> VerificationReport:
    """The one place a claim becomes a report.  ``run()`` returns an
    element violating the claim, or None when the claim holds.

    A symbolic power that fails certification makes the report
    inconclusive: neither applicable nor certified, with the failed
    probes as notes.
    """
    try:
        witness = run()
    except UncertifiedSymbolicPowerError as exc:
        return VerificationReport(
            claim, hyp, holds=False, applicable=False, certified=False,
            notes=["inconclusive: " + str(exc)] + list(exc.diagnostics),
            data=data)
    bridge = all(p.graded_bridge_ok for p in primes)
    return VerificationReport(
        claim, hyp, holds=witness is None, witness=witness, timings=timings,
        applicable=applicable, certified=all(p.certified for p in primes),
        notes=([] if bridge else ["graded bridge unverified"]) + list(notes),
        data=data)


def _verify_symbolic(claim: str, primes, exponents, timings: dict[str, float],
                     hyp: HypothesisReport | None, applicable: bool,
                     data: dict, check) -> VerificationReport:
    """The run shared by sp2, multi and regular: symbolic powers, the
    reduced basis of their intersection, then ``check(basis)``, which
    returns a basis element violating the claim or None."""
    def run():
        powers = _timed(timings, "symbolic", lambda: [
            symbolic_power(p, n) for p, n in zip(primes, exponents)])
        basis = _timed(timings, "intersection", lambda: reduce(
            _meet, zip(powers, (frozenset(p.outside) for p in primes)))[0].groebner_basis().polys)
        return _timed(timings, "check", check, basis)
    return _verify(claim, hyp, applicable, primes, data, timings, run)


def _meet(left, right):
    """The intersection of two (ideal, regular) pairs, as a pair, where
    ``regular`` holds the indices of variables v with I : v = I, which
    ``symbolic_power``'s post-check proves for each one outside the prime;
    the result keeps those regular on both sides.

    For h regular on R/I, I cap (h) = h (I : h) = h I, with no Buchberger
    run.  h is so when (R1) a monomial in regular variables, or (R2) I is
    monomial and h lies outside the prime Q of the other variables:
    the associated primes of a monomial ideal are generated by variables
    and hold no regular one, so all lie in Q, a coordinate prime's own
    for its symbolic powers.  The reduced grevlex basis is h times I's,
    interreduced once unless h is a monomial; else ``Ideal.intersect``."""
    regular = left[1] & right[1]
    for (I, reg), (J, _) in (left, right), (right, left):
        basis = J.groebner_basis().polys
        h = basis[0] if len(basis) == 1 else None
        if h and (h.is_monomial() or I.is_monomial_ideal()) and any(
                all(a == 0 or i in reg for i, a in enumerate(e)) for e in h.terms):
            out = Ideal(I.ring, [h * g for g in I.groebner_basis()])
            out._gb_cache[GREVLEX] = (GroebnerBasis if h.is_monomial() else
                                      GroebnerBasis.from_minimal)(I.ring, GREVLEX, out.gens)
            return out, regular
    return left[0].intersect(right[0]), regular


def _order_check(bound: int, data: dict):
    """Check for "every element has order at least ``bound`` at the
    origin"; records the basis's minimal order in ``data``.

    The order test is exact: a polynomial lies in the k-th power of the
    origin's maximal ideal exactly when its lowest-degree term has degree
    at least k, and an ideal lies there when its basis does.
    """
    def check(basis):
        if basis:
            data["min_order"] = int(min(g.order_at_origin() for g in basis))
        return next((g for g in basis if g.order_at_origin() < bound), None)
    return check


def verify_sp2(p: PrimeWitness, q: PrimeWitness, m: int, n: int) -> VerificationReport:
    """Is every element of p^(m) cap q^(n) of order at least m + n?

    Failure produces a basis element of too-low order as a replayable
    witness.
    """
    m, n = positive_int(m), positive_int(n)
    timings: dict[str, float] = {}
    hyp = _timed(timings, "hypotheses", check_hypotheses, p, q)
    data = {"m": m, "n": n, "required_order": m + n}
    return _verify_symbolic("sp2", (p, q), (m, n), timings, hyp, hyp.all_hold,
                            data, _order_check(m + n, data))


def verify_multi(primes, exponents) -> VerificationReport:
    """Intersection of several symbolic powers against the summed order.

    Applicability needs the heights to add up to the ring dimension and
    the radical of the summed primes to be the full coordinate ideal.
    """
    primes = list(primes)
    exponents = [positive_int(n) for n in exponents]
    if not primes:
        raise ValueError("at least one prime is required")
    if len(primes) != len(exponents):
        raise ValueError("one exponent per prime")
    timings: dict[str, float] = {}
    radical_ok, heights_ok = _timed(
        timings, "hypotheses", _hypotheses, [p.ideal for p in primes],
        [p.claimed_dim for p in primes])
    data = {"exponents": exponents,
            "heights": [p.ring.nvars - p.claimed_dim for p in primes],
            "heights_sum_to_d": heights_ok,
            "radical_sum_is_maximal": radical_ok,
            "required_order": sum(exponents)}
    return _verify_symbolic("multi", primes, exponents, timings, None,
                            heights_ok and radical_ok, data,
                            _order_check(sum(exponents), data))


def affine_vanishing_report(f: Polynomial, p: PrimeWitness,
                            q: PrimeWitness) -> VerificationReport:
    """Orders along two primes against the order at the origin.

    The claim is the implication "hypotheses imply order at the origin is
    at least the sum"; with failed hypotheses it holds vacuously and the
    report says so.
    """
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if f not in p.ideal or f not in q.ideal:
        raise ValueError("f must lie in both primes")
    timings: dict[str, float] = {}
    hyp = _timed(timings, "hypotheses", check_hypotheses, p, q)
    applicable = hyp.all_hold
    data: dict = {}

    def run():
        m, n, k = _timed(timings, "orders", lambda: (
            ord_along(p, f), ord_along(q, f), f.order_at_origin()))
        data.update(ord_p=m, ord_q=n, order_at_origin=int(k),
                    required_order=m + n)
        return f if applicable and k < m + n else None

    notes = [] if applicable else [
        "hypotheses fail; the implication holds vacuously"]
    return _verify("affine", hyp, applicable, (p, q), data, timings, run,
                   notes)


def verify_regular_case(p: PrimeWitness, q: PrimeWitness, m: int,
                        n: int) -> VerificationReport:
    """Stronger conclusion available when R/p is regular: the symbolic
    intersection lands in p^m times the n-th power of the coordinate
    maximal ideal."""
    if not p.is_coordinate_subspace:
        raise ValueError("p must be a coordinate-subspace prime")
    m, n = positive_int(m), positive_int(n)
    timings: dict[str, float] = {}
    hyp = _timed(timings, "hypotheses", check_hypotheses, p, q)

    def check(basis):
        target = (p.ideal ** m) * (full_coordinate_prime(p.ring) ** n)
        return next((g for g in basis if g not in target), None)

    return _verify_symbolic("regular", (p, q), (m, n), timings, hyp,
                            hyp.all_hold, {"m": m, "n": n}, check)


def verify_ci_product(I: Ideal, J: Ideal, m: int, n: int) -> VerificationReport:
    """Ideal equality of intersection and product for complete
    intersections.

    The regular-sequence hypothesis is checked through the proxy "height
    equals the number of given generators", which suffices in a
    polynomial ring; the radical and dimension-count conditions are
    reported alongside.
    """
    m, n = positive_int(m), positive_int(n)
    timings: dict[str, float] = {}
    hyp = _timed(timings, "hypotheses", lambda: _pair_report(
        [I, J], [I.dimension(), J.dimension()]))
    height_i, height_j = I.ring.nvars - hyp.dim_p, I.ring.nvars - hyp.dim_q
    ci_i = height_i == len(I.gens)
    ci_j = height_j == len(J.gens)
    data = {"m": m, "n": n,
            "height_I": height_i, "generators_I": len(I.gens),
            "height_J": height_j, "generators_J": len(J.gens),
            "regular_sequence_proxy_I": ci_i,
            "regular_sequence_proxy_J": ci_j}
    notes = [] if all(g.is_homogeneous() for g in I.gens + J.gens) else [
        "graded bridge unverified"]

    def run():
        lhs, rhs = _timed(timings, "intersection", lambda: (
            (I ** m).intersect(J ** n), (I ** m) * (J ** n)))
        # the product always sits inside the intersection, so when the
        # two differ a basis element of the intersection lies outside it
        return _timed(timings, "check", lambda: None if lhs == rhs else next(
            g for g in lhs.groebner_basis().polys if g not in rhs))

    return _verify("ci", hyp, ci_i and ci_j and hyp.all_hold, (), data,
                   timings, run, notes)


def monomial_curve_prime(ring: PolyRing, exponents) -> PrimeWitness:
    """Kernel of the map sending each variable to a power of one
    parameter; the standard source of primes whose symbolic powers
    outgrow the ordinary ones.
    """
    exps = tuple(map(positive_int, ring.exponents(exponents)))
    if math.gcd(*exps) != 1:
        raise ValueError(f"exponents {exps} must have gcd 1")
    big, t, lift = adjoin(ring, "t")
    gens = [lift(v) - t ** a for v, a in zip(ring.gens(), exps)]
    return PrimeWitness(
        Ideal(big, gens).eliminate(big.variables[:1]),
        claimed_dim=1,
        witness=ring.variable(ring.variables[0]),
        weights=exps,
    )
