"""Local invariants: symbolic powers, vanishing orders along a prime,
Hilbert series of monomial ideals, graded multiplicity, local lengths at
coordinate primes, and the additivity check that ties multiplicity to the
top-dimensional local lengths.

Symbolic powers are computed by saturating the ordinary power at a
witness element outside the prime.  That is only guaranteed to remove
every embedded component when the origin is the sole possible embedded
point, which is what the Jacobian certificate establishes; results from
witnesses lacking any certificate still run but stay flagged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .config import DEFAULT_ORD_CAP, term_cap, term_cap_error
from .errors import (
    NonHomogeneousError,
    OrdSearchCapError,
    UncertifiedSymbolicPowerError,
    UnitIdealError,
    WitnessError,
)
from .ideals import Ideal, independent_sets
from .orders import GREVLEX
from .poly import Polynomial, PolyRing, minimal_exponents, positive_int
from .reports import VerificationReport


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertData:
    """Normalized Hilbert series h(t)/(1-t)^D of a quotient ring.

    ``numerator`` holds the coefficients of h(t), constant term first,
    with h(1) = ``multiplicity``.  The unit ideal yields the zero module,
    encoded as dimension -1 and multiplicity 0.
    """

    numerator: tuple[int, ...]
    dimension: int
    multiplicity: int


@lru_cache(maxsize=None)
def _hilbert_numerator(exps: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Numerator of the Hilbert series of R/(monomials) over (1-t)^d.

    ``exps``, the cache key, is an antichain in (degree, exps) order.  It
    slices on the last variable x (Bayer-Stillman): with 0 = a_0 < ... <
    a_K the distinct x-exponents, 0 included, and J_a the minimal x-free
    parts of the generators of x-degree <= a (those of I : x^a),

        N(I) = sum_{k<K} (t^a_k - t^a_(k+1)) N(J_a_k) + t^a_K N(J_a_K).

    Each J_a has one variable fewer: the recursion is at most nvars + 1
    calls deep.  Every standard-monomial count, local lengths included,
    goes through it, bounded by the term cap in ``_series``.
    """
    if not exps:
        return (1,)
    if not any(exps[0]):
        return (0,)
    layers: dict[int, list[tuple[int, ...]]] = {0: []}
    for e in exps:
        layers.setdefault(e[-1], []).append(e[:-1])
    cuts = sorted(layers)
    out = [0] * (sum(map(max, zip(*exps))) + 1)
    free: tuple[tuple[int, ...], ...] = ()
    for a, b in zip(cuts, cuts[1:] + [None]):
        free = minimal_exponents(free + tuple(layers[a]))
        for i, c in enumerate(_hilbert_numerator(free)):
            out[a + i] += c
            if b is not None:
                out[b + i] -= c
    return tuple(out)


def hilbert_series(lt_gens, ring: PolyRing) -> HilbertData:
    """Hilbert data of R modulo a monomial ideal.

    ``lt_gens`` may hold monomial polynomials or raw exponent tuples; the
    set is re-minimalized, so redundant generators are harmless.
    """
    exps = []
    for g in lt_gens:
        if isinstance(g, Polynomial):
            if not g.is_monomial():
                raise ValueError(f"{g} is not a monomial")
            g = g.leading_exps(GREVLEX)
        exps.append(ring.exponents(g))
    return _series(minimal_exponents(exps), ring.nvars)


def _series(antichain: tuple[tuple[int, ...], ...], nvars: int) -> HilbertData:
    """Hilbert data of k[x_1..x_nvars] modulo the monomials of ``antichain``,
    which must be in (degree, exps) order, the numerator's cache key.  The
    numerator has at most deg(lcm) + 1 coefficients; more than the term
    cap is refused before any is formed."""
    cap = term_cap()
    if sum(map(max, zip(*antichain))) >= cap:
        raise term_cap_error("Hilbert numerator has more coefficients than", cap)
    h = _hilbert_numerator(antichain)
    if not any(h):
        return HilbertData((0,), -1, 0)
    dim = nvars
    while sum(h) == 0:
        h = tuple(itertools.accumulate(h))[:-1]     # exact quotient by 1 - t
        dim -= 1
    while len(h) > 1 and h[-1] == 0:
        h = h[:-1]
    return HilbertData(h, dim, sum(h))


def graded_hilbert_data(ideal: Ideal) -> HilbertData:
    """Hilbert data of the quotient, read off the leading-term ideal.

    For a homogeneous ideal this is the honest graded Hilbert series; in
    general it describes the degree filtration, so the multiplicity is
    the degree of the projective closure.
    """
    if ideal.is_unit():
        raise UnitIdealError("the unit ideal has no Hilbert data")
    exps = ideal.groebner_basis().leading_term_exponents()     # already minimal
    return _series(tuple(sorted(exps, key=lambda e: (sum(e), e))), ideal.ring.nvars)


def multiplicity_graded(ideal: Ideal) -> int:
    return graded_hilbert_data(ideal).multiplicity


# ---------------------------------------------------------------------------
# Primes with saturation witnesses
# ---------------------------------------------------------------------------

class PrimeWitness:
    """An ideal asserted prime, with the data needed for symbolic powers.

    Primality itself is the caller's assertion and is never verified;
    everything downstream (witness validity, dimension, certification) is
    checked.  ``weights`` may declare a positive grading under which the
    generators are homogeneous; this widens the Jacobian certificate to
    quasi-homogeneous primes such as monomial curves.
    """

    def __init__(self, ideal: Ideal, claimed_dim: int | None = None,
                 witness: Polynomial | None = None,
                 weights: tuple[int, ...] | None = None):
        if ideal.is_unit():
            raise UnitIdealError("a prime must be proper")
        self.ideal = ideal
        self.ring = ideal.ring
        if weights is not None:
            weights = tuple(positive_int(w, "weight") for w in weights)
            if len(weights) != self.ring.nvars:
                raise ValueError(f"bad weight vector {weights} for {self.ring}")
        self.weights = weights

        dim = ideal.dimension()
        if claimed_dim is not None and claimed_dim != dim:
            raise ValueError(
                f"claimed dimension {claimed_dim} but the ideal has dimension {dim}")
        self.claimed_dim = dim

        if witness is None:
            witness = self._default_witness()
        if witness.ring != self.ring:
            raise WitnessError(f"witness lives in {witness.ring}, not {self.ring}")
        if witness.is_zero():
            raise WitnessError("witness must be nonzero")
        if witness in ideal:
            raise WitnessError(f"witness {witness} lies in the prime")
        if witness.is_constant():
            # only legitimate for the full coordinate prime, whose powers
            # are already primary so saturation must be a no-op
            if any(self.ring.variable(n) not in ideal for n in self.ring.variables):
                raise WitnessError(
                    "constant witness is only valid when every variable "
                    "lies in the prime")
        elif witness.order_at_origin() < 1:
            raise WitnessError(
                f"witness {witness} has a unit part; use an element that "
                "vanishes at the origin")
        self.witness = witness

        gb = ideal.groebner_basis()
        self.is_coordinate_subspace = all(
            g.is_monomial() and g.total_degree() == 1 for g in gb.polys)
        self.is_principal = len(gb.polys) == 1
        try:
            self.isolated_singularity_certified = verify_isolated_singularity(self)
        except NonHomogeneousError:
            self.isolated_singularity_certified = False
        self._symbolic_cache: dict[int, Ideal] = {}

    def _default_witness(self) -> Polynomial:
        # the first variable outside the prime; when the prime is the full
        # coordinate ideal its powers are already primary, so a unit
        # witness makes saturation a no-op
        return next(self._variables_outside(), self.ring.one())

    def _variables_outside(self):
        return (v for v in self.ring.gens() if v not in self.ideal)

    @property
    def certified(self) -> bool:
        return (self.is_coordinate_subspace or self.is_principal
                or self.isolated_singularity_certified)

    @property
    def graded_bridge_ok(self) -> bool:
        """Generators homogeneous under the declared (or unit) grading."""
        return all(g.is_homogeneous(self.weights) for g in self.ideal.gens)

    def probe_elements(self) -> list[Polynomial]:
        """The variables outside the prime other than the witness: the
        saturation ends on a colon by the witness that moves nothing."""
        return [v for v in self._variables_outside() if v != self.witness]

    def __repr__(self):
        return (f"PrimeWitness({self.ideal!r}, dim={self.claimed_dim}, "
                f"witness={self.witness})")


def verify_isolated_singularity(p: PrimeWitness) -> bool:
    """Jacobian certificate that the singular locus is at most the origin.

    Forms the h x h minors of the Jacobian of the reduced basis, h the
    height, and asks every variable to be a radical member of the prime
    plus those minors.  Valid over characteristic zero for ideals
    homogeneous under some positive grading; anything else is refused
    (char p) or rejected (non-homogeneous).
    """
    if p.ring.field.characteristic != 0:
        return False
    weights = p.weights
    gens = list(p.ideal.groebner_basis().polys)
    for g in gens:
        if not g.is_homogeneous(weights):
            raise NonHomogeneousError(
                f"{g} is not homogeneous under weights "
                f"{weights or (1,) * p.ring.nvars}")
    h = p.ring.nvars - p.claimed_dim
    if h == 0:
        return True
    jac = [[g.differentiate(j) for j in range(p.ring.nvars)] for g in gens]
    minors = []
    for rows in itertools.combinations(range(len(gens)), h):
        for cols in itertools.combinations(range(p.ring.nvars), h):
            sub = [[jac[r][c] for c in cols] for r in rows]
            d = _det(sub)
            if not d.is_zero():
                minors.append(d)
    test = Ideal(p.ring, list(p.ideal.gens) + minors)
    return all(test.radical_contains(v) for v in p.ring.gens())


def _det(matrix: list[list[Polynomial]]) -> Polynomial:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = matrix[0][0].ring.zero()
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        sub = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * _det(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


# ---------------------------------------------------------------------------
# Symbolic powers and orders of vanishing
# ---------------------------------------------------------------------------

def symbolic_power(p: PrimeWitness, m: int) -> Ideal:
    """The m-th symbolic power, as a witness saturation with a post-check.

    The returned ideal always sits between the ordinary power and the
    prime, so its radical is the prime (each generator g of the prime has
    g^m in the ordinary power), and it is stable under colon by the
    witness (the saturation stops only when its last colon leaves the
    ideal unchanged) and by every probe element.  Any violated probe
    raises instead of returning a wrong ideal.
    """
    m = positive_int(m)
    cached = p._symbolic_cache.get(m)
    if cached is not None:
        return cached
    base = p.ideal ** m
    result, _ = base.saturate(p.witness)
    diagnostics = []
    if not all(g in result for g in base.gens):
        diagnostics.append("ordinary power is not contained in the result")
    if not all(g in p.ideal for g in result.gens):
        diagnostics.append("result is not contained in the prime")
    for w in p.probe_elements():
        if result.colon(w) != result:
            diagnostics.append(f"colon by probe {w} moves the result")
    if diagnostics:
        raise UncertifiedSymbolicPowerError(
            f"saturation of power {m} failed its contract",
            diagnostics=diagnostics, ideal=result)
    p._symbolic_cache[m] = result
    return result


def ord_along(p: PrimeWitness, f: Polynomial, max_order: int | None = None) -> int:
    """Largest m with f in the m-th symbolic power; 0 when f is not in p."""
    if f.is_zero():
        raise ValueError("the zero polynomial vanishes to every order")
    cap = DEFAULT_ORD_CAP if max_order is None else positive_int(max_order, "max_order")
    order = 0
    while order < cap:
        if f in symbolic_power(p, order + 1):
            order += 1
        else:
            return order
    raise OrdSearchCapError(
        f"order search passed {cap}; raise max_order if this is intended")


# ---------------------------------------------------------------------------
# Local lengths and the additivity check
# ---------------------------------------------------------------------------

def local_length_at_monomial_prime(ideal: Ideal, prime_vars) -> int:
    """Length of the localization of R/I at a coordinate prime.

    Substituting 1 for the variables outside the prime turns the
    localization into a standard-monomial count, by the Hilbert recursion
    and so bounded by the term cap.  Finiteness requires the prime to be
    minimal over the ideal; anything else is rejected.
    """
    names = list(prime_vars)
    if len(set(names)) != len(names):
        raise ValueError("repeated variable in the prime")
    idxs = sorted(ideal.ring.index(n) for n in names)
    return _local_length(ideal.monomial_exponents(), idxs)


def _local_length(exps, idxs) -> int:
    """Standard monomials of ``exps`` once the variables off ``idxs`` are 1:
    the multiplicity of a 0-dimensional restriction, within the term cap."""
    if not idxs:
        if exps:
            raise ValueError("only the zero ideal localizes at the zero prime")
        return 1
    restricted = minimal_exponents(tuple(e[i] for i in idxs) for e in exps)
    if any(not any(e) for e in restricted):
        raise ValueError("the prime does not contain the ideal")
    data = _series(restricted, len(idxs))
    if data.dimension:
        raise ValueError(
            "the prime is not minimal over the ideal (infinite length)")
    return data.multiplicity


def associativity_check(ideal: Ideal) -> VerificationReport:
    """Multiplicity against the sum of local lengths at top primes.

    Both sides read the one antichain of minimal generators and count
    standard monomials by the one Hilbert recursion: the left in R, the
    right localized at each coordinate minimal prime of maximal dimension.
    A box count in the tests checks the local lengths independently.
    """
    if ideal.is_unit():
        raise UnitIdealError("additivity check needs a proper ideal")
    ring = ideal.ring
    exps = ideal.monomial_exponents()   # raises unless monomial
    # a reduced basis's leading monomials are already the antichain
    lhs = _series(tuple(sorted(exps, key=lambda e: (sum(e), e))), ring.nvars).multiplicity
    _, indep_sets = independent_sets(exps, ring.nvars)
    terms = []
    rhs = 0
    for s in sorted(indep_sets, key=sorted):
        prime_vars = [v for i, v in enumerate(ring.variables) if i not in s]
        length = _local_length(exps, sorted(set(range(ring.nvars)) - s))
        # R/p is a polynomial ring in the variables outside p
        rhs += length
        terms.append({
            "prime": prime_vars,
            "local_length": length,
            "quotient_multiplicity": 1,
        })
    return VerificationReport(
        claim="multiplicity-additivity",
        hypotheses=None,
        holds=lhs == rhs,
        data={"multiplicity": lhs, "local_sum": rhs, "terms": terms},
    )
