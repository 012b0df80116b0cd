"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: dense linear algebra over Fraction,
brute-force monomial enumeration, finite differences. No Groebner bases,
no saturation, no Hilbert recursion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from vanish.poly import PolyRing, Polynomial


# ---------------------------------------------------------------------------
# linear algebra over Q
# ---------------------------------------------------------------------------

def rank(rows: list[list[Fraction]]) -> int:
    """Row-reduce a copy and count the pivots."""
    mat = [list(map(Fraction, row)) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    return r


# ---------------------------------------------------------------------------
# monomial enumeration
# ---------------------------------------------------------------------------

def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return sorted(out)


def monomial_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal_by_pairs(exps) -> list[tuple[int, ...]]:
    """The distinct tuples that no other distinct tuple divides, every pair
    compared, sorted by degree and then by tuple."""
    distinct = set(exps)
    keep = [e for e in distinct
            if not any(f != e and monomial_divides(f, e) for f in distinct)]
    return sorted(keep, key=lambda e: (sum(e), e))


def membership_by_divisibility(exps: tuple[int, ...],
                               gen_exps: list[tuple[int, ...]]) -> bool:
    """Monomial-ideal membership: some generator divides the monomial."""
    return any(monomial_divides(g, exps) for g in gen_exps)


# ---------------------------------------------------------------------------
# monomial ideals, decided monomial by monomial in a bounding box
# ---------------------------------------------------------------------------

def exponent_box(*exponent_lists) -> list[tuple[int, ...]]:
    """Every exponent tuple dividing the lcm of all the given tuples.

    Two monomial ideals whose minimal generators all lie in the box are
    equal exactly when they contain the same monomials of the box.
    """
    exps = [e for lst in exponent_lists for e in lst]
    top = [max(col) for col in zip(*exps)]
    return list(itertools.product(*(range(t + 1) for t in top)))


def monomial_members(gen_exps, box) -> set[tuple[int, ...]]:
    """The monomials of the box lying in the ideal the generators span."""
    return {m for m in box if membership_by_divisibility(m, gen_exps)}


def intersection_members(a_exps, b_exps, box) -> set[tuple[int, ...]]:
    """The monomials of the box lying in both ideals."""
    return monomial_members(a_exps, box) & monomial_members(b_exps, box)


def colon_members(gen_exps, shift, box) -> set[tuple[int, ...]]:
    """The monomials m of the box with x^shift * m in the ideal."""
    return {m for m in box if membership_by_divisibility(
        tuple(x + y for x, y in zip(m, shift)), gen_exps)}


def radical_membership(exps, gen_exps) -> bool:
    """Whether some power of x^exps lies in the ideal.  A power above
    every generator exponent decides it: past that, raising the power
    changes no divisibility."""
    top = max((max(g, default=0) for g in gen_exps), default=0)
    return any(membership_by_divisibility(tuple(k * e for e in exps), gen_exps)
               for k in range(1, top + 2))


def minimal_members(members: set) -> set[tuple[int, ...]]:
    """The members none of whose proper divisors is a member: each has
    no member one step below it in any variable."""
    def below(m):
        return (m[:i] + (m[i] - 1,) + m[i + 1:] for i in range(len(m)) if m[i])
    return {m for m in members if not any(d in members for d in below(m))}


def local_length_by_box(gen_exps, idxs) -> int:
    """Length of R/I localized at the prime of the variables ``idxs``.

    The variables off ``idxs`` become 1; the standard monomials of what is
    left are counted point by point in the box below the smallest pure
    power of each prime variable.  Raises ValueError when the prime is
    empty but the ideal is not, when the prime misses a generator, or when
    some prime variable has no pure power (infinite length).
    """
    if not idxs:
        if gen_exps:
            raise ValueError("only the zero ideal localizes at the zero prime")
        return 1
    restricted = minimal_by_pairs(tuple(e[i] for i in idxs) for e in gen_exps)
    if any(not any(e) for e in restricted):
        raise ValueError("the prime does not contain the ideal")
    bounds = []
    for pos in range(len(idxs)):
        pure = [e[pos] for e in restricted
                if e[pos] and not any(v for j, v in enumerate(e) if j != pos)]
        if not pure:
            raise ValueError(
                "the prime is not minimal over the ideal (infinite length)")
        bounds.append(min(pure))
    return sum(1 for point in itertools.product(*(range(b) for b in bounds))
               if not membership_by_divisibility(point, restricted))


# ---------------------------------------------------------------------------
# graded pieces of homogeneous ideals
# ---------------------------------------------------------------------------

def graded_piece_dimension(gens: list[Polynomial], ring: PolyRing,
                           degree: int) -> int:
    """dim_Q of the degree-d piece of the ideal the homogeneous gens span.

    Spanning set: mono * g over generators g and monomials of degree
    d - deg(g); the rank of their coefficient matrix is the answer.
    """
    basis = monomials_of_degree(ring.nvars, degree)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        gdeg = g.total_degree()
        if gdeg > degree:
            continue
        for shift in monomials_of_degree(ring.nvars, degree - gdeg):
            row = [Fraction(0)] * len(basis)
            for exps, coeff in g.terms.items():
                target = tuple(a + b for a, b in zip(exps, shift))
                row[index[target]] = Fraction(coeff)
            rows.append(row)
    if not rows:
        return 0
    return rank(rows)


def graded_pieces_agree(gens_a: list[Polynomial], gens_b: list[Polynomial],
                        ring: PolyRing, up_to_degree: int) -> bool:
    """Degreewise: do two homogeneous ideals have equal graded dimensions?"""
    return all(
        graded_piece_dimension(gens_a, ring, d)
        == graded_piece_dimension(gens_b, ring, d)
        for d in range(up_to_degree + 1)
    )


# ---------------------------------------------------------------------------
# Hilbert function by standard-monomial counting, multiplicity by differences
# ---------------------------------------------------------------------------

def hilbert_function_values(lt_gens: list[tuple[int, ...]], nvars: int,
                            up_to_degree: int) -> list[int]:
    """Counts of standard monomials (not divisible by any generator)."""
    values = []
    for d in range(up_to_degree + 1):
        count = sum(
            1 for m in monomials_of_degree(nvars, d)
            if not membership_by_divisibility(m, lt_gens)
        )
        values.append(count)
    return values


def multiplicity_by_differences(lt_gens: list[tuple[int, ...]], nvars: int,
                                dimension: int,
                                up_to_degree: int = 12) -> int:
    """Finite-difference multiplicity of a monomial leading-term ideal.

    For quotient dimension D >= 1 the Hilbert function eventually agrees
    with a degree D-1 polynomial whose (D-1)-fold difference is the
    multiplicity; for D = 0 the multiplicity is the total count of
    standard monomials.
    """
    values = hilbert_function_values(lt_gens, nvars, up_to_degree)
    if dimension == 0:
        return sum(values)
    diffs = values
    for _ in range(dimension - 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    tail = diffs[-3:]
    if len(set(tail)) != 1:
        raise AssertionError(
            f"difference column not stable: {diffs}; raise up_to_degree")
    return tail[-1]


def numerator_by_counting(lt_gens: list[tuple[int, ...]], nvars: int,
                          dimension: int) -> tuple[int, ...]:
    """h(t) with sum_d H(d) t^d = h(t)/(1-t)^dimension, trailing zeros
    stripped: the Hilbert function times (1-t)^dimension, truncated.

    h has degree at most that of the lcm of the generators (the
    inclusion-exclusion numerator does), so counting one degree past it
    shows the truncation is exact.
    """
    top = sum(max(col) for col in zip(*lt_gens)) if lt_gens else 0
    coeffs = hilbert_function_values(lt_gens, nvars, top + 1)
    for _ in range(dimension):
        coeffs = [c - (coeffs[i - 1] if i else 0) for i, c in enumerate(coeffs)]
    if coeffs[-1]:
        raise AssertionError(f"numerator past degree {top}: {coeffs}")
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# dimension of a monomial-ideal quotient via minimal vertex covers
# ---------------------------------------------------------------------------

def monomial_dimension(gen_exps: list[tuple[int, ...]], nvars: int) -> int:
    """Krull dimension of R/I for a monomial ideal I.

    Minimal primes of a monomial ideal are generated by variable subsets
    that meet the support of every generator; the dimension is nvars
    minus the smallest such cover.
    """
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gen_exps]
    if any(not s for s in supports):
        raise ValueError("unit ideal")
    if not supports:
        return nvars
    for size in range(nvars + 1):
        for subset in itertools.combinations(range(nvars), size):
            chosen = set(subset)
            if all(s & chosen for s in supports):
                return nvars - size
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# schoolbook polynomial product
# ---------------------------------------------------------------------------

def schoolbook_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    field = f.ring.field
    acc: dict[tuple[int, ...], object] = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            acc[key] = acc.get(key, field.zero()) + ca * cb
    if field.p:
        acc = {e: c % field.p for e, c in acc.items()}
    acc = {e: c for e, c in acc.items() if c}
    return Polynomial(f.ring, acc)


# ---------------------------------------------------------------------------
# monomial order keys
# ---------------------------------------------------------------------------

def _grevlex_key(exps: tuple[int, ...]):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def order_key(order, exps: tuple[int, ...]):
    """Sort key of ``exps`` under ``order``, rebuilt from the order's fields
    on every call: larger keys mean larger monomials."""
    k = order.kind
    if k == "lex":
        return exps
    if k == "grlex":
        return (sum(exps), exps)
    if k == "grevlex":
        return _grevlex_key(exps)
    elim_set = set(order.elim)
    head = tuple(exps[i] for i in order.elim)
    tail = tuple(e for i, e in enumerate(exps) if i not in elim_set)
    inner_key = {"lex": lambda t: t,
                 "grlex": lambda t: (sum(t), t),
                 "grevlex": _grevlex_key}[order.inner]
    return (_grevlex_key(head), inner_key(tail))


# ---------------------------------------------------------------------------
# multivariate division
# ---------------------------------------------------------------------------

def naive_divmod(f: Polynomial, divisors, order):
    """Textbook division by an ordered divisor list: (quotients, remainder).

    Each step searches every live term for the leading one, and divides
    by the first divisor whose leading monomial divides it; zero divisors
    are skipped and get zero quotients.
    """
    ring, fld = f.ring, f.ring.field
    key = lambda e: order_key(order, e)  # noqa: E731
    p = dict(f.terms)
    quotients: list[dict] = [{} for _ in divisors]
    remainder: dict = {}
    while p:
        lt = max(p, key=key)
        lc = p[lt]
        for i, d in enumerate(divisors):
            if d.is_zero():
                continue
            le = max(d.terms, key=key)
            if monomial_divides(le, lt):
                shift = tuple(b - a for a, b in zip(le, lt))
                factor = lc * fld.inv(d.terms[le])
                if fld.p:
                    factor %= fld.p
                quotients[i][shift] = factor
                for e, c in d.terms.items():
                    m = tuple(a + b for a, b in zip(e, shift))
                    v = p.get(m, fld.zero()) - factor * c
                    if fld.p:
                        v %= fld.p
                    if v:
                        p[m] = v
                    else:
                        p.pop(m, None)
                break
        else:
            remainder[lt] = lc
            del p[lt]
    return [Polynomial(ring, q) for q in quotients], Polynomial(ring, remainder)
