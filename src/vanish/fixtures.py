"""Bundled example inputs: the two textbook line arrangements, coordinate
splits, monomial-curve primes, curated prime pairs for the containment
suites and complete-intersection pairs.

Pair constructors share PrimeWitness instances where a prime appears in
several pairs, so symbolic powers are computed once per prime and
exponent.
"""

from __future__ import annotations

from .fields import QQ
from .ideals import Ideal, coordinate_prime
from .local import PrimeWitness
from .poly import PolyRing
from .reports import VerificationReport
from .theorems import (
    affine_vanishing_report,
    monomial_curve_prime,
    verify_ci_product,
    verify_multi,
    verify_regular_case,
    verify_sp2,
)


def ring_q(*names: str) -> PolyRing:
    return PolyRing(QQ, names)


def _coordinate(ring: PolyRing, *names: str) -> PrimeWitness:
    return PrimeWitness(coordinate_prime(ring, names))


def crossing_lines_pair() -> tuple[PrimeWitness, PrimeWitness]:
    """Two coordinate lines through the origin sharing a plane.

    The dimensions sum to 2 < 3, so this is the standard pair where the
    containment conclusion fails and the shared coordinate witnesses it.
    """
    ring = ring_q("X1", "X2", "X3")
    return _coordinate(ring, "X1", "X2"), _coordinate(ring, "X2", "X3")


def transverse_split_pair(d: int, i: int) -> tuple[PrimeWitness, PrimeWitness]:
    """Complementary coordinate subspaces of Q[X1..Xd] split after Xi."""
    if not 1 <= i < d:
        raise ValueError(f"split index {i} out of range for d={d}")
    ring = ring_q(*(f"X{k}" for k in range(1, d + 1)))
    return (_coordinate(ring, *ring.variables[:i]),
            _coordinate(ring, *ring.variables[i:]))


def curve_345(ring: PolyRing | None = None) -> PrimeWitness:
    """The (3,4,5) monomial curve, the bundled symbolic-vs-ordinary example."""
    if ring is None:
        ring = ring_q("x", "y", "z")
    return monomial_curve_prime(ring, (3, 4, 5))


def curated_sp2_pairs() -> list[tuple[str, PrimeWitness, PrimeWitness]]:
    """Certified prime pairs meeting both containment hypotheses.

    Mix of coordinate x coordinate, coordinate x monomial-curve, and
    principal x coordinate pairs; every pair has maximal radical sum and
    dimensions adding up to the ring dimension.
    """
    r2 = ring_q("x", "y")
    pairs = [("plane/x-axis-vs-y-axis", _coordinate(r2, "x"),
              _coordinate(r2, "y"))]

    r3 = ring_q("x", "y", "z")
    coord = {name: _coordinate(r3, name) for name in r3.variables}
    pairs += [
        ("space/z-axis-vs-xy-plane", _coordinate(r3, "x", "y"), coord["z"]),
        ("space/yz-plane-vs-x-axis", coord["x"], _coordinate(r3, "y", "z")),
        ("space/y-axis-vs-xz-plane", _coordinate(r3, "x", "z"), coord["y"]),
    ]

    r4 = ring_q("x1", "x2", "x3", "x4")
    pairs += [
        ("4space/plane-vs-plane",
         _coordinate(r4, "x1", "x2"), _coordinate(r4, "x3", "x4")),
        ("4space/hyperplane-vs-line",
         _coordinate(r4, "x1"), _coordinate(r4, "x2", "x3", "x4")),
        ("4space/line-vs-hyperplane",
         _coordinate(r4, "x1", "x2", "x3"), _coordinate(r4, "x4")),
    ]

    c345 = curve_345(r3)
    for name in r3.variables:
        pairs.append((f"curve-345-vs-{name}-plane", c345, coord[name]))
    c123 = monomial_curve_prime(r3, (1, 2, 3))
    pairs.append(("curve-123-vs-x-plane", c123, coord["x"]))

    x, y, z = r3.gens()
    pairs += [
        ("hyperplane-vs-z-axis", PrimeWitness(Ideal(r3, [x + y + z])),
         _coordinate(r3, "x", "y")),
        ("quadric-cone-vs-y-axis", PrimeWitness(Ideal(r3, [y**2 - x*z])),
         _coordinate(r3, "x", "z")),
        ("sphere-cone-vs-z-axis",
         PrimeWitness(Ideal(r3, [x**2 + y**2 + z**2])),
         _coordinate(r3, "x", "y")),
    ]
    return pairs


def ci_example_pairs() -> list[tuple[str, Ideal, Ideal]]:
    """Complete-intersection pairs with complementary dimensions."""
    r3 = ring_q("x", "y", "z")
    x, y, z = r3.gens()
    r4 = ring_q("x1", "x2", "x3", "x4")
    x1, x2, x3, x4 = r4.gens()
    return [
        ("line-vs-plane", Ideal(r3, [x]), Ideal(r3, [y, z])),
        ("plane-vs-line", Ideal(r3, [x, y]), Ideal(r3, [z])),
        ("fat-line-vs-plane", Ideal(r3, [x**2, y]), Ideal(r3, [z])),
        ("conic-pair-vs-diagonal", Ideal(r3, [x**2 + y**2, z]), Ideal(r3, [x + y])),
        ("fat-axis-vs-plane", Ideal(r3, [x**2, y**2]), Ideal(r3, [z])),
        ("4space-fat-pair", Ideal(r4, [x1**2, x2]), Ideal(r4, [x3, x4**3])),
    ]


# ---------------------------------------------------------------------------
# CLI fixture suites
# ---------------------------------------------------------------------------

def fixture_reports(mode: str, max_exp: int = 3) -> list[VerificationReport]:
    """The bundled verification suite for one CLI mode.

    Each suite is a list of rows ``(case_id, verifier, *args)``; the
    reports come back in row order, so the caller only needs to format
    them.  ``max_exp`` bounds the exponent sweep of sp1 and sp2.
    """
    suites = {
        "sp2": lambda: _sp_fixtures(max_exp, range(1, max_exp + 1), 2,
                                    "m{m}-n{n}"),
        "sp1": lambda: _sp_fixtures(max_exp, (1,), 1, "m{m}"),
        "multi": _multi_fixtures,
        "regular": _regular_fixtures,
        "ci": _ci_fixtures,
        "affine": _affine_fixtures,
    }
    if mode not in suites:
        raise ValueError(f"unknown verify mode {mode!r}")
    reports = []
    for case_id, verifier, *args in suites[mode]():
        rep = verifier(*args)
        rep.case_id = case_id
        reports.append(rep)
    return reports


def _sp_fixtures(max_exp: int, n_range, curve_n: int, suffix: str) -> list:
    """The sp2 suite, or its n = 1 slice (sp1); ``suffix`` formats m and n
    into the end of each case id."""
    cases = [("crossing-lines", crossing_lines_pair(), 1, 1)]
    for d in (2, 3, 4):
        for i in range(1, d):
            pair = transverse_split_pair(d, i)
            cases += [(f"split/d{d}-i{i}", pair, m, n)
                      for m in range(1, max_exp + 1) for n in n_range]
    curve = curve_345()
    plane = _coordinate(curve.ring, "z")
    cases.append(("curve-345-vs-z-plane", (curve, plane), 2, curve_n))
    return [(f"{name}/" + suffix.format(m=m, n=n), verify_sp2, *pair, m, n)
            for name, pair, m, n in cases]


def _multi_fixtures() -> list:
    ring = ring_q("X1", "X2", "X3")
    axes = [_coordinate(ring, v) for v in ring.variables]
    return [
        ("three-planes/n111", verify_multi, axes, [1, 1, 1]),
        ("split-pair/n22", verify_multi, transverse_split_pair(3, 1), [2, 2]),
        ("4space-pair/n21", verify_multi, transverse_split_pair(4, 2), [2, 1]),
    ]


def _regular_fixtures() -> list:
    r3 = ring_q("x", "y", "z")
    x, y, z = r3.gens()
    pxy = _coordinate(r3, "x", "y")
    conic = PrimeWitness(Ideal(r3, [z**2 + x*y]))
    return [
        ("xy-plane-prime-vs-z/m2-n1", verify_regular_case,
         pxy, _coordinate(r3, "z"), 2, 1),
        ("x-prime-vs-yz/m2-n2", verify_regular_case,
         _coordinate(r3, "x"), _coordinate(r3, "y", "z"), 2, 2),
        ("xy-prime-vs-conic/m2-n1", verify_regular_case, pxy, conic, 2, 1),
    ]


def _ci_fixtures() -> list:
    r3 = ring_q("x", "y", "z")
    x, y, z = r3.gens()
    return [
        ("line-vs-plane/m2-n1", verify_ci_product,
         Ideal(r3, [x]), Ideal(r3, [y, z]), 2, 1),
        ("plane-vs-line/m2-n2", verify_ci_product,
         Ideal(r3, [x, y]), Ideal(r3, [z]), 2, 2),
        ("parabola-pair-vs-plane/m2-n3", verify_ci_product,
         Ideal(r3, [x + z**2, y]), Ideal(r3, [z]), 2, 3),
    ]


def _affine_fixtures() -> list:
    p12, p23 = crossing_lines_pair()
    X1, X2, X3 = p12.ring.gens()
    p3 = _coordinate(p12.ring, "X3")
    curve = curve_345()
    x, y, z = curve.ring.gens()
    pz = _coordinate(curve.ring, "z")
    return [
        ("coordinate-product", affine_vanishing_report, X1 * X3, p12, p3),
        ("crossing-lines-vacuous", affine_vanishing_report, X2, p12, p23),
        ("curve-345-times-plane", affine_vanishing_report,
         z * (y**2 - x*z), curve, pz),
    ]
