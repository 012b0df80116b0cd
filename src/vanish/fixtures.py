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


def crossing_lines_pair() -> tuple[PrimeWitness, PrimeWitness]:
    """Two coordinate lines through the origin sharing a plane.

    The dimensions sum to 2 < 3, so this is the standard pair where the
    containment conclusion fails and the shared coordinate witnesses it.
    """
    ring = ring_q("X1", "X2", "X3")
    p = PrimeWitness(coordinate_prime(ring, ["X1", "X2"]))
    q = PrimeWitness(coordinate_prime(ring, ["X2", "X3"]))
    return p, q


def transverse_split_pair(d: int, i: int) -> tuple[PrimeWitness, PrimeWitness]:
    """Complementary coordinate subspaces of Q[X1..Xd] split after Xi."""
    if not 1 <= i < d:
        raise ValueError(f"split index {i} out of range for d={d}")
    ring = ring_q(*(f"X{k}" for k in range(1, d + 1)))
    p = PrimeWitness(coordinate_prime(ring, ring.variables[:i]))
    q = PrimeWitness(coordinate_prime(ring, ring.variables[i:]))
    return p, q


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
    pairs: list[tuple[str, PrimeWitness, PrimeWitness]] = []

    r2 = ring_q("x", "y")
    pairs.append(("plane/x-axis-vs-y-axis",
                  PrimeWitness(coordinate_prime(r2, ["x"])),
                  PrimeWitness(coordinate_prime(r2, ["y"]))))

    r3 = ring_q("x", "y", "z")
    coord = {name: PrimeWitness(coordinate_prime(r3, [name]))
             for name in r3.variables}
    pairs.append(("space/z-axis-vs-xy-plane",
                  PrimeWitness(coordinate_prime(r3, ["x", "y"])), coord["z"]))
    pairs.append(("space/yz-plane-vs-x-axis",
                  coord["x"],
                  PrimeWitness(coordinate_prime(r3, ["y", "z"]))))
    pairs.append(("space/y-axis-vs-xz-plane",
                  PrimeWitness(coordinate_prime(r3, ["x", "z"])), coord["y"]))

    r4 = ring_q("x1", "x2", "x3", "x4")
    pairs.append(("4space/plane-vs-plane",
                  PrimeWitness(coordinate_prime(r4, ["x1", "x2"])),
                  PrimeWitness(coordinate_prime(r4, ["x3", "x4"]))))
    pairs.append(("4space/hyperplane-vs-line",
                  PrimeWitness(coordinate_prime(r4, ["x1"])),
                  PrimeWitness(coordinate_prime(r4, ["x2", "x3", "x4"]))))
    pairs.append(("4space/line-vs-hyperplane",
                  PrimeWitness(coordinate_prime(r4, ["x1", "x2", "x3"])),
                  PrimeWitness(coordinate_prime(r4, ["x4"]))))

    c345 = curve_345(r3)
    for name in r3.variables:
        pairs.append((f"curve-345-vs-{name}-plane", c345, coord[name]))
    c123 = monomial_curve_prime(r3, (1, 2, 3))
    pairs.append(("curve-123-vs-x-plane", c123, coord["x"]))

    x, y, z = r3.gens()
    pairs.append(("hyperplane-vs-z-axis",
                  PrimeWitness(Ideal(r3, [x + y + z])),
                  PrimeWitness(coordinate_prime(r3, ["x", "y"]))))
    pairs.append(("quadric-cone-vs-y-axis",
                  PrimeWitness(Ideal(r3, [y**2 - x*z])),
                  PrimeWitness(coordinate_prime(r3, ["x", "z"]))))
    pairs.append(("sphere-cone-vs-z-axis",
                  PrimeWitness(Ideal(r3, [x**2 + y**2 + z**2])),
                  PrimeWitness(coordinate_prime(r3, ["x", "y"]))))
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

def _exp_range(max_exp: int):
    return range(1, max_exp + 1)


def fixture_reports(mode: str, max_exp: int = 3) -> list[VerificationReport]:
    """The bundled verification suite for one CLI mode.

    Reports come back in deterministic case order; the caller only needs
    to format them.
    """
    builders = {
        "sp2": lambda k: _sp_fixtures(k, _exp_range(k), 2, "m{m}-n{n}"),
        "sp1": lambda k: _sp_fixtures(k, (1,), 1, "m{m}"),
        "multi": _multi_fixtures,
        "regular": _regular_fixtures,
        "ci": _ci_fixtures,
        "affine": _affine_fixtures,
    }
    if mode not in builders:
        raise ValueError(f"unknown verify mode {mode!r}")
    reports = builders[mode](max_exp)
    for rep in reports:
        if rep.case_id is None:
            raise AssertionError("fixture report missing a case id")
    return reports


def _tag(rep: VerificationReport, case_id: str) -> VerificationReport:
    rep.case_id = case_id
    return rep


def _sp_fixtures(max_exp: int, n_range, curve_n: int,
                 suffix: str) -> list[VerificationReport]:
    """The sp2 suite, or its n = 1 slice (sp1); ``suffix`` formats m and n
    into the end of each case id."""
    cases = [("crossing-lines", crossing_lines_pair(), 1, 1)]
    for d in (2, 3, 4):
        for i in range(1, d):
            pair = transverse_split_pair(d, i)
            cases += [(f"split/d{d}-i{i}", pair, m, n)
                      for m in _exp_range(max_exp) for n in n_range]
    curve = curve_345()
    plane = PrimeWitness(coordinate_prime(curve.ring, ["z"]))
    cases.append(("curve-345-vs-z-plane", (curve, plane), 2, curve_n))
    return [_tag(verify_sp2(*pair, m, n), f"{name}/" + suffix.format(m=m, n=n))
            for name, pair, m, n in cases]


def _multi_fixtures(max_exp: int) -> list[VerificationReport]:
    ring = ring_q("X1", "X2", "X3")
    axes = [PrimeWitness(coordinate_prime(ring, [v])) for v in ring.variables]
    reports = [_tag(verify_multi(axes, [1, 1, 1]), "three-planes/n111")]
    sp, sq = transverse_split_pair(3, 1)
    reports.append(_tag(verify_multi([sp, sq], [2, 2]), "split-pair/n22"))
    p4, q4 = transverse_split_pair(4, 2)
    reports.append(_tag(verify_multi([p4, q4], [2, 1]), "4space-pair/n21"))
    return reports


def _regular_fixtures(max_exp: int) -> list[VerificationReport]:
    r3 = ring_q("x", "y", "z")
    x, y, z = r3.gens()
    pxy = PrimeWitness(coordinate_prime(r3, ["x", "y"]))
    px = PrimeWitness(coordinate_prime(r3, ["x"]))
    pz = PrimeWitness(coordinate_prime(r3, ["z"]))
    pyz = PrimeWitness(coordinate_prime(r3, ["y", "z"]))
    conic = PrimeWitness(Ideal(r3, [z**2 + x*y]))
    return [
        _tag(verify_regular_case(pxy, pz, 2, 1), "xy-plane-prime-vs-z/m2-n1"),
        _tag(verify_regular_case(px, pyz, 2, 2), "x-prime-vs-yz/m2-n2"),
        _tag(verify_regular_case(pxy, conic, 2, 1), "xy-prime-vs-conic/m2-n1"),
    ]


def _ci_fixtures(max_exp: int) -> list[VerificationReport]:
    r3 = ring_q("x", "y", "z")
    x, y, z = r3.gens()
    return [
        _tag(verify_ci_product(Ideal(r3, [x]), Ideal(r3, [y, z]), 2, 1),
             "line-vs-plane/m2-n1"),
        _tag(verify_ci_product(Ideal(r3, [x, y]), Ideal(r3, [z]), 2, 2),
             "plane-vs-line/m2-n2"),
        _tag(verify_ci_product(Ideal(r3, [x + z**2, y]), Ideal(r3, [z]), 2, 3),
             "parabola-pair-vs-plane/m2-n3"),
    ]


def _affine_fixtures(max_exp: int) -> list[VerificationReport]:
    ring = ring_q("X1", "X2", "X3")
    X1, X2, X3 = ring.gens()
    p12 = PrimeWitness(coordinate_prime(ring, ["X1", "X2"]))
    p23 = PrimeWitness(coordinate_prime(ring, ["X2", "X3"]))
    p3 = PrimeWitness(coordinate_prime(ring, ["X3"]))
    reports = [
        _tag(affine_vanishing_report(X1 * X3, p12, p3), "coordinate-product"),
        _tag(affine_vanishing_report(X2, p12, p23), "crossing-lines-vacuous"),
    ]
    curve = curve_345()
    x, y, z = curve.ring.gens()
    pz = PrimeWitness(coordinate_prime(curve.ring, ["z"]))
    reports.append(_tag(affine_vanishing_report(z * (y**2 - x*z), curve, pz),
                        "curve-345-times-plane"))
    return reports
