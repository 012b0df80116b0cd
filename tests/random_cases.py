"""Seeded random polynomials and ideals for the acceptance suite: the
same seed draws the same cases."""

import random

from vanish.ideals import Ideal
from vanish.poly import Polynomial, PolyRing


def _random_exps(rng: random.Random, nvars: int,
                 max_degree: int, min_degree: int) -> tuple[int, ...]:
    exps = [0] * nvars
    for _ in range(rng.randint(min_degree, max_degree)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_monomial(rng: random.Random, ring: PolyRing,
                    max_degree: int = 3, min_degree: int = 1) -> Polynomial:
    return ring.monomial(_random_exps(rng, ring.nvars, max_degree, min_degree))


def random_polynomial(rng: random.Random, ring: PolyRing,
                      max_degree: int = 3, max_terms: int = 4) -> Polynomial:
    """Nonzero polynomial with small integer coefficients."""
    while True:
        f = ring.zero()
        for _ in range(rng.randint(1, max_terms)):
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            f = f + ring.monomial(_random_exps(rng, ring.nvars, max_degree, 0),
                                  coeff)
        if not f.is_zero():
            return f


def random_monomial_ideal(rng: random.Random, ring: PolyRing,
                          max_gens: int = 4, max_degree: int = 4) -> Ideal:
    gens = [random_monomial(rng, ring, max_degree)
            for _ in range(rng.randint(1, max_gens))]
    return Ideal(ring, gens)


def random_ideal(rng: random.Random, ring: PolyRing,
                 max_gens: int = 3, max_degree: int = 2,
                 max_terms: int = 3) -> Ideal:
    gens = [random_polynomial(rng, ring, max_degree, max_terms)
            for _ in range(rng.randint(1, max_gens))]
    return Ideal(ring, gens)
