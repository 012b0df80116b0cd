"""Hilbert series, multiplicities, local lengths, symbolic powers, and
orders of vanishing."""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from oracles import (
    local_length_by_box,
    monomial_dimension,
    monomials_of_degree,
    multiplicity_by_differences,
    numerator_by_counting,
)
from vanish import local
from vanish.errors import (
    OrdSearchCapError,
    TermCapExceededError,
    UncertifiedSymbolicPowerError,
    UnitIdealError,
    WitnessError,
)
from vanish.fields import QQ
from vanish.ideals import Ideal, coordinate_prime
from vanish.local import (
    HilbertData,
    PrimeWitness,
    associativity_check,
    graded_hilbert_data,
    hilbert_series,
    local_length_at_monomial_prime,
    multiplicity_graded,
    ord_along,
    symbolic_power,
    verify_isolated_singularity,
)
from vanish.poly import PolyRing
from vanish.theorems import monomial_curve_prime


@pytest.fixture
def curve345(r3):
    return monomial_curve_prime(r3, (3, 4, 5))


class TestHilbertSeries:
    def test_principal_coordinate(self, r2):
        x, _ = r2.gens()
        data = graded_hilbert_data(Ideal(r2, [x]))
        assert data == HilbertData((1,), 1, 1)

    def test_artinian(self, r2):
        x, y = r2.gens()
        assert graded_hilbert_data(Ideal(r2, [x**2, y])) == \
            HilbertData((1, 1), 0, 2)

    def test_embedded_component_cancels(self, r2):
        x, y = r2.gens()
        assert graded_hilbert_data(Ideal(r2, [x**2, x * y])) == \
            HilbertData((1, 1, -1), 1, 1)

    def test_zero_ideal(self, r2):
        assert graded_hilbert_data(Ideal(r2, [])) == HilbertData((1,), 2, 1)

    def test_square_of_maximal(self, r3):
        x, y, z = r3.gens()
        assert graded_hilbert_data(Ideal(r3, [x, y, z]) ** 2) == \
            HilbertData((1, 3), 0, 4)

    def test_unit_input(self, r2):
        with pytest.raises(UnitIdealError):
            graded_hilbert_data(Ideal(r2, [r2.one()]))
        assert hilbert_series([(0, 0)], r2) == HilbertData((0,), -1, 0)

    def test_numerator_nonzero_at_one(self, r3):
        # h(1) = 0 would mean an uncancelled (1 - t) factor
        rng = random.Random(5)
        monos = all_monomials_up_to(3, 3)
        for _ in range(40):
            picks = rng.sample(monos, rng.randint(1, 4))
            ideal = Ideal(r3, [r3.monomial(e) for e in picks])
            data = graded_hilbert_data(ideal)
            assert sum(data.numerator) != 0
            assert data.multiplicity >= 1

    def test_accepts_polynomials_or_exponents(self, r2):
        x, y = r2.gens()
        via_polys = hilbert_series([x**2, x * y], r2)
        via_exps = hilbert_series([(2, 0), (1, 1)], r2)
        assert via_polys == via_exps

    def test_numerator_length_within_term_cap(self, r2, low_term_cap):
        # x^3*y has deg(lcm) + 1 = 5 numerator coefficients
        low_term_cap(5)
        assert hilbert_series([(3, 1)], r2) == HilbertData((1, 1, 1, 1), 1, 4)
        low_term_cap(4)
        with pytest.raises(TermCapExceededError, match="Hilbert numerator"):
            hilbert_series([(3, 1)], r2)

    @pytest.mark.parametrize("nvars, gens", [
        (2, [(i, 1201 - i) for i in range(1, 1201)]),
        (4, monomials_of_degree(4, 3)),
        (5, monomials_of_degree(5, 4)[::3]),
        (6, monomials_of_degree(6, 2)),
    ])
    def test_recursion_depth_bounded_by_variable_count(self, monkeypatch,
                                                       nvars, gens):
        numerator = local._hilbert_numerator
        numerator.cache_clear()
        depth = deepest = 0

        def tracked(exps):
            nonlocal depth, deepest
            depth += 1
            deepest = max(deepest, depth)
            try:
                return numerator(exps)
            finally:
                depth -= 1

        monkeypatch.setattr(local, "_hilbert_numerator", tracked)
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(nvars)))
        hilbert_series(gens, ring)
        assert 1 < deepest <= nvars + 1

    @pytest.mark.parametrize("exps", [
        [(1, -2), (0, 1)],    # used to recurse without end
        [(-1, 0)],            # used to read as the unit ideal
        [(0.5, 1)],           # used to truncate to (0, 1)
        [(2, 0), ("1", 1)],
        [(1, 0, 0)],
    ])
    def test_bad_exponent_tuples_rejected(self, r2, exps):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            hilbert_series(exps, r2)


@st.composite
def monomial_generators(draw):
    """(nvars, exponent tuples): 1-5 variables, generators of degree 1-4,
    with repeated generators and multiples of generators mixed in."""
    nvars = draw(st.integers(1, 5))
    monos = [e for d in range(1, 5) for e in monomials_of_degree(nvars, d)]
    gens = draw(st.lists(st.sampled_from(monos), max_size=5))
    for g in draw(st.lists(st.sampled_from(gens), max_size=3)) if gens else []:
        i = draw(st.integers(0, nvars - 1))
        gens.append(g[:i] + (g[i] + 1,) + g[i + 1:] if sum(g) < 4 else g)
        gens.append(g)
    return nvars, draw(st.permutations(gens))


class TestHilbertSeriesDifferential:
    # The slicing recursion against standard-monomial counting, in more
    # variables and with more generators than the benchmark's ideals.
    @settings(max_examples=60, deadline=None)
    @given(monomial_generators())
    def test_matches_counting_oracles(self, case):
        nvars, gens = case
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(nvars)))
        data = hilbert_series(gens, ring)
        dim = monomial_dimension(gens, nvars)
        top = sum(max(col) for col in zip(*gens)) if gens else 0
        assert data.dimension == dim
        assert data.numerator == numerator_by_counting(gens, nvars, dim)
        assert data.multiplicity == multiplicity_by_differences(
            gens, nvars, dim, up_to_degree=top + nvars + 2)


def all_monomials_up_to(nvars, maxdeg):
    out = []
    for total in range(1, maxdeg + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


class TestMultiplicity:
    def test_monomial_curve(self, r3, curve345):
        assert multiplicity_graded(curve345.ideal) == 5

    def test_fermat_cubic(self, r3):
        x, y, z = r3.gens()
        assert multiplicity_graded(Ideal(r3, [x**3 + y**3 + z**3])) == 3

    def test_degree_filtration_of_affine_curve(self, r3):
        # non-homogeneous input is measured through its leading terms
        x, y, z = r3.gens()
        twisted = Ideal(r3, [y - x**2, z - x**3])
        assert multiplicity_graded(twisted) == 3

    def test_matches_difference_oracle(self, r3):
        rng = random.Random(23)
        monos = all_monomials_up_to(3, 3)
        for _ in range(50):
            picks = rng.sample(monos, rng.randint(1, 4))
            ideal = Ideal(r3, [r3.monomial(e) for e in picks])
            data = graded_hilbert_data(ideal)
            dim_oracle = monomial_dimension(picks, 3)
            assert data.dimension == dim_oracle
            assert data.multiplicity == multiplicity_by_differences(
                picks, 3, dim_oracle)


class TestLocalLength:
    def test_fat_plane(self, r2):
        x, _ = r2.gens()
        assert local_length_at_monomial_prime(Ideal(r2, [x**2]), ("x",)) == 2

    def test_embedded_part_invisible(self, r2):
        x, y = r2.gens()
        assert local_length_at_monomial_prime(
            Ideal(r2, [x**2, x * y]), ("x",)) == 1

    def test_localization_inverts_other_variables(self, r3):
        x, y, z = r3.gens()
        assert local_length_at_monomial_prime(
            Ideal(r3, [x**3, x**2 * y]), ("x",)) == 2

    def test_artinian_box(self, r3):
        x, y, z = r3.gens()
        assert local_length_at_monomial_prime(
            Ideal(r3, [x, y, z]) ** 2, ("x", "y", "z")) == 4

    def test_zero_ideal_at_zero_prime(self, r3):
        assert local_length_at_monomial_prime(Ideal(r3, []), ()) == 1

    def test_prime_must_contain_ideal(self, r3):
        x, y, z = r3.gens()
        with pytest.raises(ValueError):
            local_length_at_monomial_prime(Ideal(r3, [y]), ("x",))

    def test_unknown_variable(self, r3):
        x, _, _ = r3.gens()
        with pytest.raises(KeyError, match="no variable 'q' in"):
            local_length_at_monomial_prime(Ideal(r3, [x]), ["q"])

    def test_infinite_length_rejected(self, r3):
        # (x*y) localized at (x,y) is not artinian
        x, y, z = r3.gens()
        with pytest.raises(ValueError):
            local_length_at_monomial_prime(Ideal(r3, [x * y]), ("x", "y"))

    def test_length_within_term_cap(self, r2, low_term_cap):
        # the count goes through the Hilbert recursion and its cap
        x, _ = r2.gens()
        low_term_cap(5)
        assert local_length_at_monomial_prime(Ideal(r2, [x**4]), ("x",)) == 4
        with pytest.raises(TermCapExceededError, match="Hilbert numerator"):
            local_length_at_monomial_prime(Ideal(r2, [x**5]), ("x",))


@st.composite
def localizations(draw):
    """(nvars, exponent tuples, prime variable indices): 1-4 variables,
    exponents 0-4, the empty prime included; half the draws add a pure
    power of each prime variable, so that many lengths are finite."""
    nvars = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars), max_size=5))
    idxs = sorted(draw(st.sets(st.integers(0, nvars - 1))))
    if draw(st.booleans()):
        gens += [tuple(draw(st.integers(1, 4)) if j == i else 0
                       for j in range(nvars)) for i in idxs]
    return nvars, gens, idxs


@settings(max_examples=200, deadline=None)
@given(localizations())
def test_local_length_matches_box_count(case):
    nvars, gens, idxs = case
    ring = PolyRing(QQ, tuple(f"x{i}" for i in range(nvars)))
    ideal = Ideal(ring, [ring.monomial(e) for e in gens])
    names = [ring.variables[i] for i in idxs]
    try:
        expected = local_length_by_box(gens, idxs)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            local_length_at_monomial_prime(ideal, names)
        assert str(got.value) == str(exc)
    else:
        assert local_length_at_monomial_prime(ideal, names) == expected


class TestAssociativity:
    def test_single_plane_with_embedded_line(self, r3):
        x, y, z = r3.gens()
        rep = associativity_check(Ideal(r3, [x**2, x * y]))
        assert rep.holds
        assert rep.data["multiplicity"] == 1
        assert rep.data["terms"] == [
            {"prime": ["x"], "local_length": 1, "quotient_multiplicity": 1}]

    def test_two_planes(self, r3):
        x, y, z = r3.gens()
        rep = associativity_check(Ideal(r3, [x * y]))
        assert rep.holds
        assert rep.data["multiplicity"] == 2
        assert rep.data["local_sum"] == 2
        assert [t["prime"] for t in rep.data["terms"]] == [["y"], ["x"]]

    def test_lower_dimensional_component_ignored(self, r3):
        x, y, z = r3.gens()
        rep = associativity_check(Ideal(r3, [x**2 * y, x * z**2]))
        assert rep.holds
        assert rep.data["terms"] == [
            {"prime": ["x"], "local_length": 1, "quotient_multiplicity": 1}]

    def test_zero_ideal(self, r3):
        rep = associativity_check(Ideal(r3, []))
        assert rep.holds
        assert rep.data["multiplicity"] == 1
        assert rep.data["terms"][0]["prime"] == []

    def test_quotient_multiplicity_matches_graded(self, r3):
        # R/p is a polynomial ring, so each top prime's quotient has
        # multiplicity 1; the graded multiplicity of R/p agrees
        x, y, z = r3.gens()
        for gens in ([], [x * y * z], [x**2, x * y], [x * y, y * z**2],
                     [x**3, y**2, x * z]):
            for term in associativity_check(Ideal(r3, gens)).data["terms"]:
                prime = coordinate_prime(r3, term["prime"])
                assert term["quotient_multiplicity"] == multiplicity_graded(prime)

    @pytest.mark.parametrize("exps, top_primes", [
        ([(2, 1, 0), (1, 0, 2)], 1),     # x^2*y, x*z^2
        ([(1, 1, 1)], 3),                # x*y*z
    ], ids=["x2y-xz2", "xyz"])
    def test_generators_read_once(self, r3, monkeypatch, exps, top_primes):
        # both sides work from one read of the minimal generators
        calls = []
        read = Ideal.monomial_exponents

        def counting(self):
            calls.append(self)
            return read(self)

        monkeypatch.setattr(Ideal, "monomial_exponents", counting)
        rep = associativity_check(Ideal(r3, [r3.monomial(e) for e in exps]))
        assert rep.holds
        assert len(rep.data["terms"]) == top_primes
        assert len(calls) == 1

    def test_claim_label(self, r3):
        x, _, _ = r3.gens()
        rep = associativity_check(Ideal(r3, [x]))
        assert rep.claim == "multiplicity-additivity"
        assert rep.applicable and rep.certified


class TestPrimeWitness:
    def test_coordinate_certification(self, r3):
        p = PrimeWitness(coordinate_prime(r3, ["x", "y"]))
        assert p.is_coordinate_subspace
        assert p.certified
        assert str(p.witness) == "z"

    def test_principal_certification(self, r3):
        x, y, z = r3.gens()
        p = PrimeWitness(Ideal(r3, [x**2 + y**2 + z**2]))
        assert p.is_principal
        assert p.certified
        assert p.isolated_singularity_certified

    def test_claimed_dim_checked(self, r3):
        x, _, _ = r3.gens()
        with pytest.raises(ValueError):
            PrimeWitness(Ideal(r3, [x]), claimed_dim=1)
        assert PrimeWitness(Ideal(r3, [x]), claimed_dim=2).claimed_dim == 2

    def test_witness_not_in_prime(self, r3):
        x, y, z = r3.gens()
        with pytest.raises(WitnessError):
            PrimeWitness(Ideal(r3, [x, y]), witness=x)
        with pytest.raises(WitnessError):
            PrimeWitness(Ideal(r3, [x, y]), witness=r3.zero())

    def test_constant_witness_only_for_full_prime(self, r3):
        x, y, z = r3.gens()
        with pytest.raises(WitnessError):
            PrimeWitness(Ideal(r3, [x, y]), witness=r3.one())
        full = PrimeWitness(Ideal(r3, [x, y, z]), witness=r3.one())
        assert full.witness == r3.one()

    def test_unit_ideal_rejected(self, r3):
        with pytest.raises(UnitIdealError):
            PrimeWitness(Ideal(r3, [r3.one()]))

    def test_weights_validation(self, r3):
        x, y, z = r3.gens()
        ideal = Ideal(r3, [y**2 - x * z, x**2 * y - z**2, x**3 - y * z])
        with pytest.raises(ValueError):
            PrimeWitness(ideal, weights=(3, 4))
        with pytest.raises(ValueError):
            PrimeWitness(ideal, weights=(3, 0, 5))
        with pytest.raises(ValueError):     # used to truncate to (1, 2, 3)
            PrimeWitness(ideal, weights=(1.5, 2.2, 3.9))

    def test_witness_from_another_ring(self, r2, r3):
        x, y, _ = r3.gens()
        with pytest.raises(WitnessError):
            PrimeWitness(Ideal(r3, [x, y]), witness=r2.gens()[0])

    def test_probe_elements_avoid_prime(self, r3, curve345):
        # the saturation's last colon is by the witness, so it is no probe
        probes = curve345.probe_elements()
        assert probes == [r3.variable("y"), r3.variable("z")]
        assert curve345.witness == r3.variable("x")
        for u in probes:
            assert u not in curve345.ideal


class TestJacobianCertificate:
    def test_twisted_cubic(self, r3):
        tc = monomial_curve_prime(r3, (1, 2, 3))
        assert [str(g) for g in tc.ideal.gens] == \
            ["x^2 - y", "x*y - z", "y^2 - x*z"]
        assert tc.isolated_singularity_certified

    def test_weighted_curve(self, r3, curve345):
        # plain-homogeneous it is not; the weight vector rescues the check
        assert curve345.isolated_singularity_certified
        assert curve345.certified

    def test_smooth_plane_conic_cone(self, r3):
        x, y, z = r3.gens()
        p = PrimeWitness(Ideal(r3, [x**2 + y**2 + z**2]))
        assert verify_isolated_singularity(p)

    def test_crossing_planes_fail(self, r3):
        x, y, z = r3.gens()
        p = PrimeWitness(Ideal(r3, [x * y]))
        # the singular locus is a pair of lines, not just the origin; the
        # principal trust route still certifies the witness object
        assert not verify_isolated_singularity(p)
        assert p.certified

    def test_characteristic_p_refused(self, gf7):
        a, b = gf7.gens()
        p = PrimeWitness(Ideal(gf7, [a]))
        assert not verify_isolated_singularity(p)


class TestSymbolicPower:
    def test_coordinate_symbolic_equals_ordinary(self, r3):
        p = PrimeWitness(coordinate_prime(r3, ["x", "y"]))
        for m in (1, 2, 3, 4):
            assert symbolic_power(p, m) == p.ideal**m

    def test_principal_symbolic_equals_ordinary(self, r3):
        x, y, z = r3.gens()
        p = PrimeWitness(Ideal(r3, [x**2 + y**2 + z**2]))
        assert symbolic_power(p, 3) == p.ideal**3

    def test_curve_symbolic_square_strict(self, r3, curve345):
        sp2 = symbolic_power(curve345, 2)
        assert sp2 != curve345.ideal**2
        assert [str(g) for g in sp2.groebner_basis()] == [
            "x^5 + x*y^3 - 3*x^2*y*z + z^3",
            "x^3*y^2 - x^4*z - y^3*z + x*y*z^2",
            "x^2*y^3 - x^3*y*z - y^2*z^2 + x*z^3",
            "y^4 - 2*x*y^2*z + x^2*z^2",
        ]
        # ordinary square sits inside, and the symbolic square sits in p
        for g in (curve345.ideal**2).gens:
            assert g in sp2
        for g in sp2.groebner_basis():
            assert g in curve345.ideal

    def test_first_symbolic_power_is_prime(self, r3, curve345):
        assert symbolic_power(curve345, 1) == curve345.ideal

    def test_memoized(self, r3, curve345):
        assert symbolic_power(curve345, 2) is symbolic_power(curve345, 2)

    def test_bad_exponent(self, r3, curve345):
        with pytest.raises(ValueError):
            symbolic_power(curve345, 0)
        with pytest.raises(ValueError):
            symbolic_power(curve345, 1.5)

    def test_fake_prime_fails_certification(self, r3):
        x, y, z = r3.gens()
        fake = PrimeWitness(Ideal(r3, [x, y * z]), witness=y)
        with pytest.raises(UncertifiedSymbolicPowerError) as exc:
            symbolic_power(fake, 2)
        assert exc.value.diagnostics
        assert exc.value.ideal is not None

    def test_full_prime_constant_witness(self, r3):
        x, y, z = r3.gens()
        m = PrimeWitness(Ideal(r3, [x, y, z]), witness=r3.one())
        assert symbolic_power(m, 2) == m.ideal**2


class TestOrdAlong:
    def test_coordinate_orders(self, r3):
        x, y, z = r3.gens()
        p = PrimeWitness(coordinate_prime(r3, ["x", "y"]))
        assert ord_along(p, y) == 1
        assert ord_along(p, z) == 0
        assert ord_along(p, x**3) == 3
        assert ord_along(p, x**2 * y**3) == 5

    def test_curve_generator_order_one(self, r3, curve345):
        x, y, z = r3.gens()
        assert ord_along(curve345, y**2 - x * z) == 1

    def test_curve_symbolic_square_elements(self, r3, curve345):
        for g in symbolic_power(curve345, 2).groebner_basis():
            assert ord_along(curve345, g) == 2

    def test_origin_order_via_full_prime(self, r3):
        x, y, z = r3.gens()
        m = PrimeWitness(Ideal(r3, [x, y, z]), witness=r3.one())
        f = x * y + z**3
        assert ord_along(m, f) == f.order_at_origin() == 2

    def test_zero_poly_rejected(self, r3, curve345):
        with pytest.raises(ValueError):
            ord_along(curve345, r3.zero())

    def test_search_cap(self, r3):
        x, y, z = r3.gens()
        p = PrimeWitness(coordinate_prime(r3, ["x"]))
        with pytest.raises(OrdSearchCapError):
            ord_along(p, x**5, max_order=4)
        with pytest.raises(ValueError):     # was an OrdSearchCapError
            ord_along(p, y, max_order=0)
        with pytest.raises(ValueError):
            ord_along(p, y, max_order=1.5)
