"""Verifier behavior: hypothesis gating, witnesses, and the fixture
suites end to end."""

import pytest

from vanish.errors import RingMismatchError
from vanish.fixtures import (
    crossing_lines_pair,
    curve_345,
    fixture_reports,
    ring_q,
    transverse_split_pair,
)
from vanish.ideals import Ideal, coordinate_prime
from vanish.local import PrimeWitness
from vanish.theorems import (
    affine_vanishing_report,
    check_hypotheses,
    full_coordinate_prime,
    monomial_curve_prime,
    verify_ci_product,
    verify_multi,
    verify_regular_case,
    verify_sp2,
)


class TestHypotheses:
    def test_crossing_lines(self):
        p, q = crossing_lines_pair()
        hyp = check_hypotheses(p, q)
        assert hyp.radical_sum_is_maximal
        assert (hyp.dim_p, hyp.dim_q) == (1, 1)
        assert not hyp.dims_sum_to_d
        assert not hyp.all_hold

    def test_transverse_split(self):
        p, q = transverse_split_pair(3, 1)
        hyp = check_hypotheses(p, q)
        assert hyp.all_hold
        assert (hyp.dim_p, hyp.dim_q) == (2, 1)

    def test_parallel_planes_radical_not_maximal(self, r3):
        x, y, _ = r3.gens()
        hyp = check_hypotheses(PrimeWitness(Ideal(r3, [x])),
                               PrimeWitness(Ideal(r3, [y])))
        assert not hyp.radical_sum_is_maximal
        assert not hyp.dims_sum_to_d

    def test_ring_mismatch(self, r2, r3):
        p = PrimeWitness(coordinate_prime(r2, ["x"]))
        q = PrimeWitness(coordinate_prime(r3, ["x"]))
        with pytest.raises(RingMismatchError):
            check_hypotheses(p, q)

    def test_full_coordinate_prime(self, r3):
        assert full_coordinate_prime(r3) == coordinate_prime(
            r3, ["x", "y", "z"])


class TestSp2:
    def test_crossing_lines_counterexample(self):
        p, q = crossing_lines_pair()
        rep = verify_sp2(p, q, 1, 1)
        assert not rep.holds
        assert not rep.applicable
        assert rep.certified
        assert not rep.is_failure
        assert str(rep.witness) == "X2"
        assert rep.data == {"m": 1, "n": 1, "required_order": 2,
                            "min_order": 1}
        # the witness is replayable: in both primes, order too low
        assert rep.witness in p.ideal and rep.witness in q.ideal
        assert rep.witness.order_at_origin() == 1

    def test_split_holds_and_is_sharp(self):
        for d in (2, 3, 4):
            for i in range(1, d):
                p, q = transverse_split_pair(d, i)
                for m, n in ((1, 1), (2, 1), (2, 2)):
                    rep = verify_sp2(p, q, m, n)
                    assert rep.holds and rep.applicable and rep.certified
                    assert rep.data["min_order"] == m + n

    def test_curve_pair(self, r3):
        cur = curve_345(r3)
        qz = PrimeWitness(coordinate_prime(r3, ["z"]))
        rep = verify_sp2(cur, qz, 2, 2)
        assert rep.holds and rep.applicable and rep.certified
        assert rep.data["min_order"] == 5
        assert rep.data["required_order"] == 4

    def test_sp1_is_the_n1_slice(self):
        p, q = transverse_split_pair(3, 1)
        rep = verify_sp2(p, q, 2, 1)
        rep.case_id = "split/d3-i1/m2"
        sp1 = {r.case_id: r.to_dict() for r in fixture_reports("sp1", max_exp=2)}
        assert sp1[rep.case_id] == rep.to_dict()

    def test_exponent_validation(self):
        p, q = transverse_split_pair(2, 1)
        with pytest.raises(ValueError):
            verify_sp2(p, q, 0, 1)
        with pytest.raises(ValueError):     # was a TypeError from Ideal.__pow__
            verify_sp2(p, q, 1.5, 1)
        with pytest.raises(ValueError):
            verify_regular_case(p, q, 1, 1.5)

    def test_timings_collected(self):
        p, q = transverse_split_pair(2, 1)
        rep = verify_sp2(p, q, 1, 1)
        assert set(rep.timings) == {"hypotheses", "symbolic",
                                    "intersection", "check"}
        assert "timings" in rep.to_dict(include_timings=True)
        assert "timings" not in rep.to_dict()


class TestMulti:
    def test_three_coordinate_planes(self, r3):
        ps = [PrimeWitness(coordinate_prime(r3, [v])) for v in ("x", "y", "z")]
        rep = verify_multi(ps, [1, 1, 1])
        assert rep.holds and rep.applicable and rep.certified
        assert rep.data["heights"] == [1, 1, 1]
        assert rep.data["min_order"] == 3

    def test_pair_case_matches_sp2(self, r3):
        cur = curve_345(r3)
        qz = PrimeWitness(coordinate_prime(r3, ["z"]))
        for m, n in ((1, 1), (2, 1)):
            a = verify_multi([cur, qz], [m, n])
            b = verify_sp2(cur, qz, m, n)
            assert a.holds == b.holds
            assert a.applicable == b.applicable
            assert a.data["min_order"] == b.data["min_order"]

    def test_split_pair_exponents(self):
        p, q = transverse_split_pair(3, 1)
        rep = verify_multi([p, q], [2, 2])
        assert rep.holds and rep.applicable
        assert rep.data == {"exponents": [2, 2], "heights": [1, 2],
                            "heights_sum_to_d": True,
                            "radical_sum_is_maximal": True,
                            "required_order": 4, "min_order": 4}

    def test_height_deficient_is_inapplicable(self, r3):
        ps = [PrimeWitness(coordinate_prime(r3, ["x"])),
              PrimeWitness(coordinate_prime(r3, ["y"]))]
        rep = verify_multi(ps, [1, 1])
        assert not rep.applicable
        assert not rep.data["heights_sum_to_d"]

    def test_validation(self, r3, r2):
        p = PrimeWitness(coordinate_prime(r3, ["x"]))
        with pytest.raises(ValueError):
            verify_multi([], [])
        with pytest.raises(ValueError):
            verify_multi([p], [1, 2])
        with pytest.raises(ValueError):
            verify_multi([p], [0])
        q = PrimeWitness(coordinate_prime(r3, ["y", "z"]))
        with pytest.raises(ValueError):     # used to run as [1, 1] and hold
            verify_multi([p, q], [1.7, 1.2])
        with pytest.raises(RingMismatchError):
            verify_multi([p, PrimeWitness(coordinate_prime(r2, ["x"]))],
                         [1, 1])


class TestRegularCase:
    def test_conic_pair(self, r3):
        x, y, z = r3.gens()
        p = PrimeWitness(coordinate_prime(r3, ["x", "y"]))
        conic = PrimeWitness(Ideal(r3, [z**2 + x * y]))
        rep = verify_regular_case(p, conic, 2, 1)
        assert rep.holds and rep.applicable and rep.certified
        assert not rep.is_failure

    def test_diagonal_line_raw_containment_fails(self, r3):
        # with the dimension count broken the stronger conclusion really
        # is false, and the checker must surface it without calling it a
        # theorem failure
        x, y, z = r3.gens()
        p = PrimeWitness(coordinate_prime(r3, ["x", "y"]))
        q = PrimeWitness(Ideal(r3, [x - y, y - z]))
        rep = verify_regular_case(p, q, 2, 1)
        assert not rep.applicable
        assert not rep.holds
        assert not rep.is_failure
        assert str(rep.witness) == "x^2 - y^2"
        f = x**2 - y**2
        assert f in p.ideal**2 and f in q.ideal
        assert f not in p.ideal**2 * full_coordinate_prime(r3)

    def test_requires_coordinate_prime(self, r3):
        x, y, z = r3.gens()
        conic = PrimeWitness(Ideal(r3, [z**2 + x * y]))
        p = PrimeWitness(coordinate_prime(r3, ["x", "y"]))
        with pytest.raises(ValueError):
            verify_regular_case(conic, p, 1, 1)


class TestCiProduct:
    def test_line_vs_plane(self, r3):
        x, y, z = r3.gens()
        rep = verify_ci_product(Ideal(r3, [x, y]), Ideal(r3, [z]), 2, 1)
        assert rep.holds and rep.applicable and rep.certified
        assert rep.data["regular_sequence_proxy_I"]
        assert rep.data["height_I"] == 2

    def test_crossing_planes_not_equal(self, r3):
        x, y, z = r3.gens()
        rep = verify_ci_product(Ideal(r3, [x, y]), Ideal(r3, [y, z]), 1, 1)
        assert not rep.holds
        assert not rep.applicable
        assert not rep.is_failure
        assert str(rep.witness) == "y"
        assert rep.witness in Ideal(r3, [x, y]).intersect(Ideal(r3, [y, z]))

    def test_non_ci_generators_flagged(self, r3):
        x, y, z = r3.gens()
        rep = verify_ci_product(Ideal(r3, [x * y, x * z]), Ideal(r3, [z]), 1, 1)
        assert not rep.applicable
        assert not rep.data["regular_sequence_proxy_I"]

    def test_non_homogeneous_gets_bridge_note(self, r3):
        x, y, z = r3.gens()
        rep = verify_ci_product(Ideal(r3, [x + z**2, y]), Ideal(r3, [z]), 2, 3)
        assert rep.holds and rep.applicable
        assert "graded bridge unverified" in rep.notes

    def test_validation(self, r2, r3):
        x, y = r2.gens()
        with pytest.raises(ValueError):
            verify_ci_product(Ideal(r2, [x]), Ideal(r2, [y]), 0, 1)
        with pytest.raises(ValueError):
            verify_ci_product(Ideal(r2, [x]), Ideal(r2, [y]), 1, "2")
        with pytest.raises(RingMismatchError):
            verify_ci_product(Ideal(r2, [x]), Ideal(r3, []), 1, 1)


class TestAffine:
    def test_coordinate_product(self):
        r = ring_q("X1", "X2", "X3")
        X1, X2, X3 = r.gens()
        p = PrimeWitness(coordinate_prime(r, ["X1", "X2"]))
        q = PrimeWitness(coordinate_prime(r, ["X3"]))
        rep = affine_vanishing_report(X1 * X3, p, q)
        assert rep.holds and rep.applicable
        assert rep.data == {"ord_p": 1, "ord_q": 1, "order_at_origin": 2,
                            "required_order": 2}

    def test_vacuous_when_inapplicable(self):
        p, q = crossing_lines_pair()
        X2 = p.ring.variable("X2")
        rep = affine_vanishing_report(X2, p, q)
        assert rep.holds
        assert not rep.applicable
        assert rep.witness is None
        assert "hypotheses fail; the implication holds vacuously" in rep.notes
        assert rep.data["order_at_origin"] == 1
        assert rep.data["required_order"] == 2

    def test_curve_times_plane(self, r3):
        x, y, z = r3.gens()
        cur = curve_345(r3)
        qz = PrimeWitness(coordinate_prime(r3, ["z"]))
        rep = affine_vanishing_report(z * (y**2 - x * z), cur, qz)
        assert rep.holds and rep.applicable
        assert rep.data == {"ord_p": 1, "ord_q": 1, "order_at_origin": 3,
                            "required_order": 2}

    def test_input_validation(self, r3):
        x, y, z = r3.gens()
        p = PrimeWitness(coordinate_prime(r3, ["x", "y"]))
        q = PrimeWitness(coordinate_prime(r3, ["z"]))
        with pytest.raises(ValueError):
            affine_vanishing_report(r3.zero(), p, q)
        with pytest.raises(ValueError):
            affine_vanishing_report(x, p, q)  # not in q


class TestMonomialCurvePrime:
    def test_validation(self, r3):
        with pytest.raises(ValueError):
            monomial_curve_prime(r3, (3, 4))
        with pytest.raises(ValueError):
            monomial_curve_prime(r3, (3, 0, 5))
        with pytest.raises(ValueError):
            monomial_curve_prime(r3, (2, 4, 6))
        with pytest.raises(ValueError, match="bad exponent tuple"):
            monomial_curve_prime(r3, (3, 4.5, 5))
        # a generator is reported by its values, not as the spent ()
        with pytest.raises(ValueError, match=r"bad exponent tuple \(3, 4\.5, 5\)"):
            monomial_curve_prime(r3, (a for a in (3, 4.5, 5)))

    def test_witness_structure(self, r3):
        x, y, z = r3.gens()
        cur = monomial_curve_prime(r3, (3, 4, 5))
        assert cur.claimed_dim == 1
        assert cur.weights == (3, 4, 5)
        assert str(cur.witness) == "x"
        assert y**2 - x * z in cur.ideal

    def test_avoids_variable_capture(self):
        r = ring_q("t", "u")
        cur = monomial_curve_prime(r, (2, 3))
        t, u = r.gens()
        assert t**3 - u**2 in cur.ideal


class TestFixtureSuites:
    def test_sp2_suite(self):
        reports = fixture_reports("sp2")
        assert len(reports) == 56
        by_id = {rep.case_id: rep for rep in reports}
        assert len(by_id) == 56
        cross = by_id["crossing-lines/m1-n1"]
        assert not cross.applicable and not cross.holds
        assert str(cross.witness) == "X2"
        for cid, rep in by_id.items():
            if cid.startswith("split/"):
                assert rep.holds and rep.applicable and rep.certified
                assert rep.data["min_order"] == rep.data["required_order"]
        assert by_id["curve-345-vs-z-plane/m2-n2"].holds
        assert not any(rep.is_failure for rep in reports)

    def test_sp1_suite(self):
        reports = fixture_reports("sp1", max_exp=2)
        assert all(rep.claim == "sp2" for rep in reports)
        assert {rep.case_id for rep in reports if "crossing" in rep.case_id} \
            == {"crossing-lines/m1"}

    def test_multi_suite(self):
        by_id = {rep.case_id: rep for rep in fixture_reports("multi")}
        assert set(by_id) == {"three-planes/n111", "split-pair/n22",
                              "4space-pair/n21"}
        assert all(rep.holds and rep.applicable for rep in by_id.values())

    def test_regular_suite(self):
        reports = fixture_reports("regular")
        assert len(reports) == 3
        assert all(rep.holds and rep.applicable and rep.certified
                   for rep in reports)

    def test_ci_suite(self):
        by_id = {rep.case_id: rep for rep in fixture_reports("ci")}
        assert all(rep.holds and rep.applicable for rep in by_id.values())
        assert "graded bridge unverified" in \
            by_id["parabola-pair-vs-plane/m2-n3"].notes

    def test_ci_suite_computes_each_dimension_once(self, monkeypatch):
        # three rows, two ideals each: one dimension per ideal
        dimension = Ideal.dimension
        calls = []

        def counted(ideal):
            calls.append(ideal)
            return dimension(ideal)

        monkeypatch.setattr(Ideal, "dimension", counted)
        fixture_reports("ci")
        assert len(calls) == 6

    def test_affine_suite(self):
        by_id = {rep.case_id: rep for rep in fixture_reports("affine")}
        assert by_id["coordinate-product"].holds
        vac = by_id["crossing-lines-vacuous"]
        assert vac.holds and not vac.applicable
        assert by_id["curve-345-times-plane"].data["order_at_origin"] == 3

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            fixture_reports("mystery")


class TestInconclusive:
    """A declared prime that is not prime fails its symbolic-power
    certification; every claim then reports an inconclusive case rather
    than a failure or an error."""

    @pytest.fixture
    def fake_and_q(self, r3):
        x, y, z = r3.gens()
        # (xy, xz) = (x) cap (y, z) is not prime
        fake = PrimeWitness(Ideal(r3, [x * y, x * z]), claimed_dim=2,
                            witness=y)
        return fake, PrimeWitness(coordinate_prime(r3, ["y", "z"]))

    @staticmethod
    def assert_inconclusive(rep):
        assert not rep.applicable and not rep.certified
        assert not rep.holds and not rep.is_failure
        assert rep.witness is None
        assert rep.notes[0].startswith("inconclusive: ")

    def test_sp2(self, fake_and_q):
        self.assert_inconclusive(verify_sp2(*fake_and_q, 1, 1))

    def test_multi(self, fake_and_q):
        self.assert_inconclusive(verify_multi(fake_and_q, [1, 1]))

    def test_regular(self, r3, fake_and_q):
        fake, _ = fake_and_q
        p = PrimeWitness(coordinate_prime(r3, ["x"]))
        self.assert_inconclusive(verify_regular_case(p, fake, 1, 1))

    def test_affine(self, r3, fake_and_q):
        x, y, z = r3.gens()
        rep = affine_vanishing_report(x * y * z, *fake_and_q)
        self.assert_inconclusive(rep)
        assert rep.notes[0] == \
            "inconclusive: saturation of power 1 failed its contract"
        assert rep.hypotheses is not None and rep.data == {}
