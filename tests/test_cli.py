"""End-to-end CLI behavior: output strings, JSON schema conformance,
determinism, and exit codes."""

import hashlib
import json
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from vanish.cli import main

RING = """\
ring Q[x, y, z]
ideal p = x, y  witness=z dim=1
ideal q = z  dim=2 witness=x
ideal curve = y^2 - x*z, x^2*y - z^2, x^3 - y*z  witness=x dim=1 weights=3,4,5
ideal staircase = x^2, x*y
ideal m = x, y, z  witness=1 dim=0
ideal twolines = x, y*z  witness=y dim=1
ideal conic = z^2 + x*y  dim=2 witness=x
"""

CURVE_GB_GREVLEX = ["x^3 - y*z", "x^2*y - z^2", "y^2 - x*z"]
CURVE_GB_LEX = ["x^3 - y*z", "x^2*y - z^2", "x*y^3 - z^3", "x*z - y^2",
                "y^5 - z^4"]
CURVE_SP2_GB = [
    "x^5 + x*y^3 - 3*x^2*y*z + z^3",
    "x^3*y^2 - x^4*z - y^3*z + x*y*z^2",
    "x^2*y^3 - x^3*y*z - y^2*z^2 + x*z^3",
    "y^4 - 2*x*y^2*z + x^2*z^2",
]

# sha256 of `vanish verify <mode> --fixtures --json`, recorded from the
# original implementation (bench/fixture_digests.json holds the same values)
FIXTURE_JSON_SHA256 = {
    "sp1": "dadec07e0f9dda652406a7681255537fc0bce3231bd7e9babb65ae55b92c62b7",
    "sp2": "5101b4f331565ef092abcaf1f6f143d2f1b3744d562c38547207e92d7b7e1103",
    "multi": "a85980739a3b0641a50a6416cd68a455219adc727d0a59ff9b283cb151855e01",
    "regular": "2347c606b53fea3a2af637ccf899195cbf102d866622781bab121b5448d80e60",
    "ci": "7a6fe6d9c39cf2e128c356dd08d8d6f7bbab9e5c75e252cdfc45377858d7bcd0",
    "affine": "1d12aec00f8c586c40adff20971117748f94928d3978c0232adaa7e985e3fc73",
}


@pytest.fixture(scope="module")
def ideal_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ring.txt"
    path.write_text(RING, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def validator():
    schema_path = Path(__file__).resolve().parent.parent / "docs" / \
        "report-schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    Draft7Validator.check_schema(schema)
    return Draft7Validator(schema)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


class TestGb:
    def test_text_grevlex(self, run, ideal_file):
        code, out, err = run("gb", "-f", ideal_file, "-i", "curve")
        assert code == 0 and err == ""
        assert out == "".join(line + "\n" for line in CURVE_GB_GREVLEX)

    def test_text_lex(self, run, ideal_file):
        code, out, _ = run("gb", "-f", ideal_file, "-i", "curve",
                           "--order", "lex")
        assert code == 0
        assert out == "".join(line + "\n" for line in CURVE_GB_LEX)

    def test_json(self, run, ideal_file, validator):
        code, out, _ = run("gb", "-f", ideal_file, "-i", "curve", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"command": "gb", "ideal": "curve",
                           "order": "grevlex", "basis": CURVE_GB_GREVLEX}
        validator.validate(payload)


class TestMember:
    def test_yes_no(self, run, ideal_file):
        assert run("member", "-f", ideal_file, "-i", "curve",
                   "--poly", "y^2 - x*z")[:2] == (0, "true\n")
        assert run("member", "-f", ideal_file, "-i", "curve",
                   "--poly", "x + y")[:2] == (0, "false\n")

    def test_json(self, run, ideal_file, validator):
        code, out, _ = run("member", "-f", ideal_file, "-i", "p",
                           "--poly", "x^2 + y", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        validator.validate(payload)


class TestIntersectAndSaturate:
    def test_intersect_text(self, run, ideal_file):
        code, out, _ = run("intersect", "-f", ideal_file, "-i", "p", "-j", "q")
        assert (code, out) == (0, "x*z\ny*z\n")

    def test_intersect_json(self, run, ideal_file, validator):
        _, out, _ = run("intersect", "-f", ideal_file, "-i", "p", "-j", "q",
                        "--json")
        payload = json.loads(out)
        assert payload["ideals"] == ["p", "q"]
        assert payload["basis"] == ["x*z", "y*z"]
        validator.validate(payload)

    def test_saturate_text(self, run, ideal_file):
        code, out, _ = run("saturate", "-f", ideal_file, "-i", "staircase",
                           "--poly", "y")
        assert (code, out) == (0, "saturation index 1\nx\n")

    def test_saturate_json(self, run, ideal_file, validator):
        _, out, _ = run("saturate", "-f", ideal_file, "-i", "staircase",
                        "--poly", "y", "--json")
        payload = json.loads(out)
        assert payload["saturation_index"] == 1
        assert payload["basis"] == ["x"]
        validator.validate(payload)


class TestScalarCommands:
    def test_dim(self, run, ideal_file, validator):
        assert run("dim", "-f", ideal_file, "-i", "curve")[:2] == (0, "1\n")
        assert run("dim", "-f", ideal_file, "-i", "q")[:2] == (0, "2\n")
        _, out, _ = run("dim", "-f", ideal_file, "-i", "curve", "--json")
        validator.validate(json.loads(out))

    def test_ord(self, run, ideal_file, validator):
        assert run("ord", "-f", ideal_file, "-i", "curve",
                   "--poly", "y^2 - x*z")[:2] == (0, "1\n")
        _, out, _ = run("ord", "-f", ideal_file, "-i", "curve",
                        "--poly", "y^2 - x*z", "--json")
        payload = json.loads(out)
        assert payload["order"] == 1
        validator.validate(payload)

    def test_mult(self, run, ideal_file, validator):
        assert run("mult", "-f", ideal_file, "-i", "curve")[:2] == (0, "5\n")
        _, out, _ = run("mult", "-f", ideal_file, "-i", "curve", "--json")
        validator.validate(json.loads(out))

    def test_mult_with_large_exponents(self, run, tmp_path):
        # the Hilbert recursion slices on one variable at a time, so its
        # depth does not grow with the exponents
        path = tmp_path / "large.txt"
        path.write_text("ring Q[x, y, z]\n"
                        "ideal D = x^600*y^600, y^600*z^600, x^600*z^600\n",
                        encoding="utf-8")
        assert run("mult", "-f", str(path), "-i", "D")[:2] == (
            0, f"{3 * 600 ** 2}\n")

    def test_mult_of_a_long_staircase(self, run, tmp_path):
        # 1,200 generators x^i*y^(1201-i): the recursion depth is bounded
        # by the variable count, not by the number of generators
        path = tmp_path / "stair.txt"
        path.write_text("ring Q[x, y]\nideal S = " + ", ".join(
            f"x^{i}*y^{1201 - i}" for i in range(1, 1201)) + "\n",
            encoding="utf-8")
        assert run("mult", "-f", str(path), "-i", "S")[:2] == (0, "2\n")


class TestSymbolicPower:
    def test_curve_square(self, run, ideal_file):
        code, out, _ = run("symbolic-power", "-f", ideal_file, "-i", "curve",
                           "-m", "2")
        assert code == 0
        assert out == "".join(line + "\n" for line in CURVE_SP2_GB)

    def test_json_certified(self, run, ideal_file, validator):
        _, out, _ = run("symbolic-power", "-f", ideal_file, "-i", "curve",
                        "-m", "2", "--json")
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["basis"] == CURVE_SP2_GB
        validator.validate(payload)

    def test_uncertified_exits_one(self, run, ideal_file):
        code, out, err = run("symbolic-power", "-f", ideal_file,
                             "-i", "twolines", "-m", "1")
        assert code == 1
        assert out == ""
        assert "uncertified symbolic power" in err
        assert "diagnostic:" in err

    def test_bad_exponent(self, run, ideal_file):
        code, _, err = run("symbolic-power", "-f", ideal_file, "-i", "curve",
                           "-m", "0")
        assert code == 2 and "at least 1" in err


class TestAssocCheck:
    def test_text(self, run, ideal_file):
        code, out, _ = run("assoc-check", "-f", ideal_file, "-i", "staircase")
        assert code == 0
        assert "claim: multiplicity-additivity" in out
        assert "holds: true" in out

    def test_csv(self, run, ideal_file):
        code, out, _ = run("assoc-check", "-f", ideal_file, "-i", "staircase",
                           "--csv")
        assert code == 0
        assert out == (
            "case,claim,applicable,certified,holds,failure,witness,notes\n"
            "staircase,multiplicity-additivity,true,true,true,false,,\n")

    def test_json(self, run, ideal_file, validator):
        _, out, _ = run("assoc-check", "-f", ideal_file, "-i", "staircase",
                        "--json")
        payload = json.loads(out)
        assert payload["command"] == "assoc-check"
        assert payload["summary"]["failures"] == 0
        validator.validate(payload)

    def test_non_monomial_input(self, run, ideal_file):
        code, _, err = run("assoc-check", "-f", ideal_file, "-i", "conic")
        assert code == 2 and "monomial" in err

    def test_large_box(self, run, tmp_path):
        # 1.25e8 standard monomials, counted by the Hilbert recursion on
        # both sides rather than point by point
        path = tmp_path / "box.txt"
        path.write_text("ring Q[x, y, z]\nideal box = x^500, y^500, z^500\n",
                        encoding="utf-8")
        code, out, _ = run("assoc-check", "-f", str(path), "-i", "box")
        assert code == 0
        assert "local_sum=125000000" in out


class TestVerify:
    def test_single_sp2(self, run, ideal_file):
        code, out, _ = run("verify", "sp2", "-f", ideal_file,
                           "-i", "p", "-j", "q")
        assert code == 0
        assert out == (
            "case: p-vs-q\n"
            "claim: sp2\n"
            "holds: true\n"
            "applicable: true\n"
            "certified: true\n"
            "hypotheses: dim_p=1 dim_q=2 dims_sum_to_d=true "
            "radical_sum_is_maximal=true\n"
            "data: m=1 min_order=2 n=1 required_order=2\n")

    def test_fixtures_sweep(self, run):
        code, out, _ = run("verify", "sp2", "--fixtures", "--max-exp", "1")
        assert code == 0
        assert out.count("case:") == 8
        assert out.splitlines()[-1] == (
            "cases: 8  holds: 7  failures: 0  inapplicable: 1  uncertified: 0")

    def test_fixtures_json_schema(self, run, validator):
        code, out, _ = run("verify", "sp2", "--fixtures", "--max-exp", "1",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify" and payload["mode"] == "sp2"
        assert payload["summary"]["cases"] == 8
        validator.validate(payload)

    def test_multi(self, run, ideal_file):
        code, out, _ = run("verify", "multi", "-f", ideal_file,
                           "--primes", "p,q", "--exponents", "2,1")
        assert code == 0
        assert out.startswith("case: p+q\nclaim: multi\nholds: true\n")
        assert "min_order=3" in out

    def test_regular(self, run, ideal_file):
        code, out, _ = run("verify", "regular", "-f", ideal_file,
                           "-i", "p", "-j", "conic", "-m", "2", "-n", "1")
        assert code == 0
        assert "holds: true" in out and "applicable: true" in out

    def test_ci(self, run, ideal_file, validator):
        code, out, _ = run("verify", "ci", "-f", ideal_file,
                           "-i", "p", "-j", "q", "-m", "2", "-n", "1",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        rep = payload["reports"][0]
        assert rep["holds"] and rep["applicable"]
        validator.validate(payload)

    def test_sp1(self, run, ideal_file):
        code, out, _ = run("verify", "sp1", "-f", ideal_file,
                           "-i", "p", "-j", "q", "-m", "2")
        assert code == 0 and "claim: sp2" in out
        assert run("verify", "sp2", "-f", ideal_file, "-i", "p", "-j", "q",
                   "-m", "2", "-n", "1")[:2] == (code, out)

    def test_sp1_rejects_n(self, run, ideal_file):
        for source in (("-f", ideal_file, "-i", "p", "-j", "q"), ("--fixtures",)):
            code, out, err = run("verify", "sp1", *source, "-n", "2")
            assert (code, out) == (2, "") and "use sp2" in err

    def test_max_exp_applies_only_to_sp_fixture_suites(self, run, ideal_file):
        single = ("sp2", "-f", ideal_file, "-i", "p", "-j", "q")
        for args in (("multi", "--fixtures"), ("affine", "--fixtures"), single):
            code, out, err = run("verify", *args, "--max-exp", "2")
            assert (code, out) == (2, "")
            assert "applies only to the sp1 and sp2 --fixtures suites" in err
        # the default value stays accepted everywhere
        assert run("verify", *single, "--max-exp", "3") == run("verify", *single)

    def test_exponents_rejected_where_unused(self, run, ideal_file):
        # the fixture suites fix their exponents; multi reads --exponents
        # and affine reads none, so -m/-n there would be silently ignored
        unused = [("sp2", "--fixtures"), ("sp1", "--fixtures"),
                  ("multi", "--fixtures", "--json"),
                  ("multi", "-f", ideal_file, "--primes", "p,q",
                   "--exponents", "2,1"),
                  ("affine", "-f", ideal_file, "-i", "p", "-j", "q",
                   "--poly", "x*z")]
        for args in unused:
            for flags in (("-m", "4"), ("-n", "1"), ("-m", "1", "-n", "1")):
                code, out, err = run("verify", *args, *flags)
                assert (code, out) == (2, "")
                assert "-m and -n do not apply to" in err
        code, out, err = run("verify", "multi", "--fixtures", "-m", "4", "-n", "3",
                             "--json")
        assert (code, out) == (2, "") and "do not apply to --fixtures" in err
        assert "do not apply to affine mode" in run("verify", *unused[-1], "-n", "2")[2]

    def test_single_case_exponents_default_to_one(self, run, ideal_file):
        for mode, other in (("sp2", "q"), ("ci", "q"), ("regular", "conic")):
            base = ("verify", mode, "-f", ideal_file, "-i", "p", "-j", other)
            assert run(*base)[0] == 0
            assert run(*base) == run(*base, "-m", "1") == run(*base, "-n", "1")
            assert run(*base, "-m", "0")[0] == 2

    def test_affine_with_seed(self, run, ideal_file):
        code, out, _ = run("verify", "affine", "-f", ideal_file,
                           "-i", "p", "-j", "q", "--poly", "x*z",
                           "--seed", "7")
        assert code == 0
        assert out == (
            "seed: 7\n"
            "\n"
            "case: p-vs-q\n"
            "claim: affine\n"
            "holds: true\n"
            "applicable: true\n"
            "certified: true\n"
            "hypotheses: dim_p=1 dim_q=2 dims_sum_to_d=true "
            "radical_sum_is_maximal=true\n"
            "data: ord_p=1 ord_q=1 order_at_origin=2 required_order=2\n")

    def test_affine_uncertified_is_inconclusive(self, run, tmp_path,
                                                validator):
        # (xy, xz) is declared prime but is not; like every verify mode,
        # affine reports an inconclusive case instead of an error
        path = tmp_path / "fake.txt"
        path.write_text("ring Q[x, y, z]\n"
                        "ideal fake = x*y, x*z  witness=y dim=2\n"
                        "ideal q = y, z\n", encoding="utf-8")
        args = ("verify", "affine", "-f", str(path), "-i", "fake", "-j", "q",
                "--poly", "x*y*z")
        code, out, err = run(*args)
        assert (code, err) == (0, "")
        assert "note: inconclusive: saturation of power 1 failed its " \
               "contract\n" in out
        assert "applicable: false\ncertified: false\n" in out
        code, out, _ = run(*args, "--json")
        assert code == 0
        validator.validate(json.loads(out))

    def test_seed_in_json_envelope(self, run, ideal_file, validator):
        _, out, _ = run("verify", "sp2", "-f", ideal_file, "-i", "p",
                        "-j", "q", "--seed", "11", "--json")
        payload = json.loads(out)
        assert payload["seed"] == 11
        validator.validate(payload)

    def test_timings_opt_in(self, run, ideal_file):
        _, out, _ = run("verify", "sp2", "-f", ideal_file, "-i", "p",
                        "-j", "q", "--json")
        assert "timings" not in json.loads(out)["reports"][0]
        _, out, _ = run("verify", "sp2", "-f", ideal_file, "-i", "p",
                        "-j", "q", "--json", "--timings")
        timings = json.loads(out)["reports"][0]["timings"]
        assert timings and all(isinstance(v, float) for v in timings.values())

    def test_csv_format(self, run, ideal_file):
        code, out, _ = run("verify", "sp2", "-f", ideal_file, "-i", "p",
                           "-j", "q", "--csv")
        assert code == 0
        assert out == (
            "case,claim,applicable,certified,holds,failure,witness,notes\n"
            "p-vs-q,sp2,true,true,true,false,,\n")

    def test_missing_arguments(self, run, ideal_file):
        assert run("verify", "sp2", "-f", ideal_file, "-i", "p")[0] == 2
        assert run("verify", "sp2")[0] == 2
        assert run("verify", "multi", "-f", ideal_file,
                   "--primes", "p,q")[0] == 2
        assert run("verify", "affine", "-f", ideal_file, "-i", "p",
                   "-j", "q")[0] == 2
        assert run("verify", "sp2", "--fixtures", "-f", ideal_file)[0] == 2


class TestDeterminism:
    def test_byte_identical_json(self, run, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run("verify", "sp2", "--fixtures", "--max-exp", "1",
                             "--json", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mode", sorted(FIXTURE_JSON_SHA256))
    def test_fixture_json_matches_recorded_digest(self, run, tmp_path, mode):
        target = tmp_path / f"{mode}.json"
        code, out, _ = run("verify", mode, "--fixtures", "--json",
                           "--out", str(target))
        assert (code, out) == (0, "")
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == FIXTURE_JSON_SHA256[mode]

    def test_out_matches_stdout(self, run, ideal_file, tmp_path):
        _, stdout_text, _ = run("dim", "-f", ideal_file, "-i", "curve")
        target = tmp_path / "dim.txt"
        code, out, _ = run("dim", "-f", ideal_file, "-i", "curve",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == stdout_text


class TestExitCodes:
    def test_usage_errors(self, run, ideal_file, tmp_path):
        assert run("gb", "-f", str(tmp_path / "absent.txt"),
                   "-i", "p")[0] == 2
        assert run("gb", "-f", ideal_file, "-i", "mystery")[0] == 2
        assert run("member", "-f", ideal_file, "-i", "p",
                   "--poly", "x +")[0] == 2
        assert run("gb", "-f", ideal_file, "-i", "p",
                   "--order", "mystery")[0] == 2
        assert run()[0] == 2
        assert run("verify", "sp2", "--fixtures", "--json", "--csv")[0] == 2
        assert run("verify", "sp2", "--fixtures", "--max-exp", "0")[0] == 2
        assert run("gb", "-f", ideal_file, "-i", "p", "--jobs", "0")[0] == 2
        assert run("gb", "-f", ideal_file, "-i", "p", "--term-cap",
                   "-5")[0] == 2

    def test_deep_nesting_exits_two(self, run, ideal_file, tmp_path):
        nested = "(" * 3000 + "x" + ")" * 3000
        code, _, err = run("member", "-f", ideal_file, "-i", "p",
                           "--poly", nested)
        assert code == 2 and "nested too deeply" in err
        path = tmp_path / "deep.txt"
        path.write_text(f"ring Q[x, y]\nideal I = {nested}\n", encoding="utf-8")
        code, _, err = run("dim", "-f", str(path), "-i", "I")
        assert code == 2 and f"{path}:2: expression nested too deeply" in err

    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == 0 and "symbolic-power" in out

    def test_term_cap_exits_three(self, run, ideal_file):
        code, _, err = run("member", "-f", ideal_file, "-i", "m",
                           "--poly", "(x + y + z)^6", "--term-cap", "10")
        assert code == 3
        assert "resource cap" in err

    def test_huge_ideal_power_exits_three(self, run, ideal_file):
        # (x, y)^k has k + 1 generators: refused before any is formed
        for argv in (("symbolic-power", "-i", "p", "-m", str(10 ** 20)),
                     ("verify", "sp2", "-i", "p", "-j", "q",
                      "-m", "99999999999")):
            code, out, err = run(*argv, "-f", ideal_file)
            assert (code, out) == (3, "")
            assert "resource cap: ideal power" in err

    def test_huge_monomial_degree_exits_three(self, run, tmp_path):
        # the Hilbert numerator would have 10^20 + 2 coefficients
        path = tmp_path / "big.txt"
        path.write_text(f"ring Q[x, y]\nideal big = x^{10 ** 20}*y\n",
                        encoding="utf-8")
        for command in ("mult", "assoc-check"):
            code, out, err = run(command, "-f", str(path), "-i", "big")
            assert (code, out) == (3, "")
            assert "resource cap: Hilbert numerator" in err

    def test_claim_failure_exits_one(self, run, ideal_file):
        assert run("symbolic-power", "-f", ideal_file, "-i", "twolines",
                   "-m", "2")[0] == 1

    def test_term_cap_does_not_leak(self, run, ideal_file):
        from vanish import config
        before = config.term_cap()
        run("member", "-f", ideal_file, "-i", "m",
            "--poly", "(x + y + z)^6", "--term-cap", "10")
        assert config.term_cap() == before

    def test_term_cap_on_a_zero_dimensional_gf_ideal(self, run, tmp_path):
        # as the two tests above, on a zero-dimensional ideal over GF(p):
        # its basis's one query takes the division loop, not the table of
        # remainders, and the cap still bounds it
        from vanish import config
        path = tmp_path / "gf.txt"
        path.write_text("ring GF(32003)[x, y, z]\n"
                        "ideal zd = x^2 - y - 1, y^2 - z + 2*x, z^2 - x + 3\n",
                        encoding="utf-8")
        gf_file = str(path)
        before = config.term_cap()
        code, _, err = run("member", "-f", gf_file, "-i", "zd",
                           "--poly", "x^4*y^4*z^4", "--term-cap", "10")
        assert code == 3 and "resource cap: reduction intermediate" in err
        assert config.term_cap() == before
        assert run("member", "-f", gf_file, "-i", "zd", "--poly", "x^4*y^4*z^4") == (
            0, "false\n", "")


class TestGfRings:
    def test_gb_over_gf7(self, run, tmp_path):
        path = tmp_path / "gf.txt"
        path.write_text("ring GF(7)[x, y]\nideal I = x^2 + y, y^2 + x\n",
                        encoding="utf-8")
        code, out, _ = run("gb", "-f", str(path), "-i", "I")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x^2 + y"
        code, out, _ = run("member", "-f", str(path), "-i", "I",
                           "--poly", "8*x^2 + y + 7")
        assert (code, out) == (0, "true\n")

    def test_large_prime_fields(self, run, tmp_path):
        path = tmp_path / "gf.txt"
        path.write_text("ring GF(2305843009213693951)[x, y]\nideal I = x*y\n",
                        encoding="utf-8")
        assert run("dim", "-f", str(path), "-i", "I")[:2] == (0, "1\n")
        path.write_text("ring GF(4)[x, y]\nideal I = x\n", encoding="utf-8")
        code, _, err = run("dim", "-f", str(path), "-i", "I")
        assert code == 2 and f"{path}:1: prime field" in err
