"""Command-line front end.

Subcommands operate on named ideals from a self-describing ideal file
(see :mod:`vanish.idealfile`) or on the bundled fixture suites. Output
is deterministic: identical inputs and flags produce byte-identical
reports. Timings are only included when explicitly requested, since
they would break that guarantee.

Exit codes: 0 success, 1 claim failure, 2 usage or parse error,
3 resource-cap abort.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import config
from .errors import (
    OrdSearchCapError,
    ParseError,
    TermCapExceededError,
    UncertifiedSymbolicPowerError,
    VanishError,
)
from .fixtures import fixture_reports
from .idealfile import IdealFile
from .local import associativity_check, multiplicity_graded, ord_along, symbolic_power
from .orders import GREVLEX, GRLEX, LEX, MonomialOrder
from .parser import parse_polynomial
from .reports import VerificationReport
from .theorems import (
    affine_vanishing_report,
    verify_ci_product,
    verify_multi,
    verify_regular_case,
    verify_sp2,
)

_ORDERS: dict[str, MonomialOrder] = {
    "lex": LEX,
    "grlex": GRLEX,
    "grevlex": GREVLEX,
}

VERIFY_MODES = ("sp1", "sp2", "multi", "regular", "ci", "affine")
DEFAULT_MAX_EXP = 3

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _basis_lines(ideal, order: MonomialOrder = GREVLEX) -> list[str]:
    return [g.render(order) for g in ideal.groebner_basis(order)]


def _lines(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# file-based subcommands: each returns (JSON payload, text output)
# ---------------------------------------------------------------------------

def _gb(f: IdealFile, args):
    lines = _basis_lines(f.ideal(args.ideal), _ORDERS[args.order])
    return {"ideal": args.ideal, "order": args.order, "basis": lines}, _lines(lines)


def _member(f: IdealFile, args):
    ideal = f.ideal(args.ideal)
    poly = parse_polynomial(args.poly, f.ring)
    inside = poly in ideal
    return ({"ideal": args.ideal, "poly": str(poly), "member": inside},
            _flatten_value(inside) + "\n")


def _intersect(f: IdealFile, args):
    lines = _basis_lines(f.ideal(args.ideal).intersect(f.ideal(args.other)))
    return {"ideals": [args.ideal, args.other], "basis": lines}, _lines(lines)


def _saturate(f: IdealFile, args):
    poly = parse_polynomial(args.poly, f.ring)
    result, index = f.ideal(args.ideal).saturate(poly)
    lines = _basis_lines(result)
    return ({"ideal": args.ideal, "poly": str(poly), "saturation_index": index,
             "basis": lines},
            f"saturation index {index}\n" + _lines(lines))


def _dim(f: IdealFile, args):
    value = f.ideal(args.ideal).dimension()
    return {"ideal": args.ideal, "dimension": value}, f"{value}\n"


def _symbolic_power(f: IdealFile, args):
    prime = f.prime_witness(args.ideal)
    if args.m < 1:
        raise ParseError("-m must be at least 1")
    lines = _basis_lines(symbolic_power(prime, args.m))
    return ({"ideal": args.ideal, "m": args.m, "certified": prime.certified,
             "basis": lines}, _lines(lines))


def _ord(f: IdealFile, args):
    prime = f.prime_witness(args.ideal)
    poly = parse_polynomial(args.poly, f.ring)
    value = ord_along(prime, poly)
    return {"ideal": args.ideal, "poly": str(poly), "order": value}, f"{value}\n"


def _mult(f: IdealFile, args):
    value = multiplicity_graded(f.ideal(args.ideal))
    return {"ideal": args.ideal, "multiplicity": value}, f"{value}\n"


_FILE_COMMANDS = {
    "gb": ("reduced Groebner basis of a named ideal", _gb),
    "member": ("test polynomial membership", _member),
    "intersect": ("intersection of two named ideals", _intersect),
    "saturate": ("saturation of a named ideal by a polynomial", _saturate),
    "dim": ("Krull dimension of the quotient ring", _dim),
    "symbolic-power": ("certified symbolic power of a declared prime",
                       _symbolic_power),
    "ord": ("order of vanishing along a declared prime", _ord),
    "mult": ("Hilbert-Samuel multiplicity", _mult),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _common(p: argparse.ArgumentParser, file_required: bool = True,
            csv_ok: bool = False) -> None:
    """The flags every subcommand shares."""
    p.add_argument("-f", "--file", required=file_required, metavar="PATH",
                   help="ideal file (ring header + named ideals)")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON report instead of text")
    if csv_ok:
        p.add_argument("--csv", action="store_true",
                       help="emit CSV rows instead of text")
    p.add_argument("--out", metavar="PATH",
                   help="write the report to PATH instead of stdout")
    p.add_argument("--term-cap", type=int, metavar="N",
                   help="abort any product exceeding N terms")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanish",
        description="Exact ideal computations and symbolic-power "
                    "containment checks over Q and GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {}
    for name, (help_text, _) in _FILE_COMMANDS.items():
        cmd[name] = sub.add_parser(name, help=help_text)
        cmd[name].add_argument("-i", "--ideal", required=True, metavar="NAME")
    cmd["gb"].add_argument("--order", choices=sorted(_ORDERS), default="grevlex")
    cmd["intersect"].add_argument("-j", "--other", required=True, metavar="NAME")
    for name in ("member", "saturate", "ord"):
        cmd[name].add_argument("--poly", required=True, metavar="POLY")
    cmd["symbolic-power"].add_argument("-m", type=int, required=True, metavar="M")
    for p in cmd.values():
        _common(p)

    p_assoc = sub.add_parser(
        "assoc-check",
        help="multiplicity additivity check for a monomial ideal")
    p_assoc.add_argument("-i", "--ideal", required=True, metavar="NAME")
    _common(p_assoc, csv_ok=True)

    p_verify = sub.add_parser(
        "verify", help="run a containment or product-equality verification")
    p_verify.add_argument("mode", choices=VERIFY_MODES)
    p_verify.add_argument("--fixtures", action="store_true",
                          help="run the bundled suite for this mode")
    p_verify.add_argument("-i", "--ideal", metavar="NAME",
                          help="first ideal/prime name")
    p_verify.add_argument("-j", "--other", metavar="NAME",
                          help="second ideal/prime name")
    p_verify.add_argument("--primes", metavar="NAMES",
                          help="comma-separated prime names (multi mode)")
    p_verify.add_argument("--exponents", metavar="INTS",
                          help="comma-separated exponents (multi mode)")
    p_verify.add_argument("--poly", metavar="POLY",
                          help="polynomial to test (affine mode)")
    p_verify.add_argument("-m", type=int, metavar="M")
    p_verify.add_argument("-n", type=int, metavar="N")
    p_verify.add_argument("--max-exp", type=int, default=DEFAULT_MAX_EXP,
                          metavar="K",
                          help="exponent sweep bound of the sp1 and sp2 "
                               "--fixtures suites (default 3); applies "
                               "only to those suites")
    p_verify.add_argument("--seed", type=int, metavar="SEED",
                          help="echoed into the report envelope")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall-clock timings (breaks "
                               "byte-identical output)")
    _common(p_verify, file_required=False, csv_ok=True)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

def _flatten_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value, sort_keys=True)


def _report_text(rep: VerificationReport) -> str:
    d = rep.to_dict()
    lines = []
    if d.get("case_id"):
        lines.append(f"case: {d['case_id']}")
    lines.append(f"claim: {d['claim']}")
    for key in ("holds", "applicable", "certified"):
        lines.append(f"{key}: {_flatten_value(d[key])}")
    if d.get("witness") is not None:
        lines.append(f"witness: {d['witness']}")
    if d.get("hypotheses") is not None:
        hyp = d["hypotheses"]
        parts = [f"{k}={_flatten_value(v)}" for k, v in sorted(hyp.items())
                 if k != "notes"]
        lines.append("hypotheses: " + " ".join(parts))
    if d["notes"]:
        for note in d["notes"]:
            lines.append(f"note: {note}")
    if d["data"]:
        parts = [f"{k}={_flatten_value(v)}" for k, v in sorted(d["data"].items())]
        lines.append("data: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def _summary(reports: list[VerificationReport]) -> dict:
    return {
        "cases": len(reports),
        "holds": sum(1 for r in reports if r.holds),
        "failures": sum(1 for r in reports if r.is_failure),
        "inapplicable": sum(1 for r in reports if not r.applicable),
        "uncertified": sum(1 for r in reports if not r.certified),
    }


def _render_reports(reports: list[VerificationReport], args,
                    envelope: dict) -> str:
    if args.json:
        payload = dict(envelope)
        payload["reports"] = [
            r.to_dict(include_timings=getattr(args, "timings", False))
            for r in reports]
        payload["summary"] = _summary(reports)
        return _json_dump(payload)
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["case", "claim", "applicable", "certified",
                         "holds", "failure", "witness", "notes"])
        for r in reports:
            writer.writerow([
                r.case_id or "", r.claim,
                _flatten_value(r.applicable), _flatten_value(r.certified),
                _flatten_value(r.holds), _flatten_value(r.is_failure),
                "" if r.witness is None else str(r.witness),
                "; ".join(r.notes),
            ])
        return buf.getvalue()
    blocks = [_report_text(r) for r in reports]
    s = _summary(reports)
    if len(reports) > 1:
        blocks.append(
            f"cases: {s['cases']}  holds: {s['holds']}  "
            f"failures: {s['failures']}  inapplicable: {s['inapplicable']}  "
            f"uncertified: {s['uncertified']}\n")
    if envelope.get("seed") is not None:
        blocks.insert(0, f"seed: {envelope['seed']}\n")
    return "\n".join(blocks)


def _emit_reports(reports: list[VerificationReport], args,
                  envelope: dict) -> int:
    _emit(_render_reports(reports, args, envelope), args.out)
    if any(r.is_failure for r in reports):
        return EXIT_CLAIM_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# report subcommands
# ---------------------------------------------------------------------------

def _cmd_assoc_check(args) -> int:
    f = IdealFile.load(args.file)
    report = associativity_check(f.ideal(args.ideal))
    report.case_id = args.ideal
    return _emit_reports([report], args, {"command": "assoc-check"})


# the verify modes that take two named ideals and -m, -n
_PAIR_VERIFIERS = {"sp1": verify_sp2, "sp2": verify_sp2,
                   "regular": verify_regular_case, "ci": verify_ci_product}


def _verify_single(args) -> list[VerificationReport]:
    if args.file is None:
        raise ParseError("verify needs --fixtures or an ideal file with -f")
    f = IdealFile.load(args.file)
    mode = args.mode
    m, n = (1 if v is None else v for v in (args.m, args.n))
    if m < 1 or n < 1:
        raise ParseError("-m and -n must be at least 1")
    if mode == "multi":
        if not args.primes or not args.exponents:
            raise ParseError("multi mode needs --primes and --exponents")
        names = [s.strip() for s in args.primes.split(",") if s.strip()]
        try:
            exps = [int(s) for s in args.exponents.split(",")]
        except ValueError:
            raise ParseError("--exponents must be comma-separated "
                             "integers") from None
        rep = verify_multi([f.prime_witness(name) for name in names], exps)
        rep.case_id = "+".join(names)
        return [rep]
    if not args.ideal or not args.other:
        raise ParseError(f"{mode} mode needs -i and -j ideal names")
    # ci compares ideals; every other claim reads declared primes
    load = f.ideal if mode == "ci" else f.prime_witness
    if mode == "affine":
        if not args.poly:
            raise ParseError("affine mode needs --poly")
        poly = parse_polynomial(args.poly, f.ring)
        rep = affine_vanishing_report(poly, load(args.ideal), load(args.other))
    else:
        rep = _PAIR_VERIFIERS[mode](load(args.ideal), load(args.other), m, n)
    rep.case_id = f"{args.ideal}-vs-{args.other}"
    return [rep]


def _cmd_verify(args) -> int:
    if args.mode == "sp1" and args.n not in (None, 1):
        raise ParseError("sp1 mode has n = 1; use sp2 for -n other than 1")
    if args.max_exp != DEFAULT_MAX_EXP and not (
            args.fixtures and args.mode in ("sp1", "sp2")):
        raise ParseError("--max-exp applies only to the sp1 and sp2 "
                         "--fixtures suites")
    if args.max_exp < 1:
        raise ParseError("--max-exp must be at least 1")
    if (args.m, args.n) != (None, None) and (
            args.fixtures or args.mode in ("multi", "affine")):
        where = "--fixtures" if args.fixtures else f"{args.mode} mode"
        raise ParseError(f"-m and -n do not apply to {where}")
    if args.fixtures:
        if args.file is not None:
            raise ParseError("--fixtures and -f are mutually exclusive")
        reports = fixture_reports(args.mode, max_exp=args.max_exp)
    else:
        reports = _verify_single(args)
    envelope = {"command": "verify", "mode": args.mode,
                "max_exp": args.max_exp, "seed": args.seed}
    return _emit_reports(reports, args, envelope)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # --term-cap is per invocation; don't leak it to later in-process calls
    saved_cap = config.term_cap()
    try:
        if args.json and getattr(args, "csv", False):
            raise ParseError("choose at most one of --json and --csv")
        if args.term_cap is not None:
            if args.term_cap <= 0:
                raise ParseError("--term-cap must be positive")
            config.set_term_cap(args.term_cap)
        if args.command == "assoc-check":
            return _cmd_assoc_check(args)
        if args.command == "verify":
            return _cmd_verify(args)
        f = IdealFile.load(args.file)
        payload, text = _FILE_COMMANDS[args.command][1](f, args)
        _emit(_json_dump({"command": args.command, **payload}) if args.json
              else text, args.out)
        return EXIT_OK
    except UncertifiedSymbolicPowerError as exc:
        print(f"error: uncertified symbolic power: {exc}", file=sys.stderr)
        for diag in exc.diagnostics:
            print(f"  diagnostic: {diag}", file=sys.stderr)
        return EXIT_CLAIM_FAILURE
    except (TermCapExceededError, OrdSearchCapError) as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (VanishError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        config.set_term_cap(saved_cap)


if __name__ == "__main__":
    sys.exit(main())
