"""The benchmark's four workloads, one pass each.

A workload function receives a seeded `random.Random` and a recorder
(`worker.Recorder`).  It builds its inputs from the generator, calls
`rec.begin()` to start the timed section, times each case with
`rec.case`, calls `rec.end()`, then checks every output outside the
timed section with `rec.verdicts` and returns a digest of its outputs.
Names from `vanish` are imported inside the functions so that they are
looked up after the traced run has installed its wrappers.

Every pass runs a fixed number of cases (`CASES`), whatever the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# sp2-curated: every curated pair at (m, n) in {1,2}^2.  m or n = 3 is left
# out: curve-123-vs-x-plane at (3, 3) alone takes about 64 s.
SP2_EXPONENTS = ((1, 1), (1, 2), (2, 1), (2, 2))
SP2_PAIRS = 14

# gb-dense: homogeneous dense quadric systems (field, variables, quadrics).
# Two GF systems to one QQ system: GF queries cost the same whatever the
# seed (no coefficient growth), so the median case lands among them rather
# than between the fields; the tail lands among the dearer QQ queries.
GB_SYSTEMS = (("GF", 5, 5), ("QQ", 5, 5), ("GF", 5, 5))
GB_QUERIES = 24
GB_PRIME = 32003

# hilbert-monomial: every antichain of monomials of degree <= 3 in 1-3
# variables, the empty one included (4 + 41 + 2497 ideals).
HILBERT_IDEALS = 2542

VERIFY_MODES = ("sp1", "sp2", "multi", "regular", "ci", "affine")

CASES = {
    "sp2-curated": SP2_PAIRS * len(SP2_EXPONENTS),
    "gb-dense": len(GB_SYSTEMS) * GB_QUERIES,
    "hilbert-monomial": HILBERT_IDEALS,
    "cli": len(VERIFY_MODES) + 14,
}


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()


# Inputs are built as {exponents: int} dicts with the helpers below, so
# that input generation neither runs nor depends on the code under test.

def _coefficient(rng):
    return rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def _form(rng, nvars: int, degree: int) -> dict:
    """Dense random homogeneous form."""
    return {e: _coefficient(rng) for e in _monomials(nvars, degree)}


def _combination(pairs) -> dict:
    """sum(a * b for a, b in pairs)."""
    out: dict = {}
    for a, b in pairs:
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    return out


def _check_plan(name: str, n: int) -> None:
    if n != CASES[name]:
        raise RuntimeError(f"{name}: planned {n} cases, expected {CASES[name]}")


# ---------------------------------------------------------------------------

def sp2_curated(rng, rec):
    """verify_sp2 over the curated pairs, in a seed-permuted order.

    Fixture and PrimeWitness construction are inside the timed section:
    the CLI pays for them on every call.
    """
    from vanish.fixtures import curated_sp2_pairs
    from vanish.theorems import verify_sp2

    plan = [(k, m, n) for k in range(SP2_PAIRS) for m, n in SP2_EXPONENTS]
    _check_plan("sp2-curated", len(plan))
    rng.shuffle(plan)
    rec.begin()
    pairs = curated_sp2_pairs()
    if len(pairs) != SP2_PAIRS:
        raise RuntimeError(f"expected {SP2_PAIRS} curated pairs, got {len(pairs)}")
    reports = {}
    for k, m, n in plan:
        _, p, q = pairs[k]
        reports[k, m, n] = rec.case(verify_sp2, p, q, m, n)
    rec.end()
    rec.verdicts([r is not None and r.applicable and r.certified and r.holds
                  for r in reports.values()])
    return digest([[pairs[k][0], m, n, r and r.to_dict()]
                   for (k, m, n), r in sorted(reports.items())])


# ---------------------------------------------------------------------------

def gb_dense(rng, rec):
    """Build each system's grevlex basis once, then answer membership queries.

    Half the queries are members sum(h_i f_i) with random dense cubic h_i
    (dense, so that queries of one system cost alike); the other half add
    a random linear form, which never lies in an ideal generated by
    homogeneous quadrics.  The basis build counts in the pass's wall time
    only, not as a case.
    """
    from vanish import GF, QQ, Ideal, PolyRing
    from vanish.local import graded_hilbert_data

    systems = []
    for field, nvars, k in GB_SYSTEMS:
        ring = PolyRing(QQ if field == "QQ" else GF(GB_PRIME),
                        tuple(f"x{i}" for i in range(nvars)))
        quadrics = [_form(rng, nvars, 2) for _ in range(k)]
        queries = []
        for j in range(GB_QUERIES):
            pairs = [(_form(rng, nvars, 3), q) for q in quadrics]
            member = j % 2 == 0
            if not member:
                pairs.append((_form(rng, nvars, 1), {(0,) * nvars: 1}))
            queries.append((ring.from_terms(_combination(pairs)), member))
        rng.shuffle(queries)
        systems.append((ring, [ring.from_terms(q) for q in quadrics], queries))
    _check_plan("gb-dense", sum(len(s[2]) for s in systems))

    rec.begin()
    ideals, answers = [], []
    for ring, quadrics, queries in systems:
        ideal = Ideal(ring, quadrics)
        ideal.groebner_basis()
        ideals.append(ideal)
        answers.append([rec.case(ideal.__contains__, f) for f, _ in queries])
    rec.end()

    oks, out = [], []
    for (ring, quadrics, queries), ideal, got in zip(systems, ideals, answers):
        gb = ideal.groebner_basis()
        k = len(quadrics)
        basis_ok = (gb.is_reduced() and gb.check_certificate()
                    and graded_hilbert_data(ideal).numerator
                    == tuple(math.comb(k, i) for i in range(k + 1)))
        oks += [basis_ok and answer is member
                for (_, member), answer in zip(queries, got)]
        out.append([[str(g) for g in gb], got])
    rec.verdicts(oks)
    return digest(out)


# ---------------------------------------------------------------------------

def _antichains(monos):
    """Every set of pairwise incomparable monomials, the empty one included."""
    found = [[]]

    def extend(start, chosen):
        for k in range(start, len(monos)):
            cand = monos[k]
            if any(all(a <= b for a, b in zip(c, cand))
                   or all(b <= a for a, b in zip(c, cand)) for c in chosen):
                continue
            chosen.append(cand)
            found.append(list(chosen))
            extend(k + 1, chosen)
            chosen.pop()
    extend(0, [])
    return found


def hilbert_monomial(rng, rec):
    """associativity_check on every small monomial ideal, seed-permuted."""
    from vanish import QQ, Ideal, PolyRing, associativity_check

    plan = []
    for nvars in (1, 2, 3):
        ring = PolyRing(QQ, ("x", "y", "z")[:nvars])
        monos = [e for d in (1, 2, 3) for e in _monomials(nvars, d)]
        plan += [(ring, chain) for chain in _antichains(monos)]
    _check_plan("hilbert-monomial", len(plan))
    order = list(range(len(plan)))
    rng.shuffle(order)

    def check(ring, chain):
        return associativity_check(Ideal(ring, [ring.monomial(e) for e in chain]))

    rec.begin()
    reports = [None] * len(plan)
    for i in order:
        reports[i] = rec.case(check, *plan[i])
    rec.end()
    rec.verdicts([r is not None and r.holds
                  and r.data["multiplicity"] == r.data["local_sum"]
                  for r in reports])
    return digest([r and [r.data["multiplicity"], r.data["local_sum"]]
                   for r in reports])


# ---------------------------------------------------------------------------

def _ideal_file(rng):
    """An ideal file and the file-based CLI cases run against it.

    `curve` is the (3,4,5) monomial curve after a seeded diagonal scaling
    y -> lam*y, z -> mu*z, so it stays a certified prime of degree 5.
    `quad` is a complete intersection of three dense quadrics (degree 8),
    and `fat` is x^2 * curve, whose saturation by x is `curve` at index 2.
    """
    from vanish import QQ, PolyRing

    ring = PolyRing(QQ, ("x", "y", "z"))
    lam, mu = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
    curve = [{(0, 2, 0): mu, (1, 0, 1): -lam**2},
             {(2, 1, 0): mu**2, (0, 0, 2): -lam},
             {(3, 0, 0): lam * mu, (0, 1, 1): -1}]
    quad = [_form(rng, 3, 2) for _ in range(3)]
    member = _combination((_form(rng, 3, 3), q) for q in quad)
    nonmember = _combination([(member, {(0, 0, 0): 1}), (_form(rng, 3, 1), {(0, 0, 0): 1})])
    curve_member = _combination((_form(rng, 3, 2), g) for g in curve)
    ord_one = _combination([(_form(rng, 3, 1), curve[0])])
    fat = [_combination([({(2, 0, 0): 1}, g)]) for g in curve]

    def text_of(*polys):
        return ", ".join(str(ring.from_terms(p)) for p in polys)

    text = (
        "ring Q[x, y, z]\n"
        f"ideal curve = {text_of(*curve)}  witness=x dim=1 weights=3,4,5\n"
        f"ideal quad = {text_of(*quad)}\n"
        f"ideal fat = {text_of(*fat)}\n"
    )
    member, nonmember, curve_member, ord_one = (
        text_of(p) for p in (member, nonmember, curve_member, ord_one))

    def field(key, want):
        return lambda out: out[key] == want

    cases = [
        (["gb", "-i", "quad"], lambda out: len(out["basis"]) >= 3),
        (["gb", "-i", "quad", "--order", "lex"], lambda out: len(out["basis"]) >= 3),
        (["gb", "-i", "curve"], lambda out: len(out["basis"]) == 3),
        (["gb", "-i", "curve", "--order", "lex"], lambda out: len(out["basis"]) >= 3),
        (["member", "-i", "quad", "--poly", member], field("member", True)),
        (["member", "-i", "quad", "--poly", nonmember], field("member", False)),
        (["member", "-i", "curve", "--poly", curve_member], field("member", True)),
        (["saturate", "-i", "fat", "--poly", "x"],
         lambda out: out["saturation_index"] == 2 and len(out["basis"]) == 3),
        (["symbolic-power", "-i", "curve", "-m", "2"],
         lambda out: out["certified"] is True and len(out["basis"]) > 3),
        (["ord", "-i", "curve", "--poly", ord_one], field("order", 1)),
        (["mult", "-i", "quad"], field("multiplicity", 8)),
        (["mult", "-i", "curve"], field("multiplicity", 5)),
        (["dim", "-i", "quad"], field("dimension", 0)),
        (["dim", "-i", "curve"], field("dimension", 1)),
    ]
    return text, cases


def _fixture_digests() -> dict:
    with open(os.path.join(BENCH_DIR, "fixture_digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cli(rng, rec):
    """Sequential `vanish` subprocesses, one per case.

    First the six `verify <mode> --fixtures --json` suites, each checked
    byte for byte against a recorded digest, then file-based subcommands
    on an ideal file written from the seed.  With tracing on, each
    subprocess runs under `cli_traced.py`, which reports its spans back.
    """
    text, file_cases = _ideal_file(rng)
    expected = _fixture_digests()
    _check_plan("cli", len(VERIFY_MODES) + len(file_cases))
    os.makedirs(rec.scratch, exist_ok=True)
    path = os.path.join(rec.scratch, "ideals.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    trace_out = os.path.join(rec.scratch, "trace.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def vanish(argv):
        if rec.tracer is None:
            cmd = [sys.executable, "-m", "vanish", *argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_traced.py"),
                   trace_out, *argv]
        if rec.tracer is not None and os.path.exists(trace_out):
            os.remove(trace_out)
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT)
        if rec.tracer is not None:
            with open(trace_out, encoding="utf-8") as fh:
                rec.add_trace(json.load(fh))
        return proc

    runs = []
    rec.begin()
    for mode in VERIFY_MODES:
        runs.append(rec.case(vanish, ["verify", mode, "--fixtures", "--json"]))
    for argv, _ in file_cases:
        runs.append(rec.case(vanish, [*argv, "-f", path, "--json"]))
    rec.end()

    oks, out = [], []
    for mode, proc in zip(VERIFY_MODES, runs):
        sha = proc and hashlib.sha256(proc.stdout).hexdigest()
        oks.append(proc is not None and proc.returncode == 0
                   and sha == expected[mode])
        out.append(sha)
    for (_, check), proc in zip(file_cases, runs[len(VERIFY_MODES):]):
        ok = proc is not None and proc.returncode == 0
        if ok:
            try:
                ok = bool(check(json.loads(proc.stdout)))
            except (ValueError, KeyError, TypeError):
                ok = False
        oks.append(ok)
        out.append(proc and hashlib.sha256(proc.stdout).hexdigest())
    rec.verdicts(oks)
    return digest(out)


WORKLOADS = {
    "sp2-curated": sp2_curated,
    "gb-dense": gb_dense,
    "hilbert-monomial": hilbert_monomial,
    "cli": cli,
}
