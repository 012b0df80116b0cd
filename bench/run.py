"""The vanish benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.
Each pass of a workload runs in a fresh interpreter (`worker.py`), one
process at a time, so caches and the term cap never leak from one pass
into the next.  The number of passes is fixed by --seconds and the
workload's nominal pass time (measured on a 2-core machine with Python
3.11.7), so every commit does the same work and the same number of
cases; each pass has a wall-clock limit, and a pass that hits it counts
its unfinished cases as failed.

--trace 0 reports the end-to-end metrics:
  wall_s       mean over passes of the timed section (fixtures,
               PrimeWitness construction and basis builds included); a
               mean, because the host's speed flips between passes and a
               median of a few passes would snap to one of its states
  case_p50_ms  median case latency, all passes pooled
  case_tail_ms latency at the highest percentile with at least ten
               cases above it
  setup_s      median of interpreter start to first timed call, over the
               passes and the set-up-only probes run before each pass
  peak_rss_mb  median over passes of the pass's peak resident set
               (its largest child for the cli workload)
--trace 1 runs an untraced, a traced and another untraced pass on the
same inputs, checks that all three give the same output digest, and
reports the per-layer metrics of the traced pass.  `trace.overhead_s`
is the traced pass's wall_s minus the mean of the two untraced ones;
bracketing cancels a steady drift of the host, but it is still a
difference of single passes and moves with the host's speed.

Human-readable lines come first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import CASES  # noqa: E402  (needs BENCH_DIR on sys.path)

# Nominal seconds per pass (set-up, timed section and output checks).
NOMINAL_PASS_S = {
    "sp2-curated": 6.0,
    "gb-dense": 4.4,
    "hilbert-monomial": 4.6,
    "cli": 10.5,
}
# At least three passes, so that medians over passes have a middle value
# and, on cli (20 cases a pass), the tail rank falls among the mid-weight
# cases rather than at the edge of the six heaviest.
MIN_PASSES = 3
# Set-up samples a run aims for (passes plus set-up-only probes): a pass
# is a single start-up, and the median of a few of them swings with the
# host's speed.
SETUP_SAMPLES = 12
RUN_BUDGET_S = 165.0      # the whole run, so that it ends well inside 180 s
PASS_LIMIT_FACTOR = 4.0   # a pass may take this many nominal pass times
MIN_PASS_LIMIT_S = 30.0
SCRATCH = os.path.join(ROOT, ".bench_run")


class Pass:
    """What one worker reported."""

    def __init__(self, cases: int):
        self.cases = cases
        self.setup_s = None
        self.latencies_ms: list[float] = []
        self.errors: list[str] = []
        self.wall_s = None
        self.oks: list[bool] = []
        self.digest = None
        self.rss_mb = None
        self.stats: dict = {}
        self.problem = None

    @property
    def passed(self) -> int:
        return sum(self.oks)


def run_pass(workload: str, seed: int, index: int, mode: str, limit: float) -> Pass:
    """Run worker.py in `plain`, `traced` or `setup` mode."""
    result = Pass(CASES[workload])
    if limit <= 0:
        result.problem = "run budget exhausted before the pass started"
        return result
    env = dict(os.environ, PYTHONHASHSEED=str((seed * 7919 + index) % 2**32))
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload,
         str(seed), str(index), mode, repr(spawned_at), SCRATCH],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the worker and any vanish child
        out, err = proc.communicate()
        _wait_for_group(proc.pid)
        result.problem = f"pass {index} hit its {limit:.0f} s limit"
    elapsed = time.monotonic() - spawned_at
    for line in out.splitlines():
        try:
            event = json.loads(line)
        except ValueError:   # a line cut short by the kill, or stray output
            result.problem = result.problem or f"pass {index} printed {line[:80]!r}"
            continue
        if "setup_s" in event:
            result.setup_s = event["setup_s"]
        elif "case_ms" in event:
            result.latencies_ms.append(event["case_ms"])
            if event["error"]:
                result.errors.append(event["error"])
        elif "wall_s" in event:
            result.wall_s = event["wall_s"]
        elif "ok" in event:
            result.oks = event["ok"]
        elif "digest" in event:
            result.digest = event["digest"]
            result.rss_mb = event["rss_mb"]
            result.stats = event["trace"]
    if result.wall_s is None and result.setup_s is not None:
        result.wall_s = elapsed - result.setup_s   # killed inside the timed section
    if result.rss_mb is None:   # killed before it reported: the largest child so far
        result.rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if result.problem is None and proc.returncode != 0:
        result.problem = f"pass {index} exited with {proc.returncode}: {err.strip()[-2000:]}"
    return result


def _wait_for_group(pgid: int, patience_s: float = 5.0) -> None:
    """Wait until no process of a killed process group is left."""
    deadline = time.monotonic() + patience_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten cases above it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(passes: list[Pass], probes: list[Pass]) -> dict:
    latencies = [ms for p in passes for ms in p.latencies_ms]
    tail_ms, tail_pct = tail(latencies)
    print(f"cases timed: {len(latencies)}; case_tail_ms is p{tail_pct:.2f} "
          f"(10 cases above it)")
    return {
        "wall_s": statistics.fmean(p.wall_s for p in passes if p.wall_s is not None),
        "case_p50_ms": statistics.median(latencies),
        "case_tail_ms": tail_ms,
        "setup_s": statistics.median(p.setup_s for p in passes + probes
                                     if p.setup_s is not None),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes if p.rss_mb is not None),
    }


def per_layer(stats: dict, overhead_s: float) -> dict:
    """Per-layer metrics from the traced pass's aggregated spans."""
    def s(key):
        return stats.get(key, 0)

    def frac(part, whole):
        return part / whole if whole else 0.0

    kinds = ("grevlex", "grlex", "lex", "block")
    fields = ("QQ", "GF")
    m = {
        "groebner.buchberger.calls": s("groebner.buchberger.calls"),
        "groebner.buchberger.self_s":
            sum(s(f"self:groebner.buchberger.{k}") for k in kinds),
        "groebner.spoly.calls": s("calls:groebner.spoly"),
        "groebner.basis_len.max": s("max:groebner.basis_len.max"),
        "groebner.normal_form.calls":
            sum(s(f"calls:groebner.normal_form.{f}") for f in fields),
        "groebner.normal_form.self_s":
            sum(s(f"self:groebner.normal_form.{f}") for f in fields),
        "groebner.normal_form.zero_frac_in_buchberger":
            frac(s("groebner.normal_form.zero_in_buchberger"),
                 s("groebner.normal_form.in_buchberger")),
        "orders.key.calls": s("orders.key.calls"),
    }
    for k in ("grevlex", "lex", "block"):
        m[f"groebner.buchberger.{k}.s"] = s(f"incl:groebner.buchberger.{k}")
        m[f"groebner.buchberger.{k}.self_s"] = s(f"self:groebner.buchberger.{k}")
    for f in fields:
        m[f"groebner.normal_form.{f}.calls"] = s(f"calls:groebner.normal_form.{f}")
        m[f"groebner.normal_form.{f}.self_s"] = s(f"self:groebner.normal_form.{f}")
    for op in ("intersect", "colon", "saturate", "radical_contains", "eliminate",
               "pow", "dimension"):
        m[f"ideals.{op}.calls"] = s(f"calls:ideals.{op}")
        m[f"ideals.{op}.s"] = s(f"incl:ideals.{op}")
    gb_calls = s("calls:ideals.groebner_basis")
    sp_calls = s("calls:local.symbolic_power")
    power_s = s("under:ideals.pow/local.symbolic_power")
    saturate_s = s("under:ideals.saturate/local.symbolic_power")
    lru_hits = s("local.hilbert_numerator.hits")
    cli_calls = s("cli.calls")
    m.update({
        "ideals.saturate.index_sum": s("ideals.saturate.index_sum"),
        "ideals.eq.calls": s("ideals.eq.calls"),
        "ideals.groebner_basis.calls": gb_calls,
        "ideals.groebner_basis.hit_frac": frac(s("ideals.groebner_basis.hits"), gb_calls),
        "local.symbolic_power.calls": sp_calls,
        "local.symbolic_power.hit_frac": frac(s("local.symbolic_power.hits"), sp_calls),
        "local.symbolic_power.power_s": power_s,
        "local.symbolic_power.saturate_s": saturate_s,
        "local.symbolic_power.probes_s":
            s("incl:local.symbolic_power") - power_s - saturate_s,
        "local.PrimeWitness.init_s": s("incl:local.PrimeWitness.init"),
        "local.verify_isolated_singularity.s": s("incl:local.verify_isolated_singularity"),
        "local.hilbert_series.s": s("incl:local.hilbert_series"),
        "local.associativity_check.s": s("incl:local.associativity_check"),
        "local.local_length.s": s("incl:local.local_length"),
        "local.hilbert_numerator.hit_frac":
            frac(lru_hits, lru_hits + s("local.hilbert_numerator.misses")),
        "theorems.verify_sp2.s": s("incl:theorems.verify_sp2"),
        "poly.mul.calls": s("calls:poly.mul"),
        "poly.mul.self_s": s("self:poly.mul"),
        "poly.terms.peak": s("max:poly.terms.peak"),
        "parser.parse_polynomial.s": s("incl:parser.parse_polynomial"),
        "idealfile.load.s": s("incl:idealfile.load"),
        "cli.import_s": frac(s("cli.import_s.sum"), cli_calls),
        "trace.overhead_s": overhead_s,
    })
    for phase in ("hypotheses", "symbolic", "intersection", "check"):
        m[f"theorems.verify_sp2.{phase}_s"] = s(f"theorems.verify_sp2.{phase}_s")
    for command in ("gb", "member", "saturate", "symbolic-power", "ord", "mult",
                    "dim", "verify"):
        m[f"cli.{command}.s"] = s(f"cli.{command}.s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vanish", "__init__.py")):
        print("error: src/vanish not found; run from the root of a vanish checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    start = time.monotonic()
    if args.trace:
        plan = ["plain", "traced", "plain"]
        probes_per_pass = 0
    else:
        plan = ["plain"] * max(MIN_PASSES,
                               round(args.seconds / NOMINAL_PASS_S[args.workload]))
        probes_per_pass = -(-SETUP_SAMPLES // len(plan)) - 1
    nominal_limit = max(MIN_PASS_LIMIT_S, PASS_LIMIT_FACTOR * NOMINAL_PASS_S[args.workload])
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        passes, probes = [], []
        for i, mode in enumerate(plan):
            index = 0 if args.trace else i   # the traced run's passes share one input
            for _ in range(probes_per_pass):
                remaining = RUN_BUDGET_S - (time.monotonic() - start)
                probes.append(run_pass(args.workload, args.seed, index, "setup",
                                       min(nominal_limit, remaining)))
            remaining = RUN_BUDGET_S - (time.monotonic() - start)
            limit = remaining if mode == "traced" else min(nominal_limit, remaining)
            passes.append(run_pass(args.workload, args.seed, index, mode, limit))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    problems = [p.problem for p in passes + probes if p.problem]
    problems += [f"case error: {e}" for p in passes for e in p.errors[:3]]
    if not any(p.latencies_ms for p in passes):
        print("error: no case finished; nothing to measure", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1

    if args.trace:
        before, traced, after = passes
        if before.digest is None or not before.digest == traced.digest == after.digest:
            problems.append("traced pass output differs from the untraced passes")
        overhead = (traced.wall_s or 0.0) - statistics.fmean(
            (before.wall_s or 0.0, after.wall_s or 0.0))
        metrics = per_layer(traced.stats, overhead)
    else:
        metrics = end_to_end(passes, probes)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: "
                           f"{sorted(set(metrics) ^ set(units))}")

    attempted = sum(p.cases for p in passes)
    failed = attempted - sum(p.passed for p in passes)
    for problem in problems:
        print(f"problem: {problem}")
    for i, p in enumerate(passes):
        print(f"pass {i}: setup_s {p.setup_s}  wall_s {p.wall_s}  "
              f"cases {len(p.latencies_ms)}/{p.cases}  ok {p.passed}")
    if probes:
        print(f"set-up probes: {len(probes)}, setup_s "
              f"{' '.join(f'{p.setup_s:.4f}' for p in probes if p.setup_s is not None)}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"attempted {attempted}  failed {failed}")
    for name in sorted(metrics):
        print(f"  {name:48s} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
