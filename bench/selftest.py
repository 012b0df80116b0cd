"""Self-test of the benchmark's traced run.

    python3 bench/selftest.py

For each workload: two traced runs on seed 1 must give exactly equal
counts (every per-layer metric with unit `count` or `ratio`), a third
traced run on seed 2 must attempt the same number of cases, and every
run must report correct outputs.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import CASES  # noqa: E402

SEED = 1


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    failures = []
    for workload in sorted(CASES):
        first = traced_run(workload, SEED)
        again = traced_run(workload, SEED)
        other = traced_run(workload, SEED + 1)
        for name, run in (("first", first), ("repeat", again), ("other seed", other)):
            if not run["correct"]:
                failures.append(f"{workload}: {name} run reported incorrect outputs")
        counts = sorted(name for name, m in first["metrics"].items()
                        if m["unit"] in ("count", "ratio"))
        differ = [name for name in counts
                  if first["metrics"][name]["value"] != again["metrics"][name]["value"]]
        if differ:
            failures.append(f"{workload}: counts differ between two runs of seed "
                            f"{SEED}: {', '.join(differ)}")
        if first["attempted"] != other["attempted"]:
            failures.append(f"{workload}: seed {SEED} attempted {first['attempted']} "
                            f"cases, seed {SEED + 1} {other['attempted']}")
        print(f"{workload}: {len(counts)} counts compared, "
              f"{len(differ)} differ; attempted {first['attempted']} / {other['attempted']}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
