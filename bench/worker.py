"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED PASS MODE SPAWNED_AT SCRATCH

`run.py` starts it; SPAWNED_AT is the parent's `time.monotonic()` just
before the spawn (on Linux the clock is shared between processes), so
the set-up time covers interpreter start, `import vanish` and input
generation.  MODE is `plain`, `traced` (wrappers installed) or `setup`,
which reports the set-up time and stops where the timed section would
start, so that a run can sample set-up more often than it runs passes.
Events go to stdout as one JSON object per line, flushed
as they happen, so a pass killed at its time limit still reports the
cases it finished.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from time import perf_counter

from tracer import Tracer, install, merge

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


class SetupDone(Exception):
    """Raised at the start of the timed section in `setup` mode."""


class Recorder:
    """Times one pass and reports its events."""

    def __init__(self, spawned_at: float, tracer, scratch: str, setup_only: bool):
        self.spawned_at = spawned_at
        self.setup_only = setup_only
        self.tracer = tracer
        self.scratch = scratch
        self.stats: dict = {}

    def begin(self) -> None:
        """End of set-up; the timed section starts."""
        emit({"setup_s": time.monotonic() - self.spawned_at})
        if self.setup_only:
            raise SetupDone
        if self.tracer is not None:
            self.tracer.reset()
        self._t0 = perf_counter()

    def case(self, fn, *args):
        """Time one case; a case that raises is reported and yields None."""
        t0 = perf_counter()
        error = None
        try:
            result = fn(*args)
        except Exception as exc:  # a failing case must not stop the pass
            result, error = None, f"{type(exc).__name__}: {exc}"
        emit({"case_ms": (perf_counter() - t0) * 1e3, "error": error})
        return result

    def end(self) -> None:
        emit({"wall_s": perf_counter() - self._t0})
        if self.tracer is not None:
            merge(self.stats, self.tracer.snapshot())

    def add_trace(self, stats: dict) -> None:
        """Merge spans recorded by a traced subprocess."""
        merge(self.stats, stats)

    def verdicts(self, oks: list[bool]) -> None:
        emit({"ok": [bool(ok) for ok in oks]})


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def main(argv: list[str]) -> int:
    name, seed, index, mode, spawned_at, scratch = argv
    import vanish  # noqa: F401  (set-up includes the import)
    import workloads

    tracer = None
    if mode == "traced":
        tracer = Tracer()
        install(tracer)
    rng = random.Random(f"{name}/{seed}/{index}")
    rec = Recorder(float(spawned_at), tracer, scratch, mode == "setup")
    try:
        out_digest = workloads.WORKLOADS[name](rng, rec)
    except SetupDone:
        return 0
    emit({"digest": out_digest, "rss_mb": peak_rss_mb(), "trace": rec.stats})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
