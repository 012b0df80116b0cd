"""Run one `vanish` CLI command with the tracer installed.

    python3 bench/cli_traced.py TRACE_OUT ARGS...

Behaves like `python3 -m vanish ARGS...` (same stdout and exit code) and
writes the command's span aggregates to TRACE_OUT as JSON, with the time
spent importing `vanish.cli` and running the command.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

from tracer import Tracer, install

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import vanish.cli
    import_s = perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    t0 = perf_counter()
    code = vanish.cli.main(argv)
    elapsed = perf_counter() - t0
    sys.stdout.flush()

    stats = tracer.snapshot()
    stats[f"cli.{argv[0]}.s"] = elapsed
    stats["cli.import_s.sum"] = import_s
    stats["cli.calls"] = 1
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
