"""Child processes of the benchmark runner (run.py).

    python3 perfbench/child.py trace SPANS.json -- <biotfs CLI arguments>
        Run one CLI operation through `biotfs.cli.main` with every layer
        wrapped by perfbench.tracing; write the spans and nnz(L+U) of the
        A factor to SPANS.json at exit. Exits with the CLI's exit code.

    python3 perfbench/child.py setup N OUT.json
        Time `build_problem(N, params) + system.prepare()` (the default
        material of the program), repeated for SETUP_MIN_SECONDS and at
        least once, in this process; write the durations to OUT.json.

`src/` must be on PYTHONPATH; run.py sets it.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

SETUP_MIN_REPS = 1
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_REPS = 50


def trace(spans_path: str, argv: list) -> int:
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    import biotfs.cli

    try:
        return biotfs.cli.main(argv)
    finally:
        tracer.dump(spans_path)


def setup(n: int, out_path: str) -> int:
    import biotfs
    from biotfs.config import default_config

    params = default_config().material
    durations = []
    began = perf_counter()
    while len(durations) < SETUP_MAX_REPS and (
        len(durations) < SETUP_MIN_REPS or perf_counter() - began < SETUP_MIN_SECONDS
    ):
        start = perf_counter()
        problem = biotfs.build_problem(n, params)
        problem.system.prepare()
        durations.append(perf_counter() - start)
        del problem
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "durations": durations}, fh)
    return 0


def main(argv: list) -> int:
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return trace(argv[1], argv[3:])
    if len(argv) == 3 and argv[0] == "setup":
        return setup(int(argv[1]), argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
