"""Time one cold set-up in a fresh interpreter.

Usage: python3 bench/probe.py <src dir> <minface CLI arguments...>

Imports minface and its CLI from <src dir>, runs the CLI arguments once as
the warm-up job, then times run.reference_work() three times, and prints
{"import_s", "warm_s", "code", "reference_s" (the median)} as JSON.
"""

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import minface  # noqa: E402
import minface.cli  # noqa: E402

t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = minface.cli.main(sys.argv[2:])
t2 = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import timed_reference  # noqa: E402

reference_s = statistics.median(timed_reference() for _ in range(3))
print(json.dumps({"import_s": t1 - t0, "warm_s": t2 - t1, "code": code,
                  "reference_s": reference_s}))
