"""One fresh interpreter from start to the first completed op of a workload.

    python3 bench/setup_probe.py WORKLOAD SEED

prints one JSON line: the time to import numpy, to import weaklim.cli (the
library's full import graph) and to run the pool's first op, plus the wall
clock at which that op completed, so the caller can time the whole set-up
from the moment it started this process.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]
import weaklim.cli  # noqa: E402,F401

t2 = time.perf_counter()
import workloads  # noqa: E402

pool = workloads.make_pool(sys.argv[1], int(sys.argv[2]))
t3 = time.perf_counter()
workloads.run_op(pool[0])
t4 = time.perf_counter()
print(json.dumps({
    "done_wall": time.time(),
    "import_numpy_s": t1 - t0,
    "import_weaklim_s": t2 - t1,
    "first_op_s": t4 - t3,
}), flush=True)
