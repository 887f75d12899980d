#!/usr/bin/env python3
"""Entry point of the lmbart fit/predict benchmark (see README.md).

    python3 perfbench/run.py --workload reg-constant-n5000 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run it from any directory; it uses the package under this checkout's src/.
BLAS and OpenMP pools are pinned to one thread before numpy is loaded, and
the process, with the set-up probes it starts, to one CPU, so the machine
speed measured between fits is that of the CPU the work runs on.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "lmbart" / "__init__.py").is_file():
        sys.exit(f"lmbart sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import bench
    sys.exit(bench.main(sys.argv[1:]))
