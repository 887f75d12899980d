"""Set-up as a user pays it: a fresh interpreter imports lmbart and prepares data.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON line with the milliseconds of each step: the package import,
`train_test_split`, `standardize` and `split_dictionary` on the first input
set of the workload. `bench.measure_setup` times the whole process,
interpreter start-up included.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import lmbart
    timings = {"lmbart.import_ms": 1e3 * (time.perf_counter() - t0)}

    import bench
    _, _, scaled, _, _ = bench.prepare(bench.WORKLOADS[sys.argv[1]], int(sys.argv[2]), 0,
                                       timings)
    t0 = time.perf_counter()
    lmbart.split_dictionary(scaled)
    timings["data.split_dictionary.ms"] = 1e3 * (time.perf_counter() - t0)
    print(json.dumps(timings))
