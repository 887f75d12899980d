"""Reference kernel that measures machine speed, in a process of its own.

    python3 perfbench/kernel.py

For every line read on standard input it prints the median wall time, in
seconds, of three runs of `reference_kernel_s`, and it exits at the end of
input. `bench.SpeedProbe` keeps one such process beside a run, on the CPU
the run is pinned to, so state that a fit leaves in the benchmark's own
process (a larger heap that lengthens garbage collection, lingering
threads) cannot slow the kernel and be divided away from the fit's time.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky

FEATURES = 5


@dataclass
class _Node:
    feature: int
    threshold: float
    left: int
    right: int


def reference_kernel_s() -> float:
    """Wall time of a fixed slice of work that does not use lmbart.

    It mixes the operations a chain spends its time in: routing rows through
    a small dict-of-nodes tree with boolean masks, per-leaf sums, copying
    node objects, small Cholesky solves through scipy's wrappers and scalar
    random draws.
    """
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(4000, FEATURES))
    A = 2.0 * np.eye(4)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(40):
        nodes = {k: _Node((i + k) % FEATURES, rng.uniform(), 2 * k + 1, 2 * k + 2)
                 for k in range(7)}
        nodes = {k: _Node(nd.feature, nd.threshold, nd.left, nd.right)
                 for k, nd in nodes.items()}
        stack, leaves = [(0, np.arange(X.shape[0]))], {}
        while stack:
            node_id, rows = stack.pop()
            nd = nodes.get(node_id)
            if nd is None:
                leaves[node_id] = rows
                continue
            go_right = X[rows, nd.feature] < nd.threshold
            stack.append((nd.right, rows[go_right]))
            stack.append((nd.left, rows[~go_right]))
        for leaf in sorted(leaves):
            r = X[leaves[leaf], 0]
            L = cholesky(A + np.diag(np.full(4, r.size + 1.0)), lower=True)
            acc += float(r @ r) + float(cho_solve((L, True), np.ones(4))[0])
            acc += math.log1p(rng.uniform())
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite result")
    return elapsed


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(statistics.median(reference_kernel_s() for _ in range(3))), flush=True)
