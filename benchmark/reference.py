"""Reference figures for single opsys calls, outside the workload harness.

    python3 benchmark/reference.py

Times the calls whose baselines the ROADMAP records and prints one line per
figure: the median of REPS repetitions after one untimed warm-up call, in
milliseconds.  The calls: ``is_bimodule`` on the diagonal algebra D_n for the
graph system of a random graph with half of the possible edges (as in the
roundtrip workload); ``find --k 2`` and ``random_system`` at n = 48,
dim = 400; and ``certify`` at n = 48.  BLAS runs with its default thread
count, which the environment line records.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

import run

REPS = 3


def median_ms(fn, reps: int = REPS) -> float:
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from opsys import (
        MatrixAlgebra,
        SearchParams,
        certify,
        find_clique_or_anticlique,
        graph_operator_system,
        is_bimodule,
        random_projection,
        random_system,
    )
    from workloads import random_graph

    print("env " + json.dumps(run.environment(), sort_keys=True))
    for n in (8, 12, 16):
        v = graph_operator_system(random_graph(np.random.default_rng(0), n, 0.5))
        m = MatrixAlgebra.diagonal(n)
        print(f"is_bimodule D_{n}, dim V = {v.dim}: {median_ms(lambda: is_bimodule(v, m)):.1f} ms")
    print(f"random_system(48, 400): {median_ms(lambda: random_system(48, 400, 0)):.1f} ms")
    v = random_system(48, 400, 0)
    params = SearchParams.for_k(2, seed=0)
    print(f"find k=2 n=48 dim=400: {median_ms(lambda: find_clique_or_anticlique(v, 2, params)):.1f} ms")
    p = random_projection(48, 2, 0)
    print(f"certify n=48 dim=400 k=2: {median_ms(lambda: certify(v, p, 2), 10 * REPS):.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
