"""Field-kernel microbenchmarks: matmul, rref and charpoly per field and size.

The fields are the ones the workloads run in, and GF25 (A5 at p = 5,
left out of `a5-analyze` for time); n = 24 and 60 are dim kG for S4 and
A5.  Inputs are seeded random matrices; each kernel is timed
after one warm-up call, and the median of the repetitions is reported.
"""

import statistics
import time

import numpy as np

FIELDS = [("GF2", 2, 1), ("GF3", 3, 1), ("GF4", 2, 2), ("GF9", 3, 2),
          ("GF25", 5, 2), ("GF81", 3, 4)]
SIZES = [24, 60]
KERNELS = ["matmul", "rref", "charpoly"]
MIN_REPS = 5
MIN_SECONDS = 0.1


def metric_names():
    return [f"kernel.{k}.{name}.n{n}_ms"
            for k in KERNELS for name, _, _ in FIELDS for n in SIZES]


def _median_ms(fn):
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def run(seed):
    from bflab import linalg, radical
    from bflab.gf import field

    rng = np.random.default_rng(seed)
    out = {}
    for name, p, m in FIELDS:
        f = field(p, m)
        for n in SIZES:
            a = f.random_elements(rng, (n, n))
            b = f.random_elements(rng, (n, n))
            calls = {"matmul": lambda: linalg.matmul(f, a, b),
                     "rref": lambda: linalg.rref(f, a),
                     "charpoly": lambda: radical.charpoly(f, a)}
            for kernel in KERNELS:
                out[f"kernel.{kernel}.{name}.n{n}_ms"] = \
                    _median_ms(calls[kernel])
    return out
