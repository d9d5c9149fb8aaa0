"""Fixed reference work that measures how fast the host is right now.

The host the benchmark was defined on changes speed by up to 2x for tens
of seconds at a time.  So every timed phase of a workload runs next to a
fixed amount of reference work, and the benchmark reports the phase's
time relative to the reference's (see README.md, "Host-speed
calibration").  The reference never changes with the library: a step
loop over a strided path array with batched 2x2 products, like the
library's kernels, plus pure-Python dictionary work.  Set-up is paired
with a fresh interpreter that imports numpy and ``scipy.stats``.
"""

import time

import numpy as np

N, STEPS, D = 2000, 256, 2
WORDS = 60_000


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.dw = rng.standard_normal((N, STEPS, D)) * 0.05
        self.sigma = np.eye(D) + 0.1 * rng.standard_normal((N, D, D))
        self.words = [f"w{i % 97}" for i in range(WORDS)]

    def unit(self) -> float:
        x = np.zeros((N, STEPS + 1, D))
        for k in range(STEPS):
            xk = x[:, k]
            x[:, k + 1] = xk - 0.5 * xk / STEPS + np.einsum("nij,nj->ni", self.sigma, self.dw[:, k])
            np.linalg.norm(x[:, k + 1], axis=1)
        counts = {}
        for w in self.words:
            counts[w] = counts.get(w, 0) + 1
        return float(x[:, -1].sum()) + len(counts)

    def run(self, units: int) -> float:
        """Run ``units`` units; returns their wall time."""
        t0 = time.perf_counter()
        for _ in range(units):
            self.unit()
        return time.perf_counter() - t0


def reference_setup():
    """The set-up that a live set-up is paired with, in a fresh interpreter."""
    import numpy  # noqa: F401
    import scipy.stats  # noqa: F401
