"""Host-speed reference for the in-process operation times.

The shared host this benchmark was built on changes speed by up to 1.8x
over minutes (see README.md), more than any bound a benchmark could hold.
So a fixed reference computation, independent of the program, is timed
before every in-process operation, and each operation time is multiplied
by ``REFERENCE_S`` over the reference time taken just before it: seconds
at a fixed reference host speed.

The reference is the kind of work the program's time goes to: SVDs and
least-squares solves, on small (40 rows) and on large (150 rows) matrices,
since the two slow down by different amounts.  Its time is the geometric
mean of the two.  README.md gives the spreads with and without it.
"""

import math
import subprocess
import time

import numpy as np

# The reference time on the build host; a constant, so that rescaled
# figures from different runs and commits are comparable.
REFERENCE_S = 3e-4


# The bare interpreter start on the build host; see ``bare_start``.
BARE_START_S = 0.05


def bare_start(python: str, env: dict, cwd) -> float:
    """Seconds for the fastest of three starts of an interpreter that
    imports nothing of the program and reports ready: the host-speed
    reference for start-up times, which do not track ``Reference``."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        proc = subprocess.Popen([python, "-c", "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"],
                                stdout=subprocess.PIPE, env=env, cwd=cwd)
        proc.stdout.readline()
        best = min(best, time.perf_counter() - start)
        proc.stdout.close()
        proc.wait()
    return best


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._groups = [
            [rng.standard_normal((rows, k)) for k in ks] for rows, ks in ((40, (3, 10)), (150, (3, 37)))
        ]

    def _fastest(self, mats) -> float:
        # The first pass after other work runs on cold caches.
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            for M in mats:
                np.linalg.svd(M, full_matrices=False)
                np.linalg.lstsq(M, M[:, 0], rcond=None)
            best = min(best, time.perf_counter() - start)
        return best

    def __call__(self) -> float:
        """Seconds: the geometric mean of the fastest of three passes over
        the small and over the large matrices."""
        return math.prod(self._fastest(mats) for mats in self._groups) ** (1 / len(self._groups))
