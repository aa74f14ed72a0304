"""A fixed reference kernel that tracks the machine's current speed.

On a shared machine the same command can take 1.5x longer from one second
to the next, because other tenants compete for the cores and caches.  The
benchmark runs this kernel in the untimed gap before and after every
command and scales the command's wall time by ``NOMINAL_S / kernel time``,
which cancels most of that drift.  The kernel mixes the two kinds of work
the package does: pure-Python graph traversal and numpy calls on small
arrays.  It is benchmark code, so no change to the package can move it.
"""
from __future__ import annotations

import random
import time

import numpy as np

from corpus import adjacency, bfs, connected_gnp

# Median kernel time over 400 runs on the 2-core x86-64 VM (Python 3.11,
# numpy 2.4) the benchmark was written on; calibrated times are in seconds
# at that speed.
NOMINAL_S = 0.0044


class Reference:
    def __init__(self) -> None:
        rng = random.Random("perfbench reference kernel")
        self.adj = adjacency(120, connected_gnp(120, 5.0 / 119, rng))
        self.mat = np.array(
            [[rng.randrange(9) for _ in range(96)] for _ in range(96)], dtype=np.int16
        )

    def seconds(self) -> float:
        """Wall time of one kernel run."""
        t0 = time.perf_counter()
        for src in range(0, 120, 2):
            bfs(self.adj, src)
        acc = 0
        for row in self.mat:
            ids = np.nonzero(row > 4)[0]
            acc += int(self.mat[np.ix_(ids, ids)].max(initial=0))
        return time.perf_counter() - t0
