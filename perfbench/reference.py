"""A fixed unit of reference work, timed next to every measured call.

The speed of a shared virtual machine drifts by half or more, in phases of
seconds to minutes, and every kind of work slows down with it.  Timing the
same fixed work right before and right after each CLI call gives the
machine's speed during the call; the call's time divided by it is its cost
in reference units, which moves with the program and not with the phase.

The unit is three parts of about equal length, one for each kind of work
the workloads do: a pure-Python parse loop (like reading an edge list),
sparse matrix-vector sweeps (like the fixed-point solves) and dense LU
factorizations (like the direct solvers, on OpenBLAS).  Each part is timed
as the fastest of a few repeats and the three are added.  The inputs are
fixed and do not depend on the seed; nothing here imports the package.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

PARSE_LINES = 7000
SPARSE_N, SPARSE_DEGREE, SPARSE_SWEEPS = 20_000, 5, 30
DENSE_N, DENSE_FACTORIZATIONS = 300, 6
REPEATS = 3


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.lines = [f"{i}\t{i * 7 % 1000}\t0.1" for i in range(PARSE_LINES)]
        self.sparse = sp.random(SPARSE_N, SPARSE_N, density=SPARSE_DEGREE / SPARSE_N,
                                random_state=rng, format="csr")
        self.ones = np.ones(SPARSE_N)
        self.dense = rng.standard_normal((DENSE_N, DENSE_N))

    def _parse(self) -> None:
        table = {}
        for line in self.lines:
            i, j, w = line.split("\t")
            table[int(i)] = (int(j), float(w))

    def _sweeps(self) -> None:
        x = self.ones
        for _ in range(SPARSE_SWEEPS):
            x = self.sparse @ x * 0.1 + self.ones

    def _factorize(self) -> None:
        for _ in range(DENSE_FACTORIZATIONS):
            sla.lu_factor(self.dense)

    def seconds(self) -> float:
        """Wall time of one reference unit now."""
        total = 0.0
        for part in (self._parse, self._sweeps, self._factorize):
            fastest = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                part()
                fastest = min(fastest, time.perf_counter() - start)
            total += fastest
        return total
