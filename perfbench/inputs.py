"""Seeded input graphs for the benchmark, built with numpy in O(edges).

An instance holds 0-based arrays ``rows`` (influenced agent), ``cols``
(influencer) and ``weights``, the same orientation as the package's edge
lists, and writes them in the edge-list format the CLI reads.  Nothing here
imports the package: the output checks recompute residuals and closed forms
from these same arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


@dataclass(frozen=True)
class Instance:
    """A weighted digraph on agents 0..n-1 as edge arrays."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    rho_exact: float | None = None  # known by construction, else estimated

    def matrix(self) -> sp.csr_matrix:
        """G with G[i, j] = influence of agent j on agent i."""
        return sp.csr_matrix((self.weights, (self.rows, self.cols)), shape=(self.n, self.n))

    def write(self, path: Path) -> None:
        order = np.lexsort((self.cols, self.rows))
        lines = [f"n={self.n}"]
        lines += [f"{i}\t{j}\t{w!r}" for i, j, w in zip((self.rows[order] + 1).tolist(),
                                                      (self.cols[order] + 1).tolist(),
                                                      self.weights[order].tolist())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def stats(self, attenuation_high: float, l3_bytes: int | None) -> dict:
        """n, edges, spectral radius, the high attenuation times it, and the
        CSR footprint of G (float64 data, int32 indices) next to the L3 size."""
        matrix = self.matrix()
        if self.rho_exact is not None:
            rho, method = self.rho_exact, "exact (constant row or column sums)"
        else:
            value = spla.eigs(matrix, k=1, which="LM", return_eigenvectors=False,
                              v0=np.ones(self.n), tol=1e-8)
            rho, method = float(np.abs(value[0])), "arpack"
        csr_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        return {"n": self.n, "edges": int(matrix.nnz), "rho": rho, "rho_method": method,
                "c_rho": attenuation_high * rho, "csr_bytes": int(csr_bytes),
                "l3_bytes": l3_bytes,
                "fits_in_l3": None if l3_bytes is None else csr_bytes < l3_bytes}


def _distinct_partners(rng: np.random.Generator, n: int,
                       counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each agent k draw counts[k] distinct partners other than k.

    Draws with replacement, then redraws only the repeated pairs, so the cost
    stays O(total count) for counts far below n.
    """
    owner = np.repeat(np.arange(n), counts)
    partner = rng.integers(0, n - 1, size=owner.size)
    partner += partner >= owner  # skip the owner itself
    while True:
        _, first = np.unique(owner * np.int64(n) + partner, return_index=True)
        repeated = np.ones(owner.size, dtype=bool)
        repeated[first] = False
        if not repeated.any():
            return owner, partner
        redraw = rng.integers(0, n - 1, size=int(repeated.sum()))
        partner[repeated] = redraw + (redraw >= owner[repeated])


def out_degree_graph(seed: int, n: int, max_degree: int, weight: float,
                     exact_degree: bool = False) -> Instance:
    """Each agent influences U{0..max_degree} (or exactly max_degree) distinct
    others, every edge at the same weight."""
    rng = np.random.default_rng(seed)
    counts = (np.full(n, max_degree) if exact_degree
              else rng.integers(0, max_degree + 1, size=n))
    influencer, influenced = _distinct_partners(rng, n, counts)
    rho = max_degree * weight if exact_degree else None  # equal column sums
    return Instance(n, influenced, influencer, np.full(influenced.size, weight), rho)


def in_degree_graph(seed: int, n: int, degree: int, c_rho: float,
                    attenuation_high: float) -> Instance:
    """Each agent listens to exactly ``degree`` distinct others at one weight,
    so every row sums to rho = degree * weight; the weight puts
    attenuation_high * rho at c_rho."""
    rng = np.random.default_rng(seed)
    influenced, influencer = _distinct_partners(rng, n, np.full(n, degree))
    weight = c_rho / (attenuation_high * degree)
    return Instance(n, influenced, influencer, np.full(influenced.size, weight),
                    degree * weight)


def core_periphery_graph(chi: int, m: int, g: float) -> Instance:
    """chi communities of m agents; every periphery agent listens to its role
    model (agent r*m), the role models form a directed cycle, all at weight g.
    Each agent has one in-edge of weight g, so rho = g."""
    n = chi * m
    agents = np.arange(n)
    role = (agents // m + 1) * m - 1
    periphery = agents != role
    roles = np.arange(1, chi + 1) * m - 1
    rows = np.concatenate([agents[periphery], np.roll(roles, -1)])
    cols = np.concatenate([role[periphery], roles])
    return Instance(n, rows, cols, np.full(rows.size, g), g)
