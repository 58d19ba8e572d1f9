"""Katz-Bonacich and bi-product centralities on influence digraphs.

The Katz-Bonacich vector at attenuation a solves (I - a G^T) x = 1, counting
attenuated downstream influence walks.  The bi-product centrality averages the
solves at attenuations delta*(1-beta) and delta*(1+beta); their half
difference is the cross-product (spillover) component.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import (AssumptionError, MarketParams, WeightedDigraph,
                    _as_readonly, ensure_assumptions, spectral_radius)

_DEFAULT_TOL = 1e-10
DIRECT_SOLVE_MAX_N = 2000


class SolverError(RuntimeError):
    """The linear solve did not reach the requested residual."""

    def __init__(self, message: str, *, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class CentralityBundle:
    """The two Katz-Bonacich solves and their derived combinations.

    a and b are the solves at attenuations delta*(1-beta) and delta*(1+beta);
    c_new = (a + b) / 2 prices own-product reach, c_cross = (b - a) / 2 the
    spillover onto the rival's product.  residuals holds the two solve
    residuals in the max norm.
    """

    a: np.ndarray
    b: np.ndarray
    c_new: np.ndarray
    c_cross: np.ndarray
    attenuations: tuple[float, float]
    residuals: tuple[float, float]

    @property
    def n(self) -> int:
        return self.a.shape[0]


class _AttenuatedSystem:
    """(I - coeff * matrix) x = rhs, factored once and solved to residual
    <= tol (max norm) for 1-D or 2-D right-hand sides.

    Systems up to DIRECT_SOLVE_MAX_N go through a sparse direct factorization
    with iterative refinement; larger systems use the fixed-point iteration
    x <- rhs + coeff * matrix @ x, which converges whenever
    coeff * spectral_radius(matrix) < 1.
    """

    def __init__(self, matrix: sp.csr_matrix, coeff: float, tol: float,
                 max_iter: int = 500_000):
        self.matrix = matrix
        self.coeff = coeff
        self.tol = tol
        self.max_iter = max_iter
        n = matrix.shape[0]
        self._lu = None
        if coeff != 0.0 and n <= DIRECT_SOLVE_MAX_N:
            self._lu = spla.splu((sp.identity(n, format="csr") - coeff * matrix).tocsc())

    def _residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return rhs - (x - self.coeff * (self.matrix @ x))

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """The solution and its residual in the max norm over all entries."""
        rhs = np.asarray(rhs, dtype=float)
        coeff, tol = self.coeff, self.tol
        if coeff == 0.0:
            return rhs.copy(), 0.0
        if self._lu is not None:
            x = self._lu.solve(rhs)
            for _ in range(3):
                residual_vec = self._residual(x, rhs)
                residual = float(np.abs(residual_vec).max())
                if residual <= tol:
                    return x, residual
                x = x + self._lu.solve(residual_vec)
            raise SolverError(
                f"direct solve stalled at residual {residual:.3g} > tol {tol:.3g}",
                residual=residual)
        x = rhs.copy()
        for _ in range(self.max_iter):
            nxt = rhs + coeff * (self.matrix @ x)
            if float(np.abs(nxt - x).max()) <= tol:
                residual = float(np.abs(self._residual(nxt, rhs)).max())
                if residual <= tol:
                    return nxt, residual
            x = nxt
        residual = float(np.abs(self._residual(x, rhs)).max())
        raise SolverError(
            f"fixed-point solve did not reach tol {tol:.3g} in {self.max_iter} iterations "
            f"(residual {residual:.3g})", residual=residual)


def _katz_with_residual(graph: WeightedDigraph, attenuation: float,
                        tol: float) -> tuple[np.ndarray, float]:
    rho = spectral_radius(graph, tol)
    if attenuation * rho >= 1.0:
        raise AssumptionError(
            f"attenuation {attenuation:.12g} times spectral radius {rho:.12g} "
            f"is not below 1; the walk series diverges",
            rho=rho, bound=(np.inf if rho == 0 else 1.0 / rho))
    system = _AttenuatedSystem(graph.matrix.T.tocsr(), attenuation, tol)
    x, residual = system.solve(np.ones(graph.n))
    if float(x.min()) < 1.0 - 1e-8:
        raise SolverError(
            f"centrality solve produced an entry {x.min():.12g} below 1",
            residual=residual)
    return x, residual


def katz_bonacich(graph: WeightedDigraph, attenuation: float,
                  tol: float = _DEFAULT_TOL) -> np.ndarray:
    """Katz-Bonacich centrality (I - attenuation * G^T)^{-1} 1.

    Refuses when attenuation * spectral_radius(G) >= 1.  Every entry is at
    least 1 (the empty walk).
    """
    if not (np.isfinite(attenuation) and attenuation >= 0):
        raise ValueError(f"attenuation must be a nonnegative real, got {attenuation}")
    x, _ = _katz_with_residual(graph, attenuation, tol)
    return _as_readonly(x)


def biproduct_centrality(graph: WeightedDigraph, params: MarketParams,
                         tol: float = _DEFAULT_TOL) -> CentralityBundle:
    """Both attenuated solves plus their average and half difference.

    Validates the model assumptions first, at the same tolerance; the
    AssumptionError it raises carries the validation report.  With beta = 0
    the two attenuations coincide, one solve is reused, and c_cross is
    exactly zero.
    """
    ensure_assumptions(graph, params, tol)
    att_low = params.delta * (1.0 - params.beta)
    att_high = params.delta * (1.0 + params.beta)
    a, res_a = _katz_with_residual(graph, att_low, tol)
    if params.beta == 0.0:
        b, res_b = a, res_a
    else:
        b, res_b = _katz_with_residual(graph, att_high, tol)
    c_new = 0.5 * (a + b)
    c_cross = 0.5 * (b - a)
    return CentralityBundle(
        a=_as_readonly(a), b=_as_readonly(b),
        c_new=_as_readonly(c_new), c_cross=_as_readonly(c_cross),
        attenuations=(float(att_low), float(att_high)),
        residuals=(float(res_a), float(res_b)))


def _walk_series(graph: WeightedDigraph, attenuation: float,
                 terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Partial sum sum_{t=0}^{terms-1} attenuation^t (G^T)^t 1 and the first
    omitted term attenuation^terms (G^T)^terms 1."""
    if terms < 1:
        raise ValueError(f"terms must be at least 1, got {terms}")
    gt = graph.matrix.T.tocsr()
    term = np.ones(graph.n)
    total = np.zeros(graph.n)
    for _ in range(terms):
        total += term
        term = attenuation * (gt @ term)
    return total, term


def neumann_oracle(graph: WeightedDigraph, attenuation: float, terms: int) -> np.ndarray:
    """Truncated walk series sum_{t=0}^{terms-1} attenuation^t (G^T)^t 1.

    Independent check for katz_bonacich: the partial sums increase toward the
    solve whenever attenuation * spectral_radius(G) < 1.
    """
    if not (np.isfinite(attenuation) and attenuation >= 0):
        raise ValueError(f"attenuation must be a nonnegative real, got {attenuation}")
    total, _ = _walk_series(graph, attenuation, terms)
    return _as_readonly(total)


def neumann_tail_bound(graph: WeightedDigraph, attenuation: float, terms: int) -> float:
    """Certified max-norm bound on the series mass omitted by neumann_oracle.

    Uses the first omitted term m_T = attenuation^T (G^T)^T 1: the tail equals
    the resolvent applied to m_T, which is entrywise at most
    ||m_T||_inf * (partial + tail), so ||tail||_inf <=
    ||m_T||_inf * ||partial||_inf / (1 - ||m_T||_inf) once ||m_T||_inf < 1.
    Returns inf when the bound is not yet conclusive at this truncation.
    """
    total, omitted = _walk_series(graph, attenuation, terms)
    m = float(np.abs(omitted).max())
    if m >= 1.0:
        return float("inf")
    return m * float(total.max()) / (1.0 - m)
