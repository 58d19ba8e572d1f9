"""Katz-Bonacich and bi-product centralities on influence digraphs.

The Katz-Bonacich vector at attenuation a solves (I - a G^T) x = 1, counting
attenuated downstream influence walks.  The bi-product centrality averages the
solves at attenuations delta*(1-beta) and delta*(1+beta); their half
difference is the cross-product (spillover) component.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .graph import (_DEFAULT_TOL, AssumptionError, MarketParams, PowerIterationError,
                    ValidationReport, WeightedDigraph, _as_readonly, _collatz_wielandt,
                    _power_iteration)

_ANDERSON_DEPTH = 10
_ANDERSON_WINDOW = 100  # iterations over which the residual must fall tenfold
_DOT_CHUNK = 8192  # most entries per BLAS call, stacked group or oracle block
_SERIES_TAIL_TOL = 1e-8  # tail bound below which a walk series is certified
_MAX_SERIES_TERMS = 1_000_000  # longest walk series tried for certification


def _dot(a: np.ndarray, b: np.ndarray):
    """a @ b for a 1-D b in BLAS calls of at most _DOT_CHUNK entries, added in order,
    so none runs threaded (README, solver policy); one call up to _DOT_CHUNK."""
    total = a[..., :_DOT_CHUNK] @ b[:_DOT_CHUNK]
    for start in range(_DOT_CHUNK, b.shape[0], _DOT_CHUNK):
        total = total + a[..., start:start + _DOT_CHUNK] @ b[start:start + _DOT_CHUNK]
    return total


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
    """(I - coeff * matrix) x = rhs, solved to residual <= tol (max norm) for
    1-D or 2-D right-hand sides.

    A solve runs Anderson acceleration of depth _ANDERSON_DEPTH (Walker & Ni
    2011) on the fixed point x <- g(x) = rhs + coeff * matrix @ x, which
    converges whenever coeff * spectral_radius(matrix) < 1.  The columns of a
    2-D right-hand side are stacked in groups of whole columns, at most
    _DOT_CHUNK entries each (one column when a column is longer), which
    bounds the memory of the iteration's history.  The
    residual f = g(x) - x is the system's residual at x, so the stop test
    certifies the iterate it returns.  A solve whose residual falls less than
    tenfold over _ANDERSON_WINDOW iterations factors the system once with a
    sparse LU (_factor, which a caller may also run up front) and refines,
    and later solves reuse that factorization.

    method ("anderson" or "lu") and iterations (Anderson iterations, the most
    over the stacked groups, or LU refinement steps) describe the last solve.
    """

    def __init__(self, matrix: sp.csr_matrix, coeff: float, tol: float):
        self.matrix = matrix
        self.coeff = coeff
        self.tol = tol
        self.method: str | None = None
        self.iterations = 0
        self._lu = None

    def _factor(self) -> None:
        import scipy.sparse.linalg as spla  # only the LU path needs it
        n = self.matrix.shape[0]
        self._lu = spla.splu((sp.identity(n, format="csr") - self.coeff * self.matrix).tocsc())

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """The solution and its residual in the max norm over all entries."""
        rhs = np.asarray(rhs, dtype=float)
        if self._lu is None:
            step = max(1, _DOT_CHUNK // rhs.shape[0])  # whole columns per group
            groups = ([rhs] if rhs.ndim == 1
                      else [rhs[:, i:i + step] for i in range(0, rhs.shape[1], step)])
            parts = []
            for group in groups:
                part = self._anderson(group)
                if part is None:
                    break
                parts.append(part)
            else:
                xs, residuals, iterations = zip(*parts)
                self.method, self.iterations = "anderson", max(iterations)
                # Fortran-ordered, as SuperLU's solutions are, so a column
                # sums alone in one order at any width (a 1-D x is not copied)
                return np.asfortranarray(np.hstack(xs)), max(residuals)
            self._factor()
        return self._direct(rhs)

    def _direct(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        x = self._lu.solve(rhs)
        for step in range(3):
            # rhs - (x - coeff * (matrix @ x)) in place, on one C-ordered copy
            # of SuperLU's Fortran-ordered x (a matvec would copy it again)
            x_c = np.array(x, order="C")
            residual_vec = self.matrix @ x_c
            residual_vec *= self.coeff
            np.subtract(x_c, residual_vec, out=residual_vec)
            np.subtract(rhs, residual_vec, out=residual_vec)
            residual = float(np.abs(residual_vec, out=x_c).max())
            if residual <= self.tol:
                self.method, self.iterations = "lu", step
                return x, residual
            x = x + self._lu.solve(residual_vec)
        raise SolverError(
            f"direct solve stalled at residual {residual:.3g} > tol {self.tol:.3g}",
            residual=residual)

    def _anderson(self, rhs: np.ndarray) -> tuple[np.ndarray, float, int] | None:
        """The Anderson iterate, its residual and the iteration count, or None
        once the iteration stalls or stops being finite.

        The last depth differences of f and g sit in ring buffers, and the
        Gram matrix of the f differences is updated one row per iteration,
        so an iteration costs one matvec plus O(depth * size) vector work.
        Each window that goes on divides the residual by at least ten, so
        the loop ends.
        """
        shape, flat = rhs.shape, rhs.ravel()
        depth = _ANDERSON_DEPTH
        d_f = np.empty((depth, flat.size))
        d_g = np.empty((depth, flat.size))
        gram = np.empty((depth, depth))
        x = flat.copy()
        checkpoint = np.inf
        for it in itertools.count():
            g = flat + self.coeff * (self.matrix @ x.reshape(shape)).ravel()
            f = g - x
            residual = float(np.abs(f).max())
            if residual <= self.tol:
                return x.reshape(shape), residual, it
            if not np.isfinite(residual):
                return None
            if it % _ANDERSON_WINDOW == 0:
                if residual > 0.1 * checkpoint:
                    return None
                checkpoint = residual
            if it == 0:
                x = g
            else:
                slot, filled = (it - 1) % depth, min(it, depth)
                np.subtract(f, f_prev, out=d_f[slot])
                np.subtract(g, g_prev, out=d_g[slot])
                gram[slot, :filled] = gram[:filled, slot] = _dot(d_f[:filled], d_f[slot])
                projections = _dot(d_f[:filled], f)
                try:
                    gamma = np.linalg.solve(gram[:filled, :filled], projections)
                except np.linalg.LinAlgError:  # exactly singular: least squares
                    gamma = np.linalg.lstsq(gram[:filled, :filled], projections,
                                            rcond=None)[0]
                # g - gamma @ d_g on _DOT_CHUNK slices, so no call runs threaded (_dot)
                x = g.copy()
                for start in range(0, x.size, _DOT_CHUNK):
                    x[start:start + _DOT_CHUNK] -= gamma @ d_g[:filled, start:start + _DOT_CHUNK]
            f_prev, g_prev = f, g


def _katz_with_residual(graph: WeightedDigraph, attenuation: float,
                        tol: float) -> tuple[np.ndarray, float]:
    """The Katz solve and its residual.  A positive x bounds rho(G) by the
    upper end of its outward-rounded Collatz-Wielandt bracket on G^T; the
    graph keeps the lowest such bound.  Solved or not, the graph is admitted
    on that bound, else on the ValidationReport of a certified bracket decided
    against 1 / attenuation, or refused with that report before a failed solve
    raises."""
    system = _AttenuatedSystem(graph._transpose, attenuation, tol)
    failure = None
    try:
        x, residual = system.solve(np.ones(graph.n))
        if x.min() > 0.0:  # solve returns only finite x, whose residual met tol
            _, upper = _collatz_wielandt(graph._transpose @ x, x, graph.n)  # rows of < n entries
            graph._rho_cache["upper"] = min(upper, graph._rho_cache.get("upper", np.inf))
    except RuntimeError as exc:  # a SolverError or a singular LU, raised once admitted
        failure = exc
    if not attenuation * graph._rho_cache.get("upper", np.inf) < 1.0:
        bound = 1.0 / attenuation
        report = ValidationReport(*_power_iteration(graph, tol, bound), bound)
        if not report.passed:
            raise AssumptionError(report.summary(), rho=report.rho, bound=report.bound,
                                  report=report)
    if failure is not None:
        raise failure
    if float(x.min()) < 1.0 - 1e-8:
        raise SolverError(
            f"centrality solve produced an entry {x.min():.12g} below 1",
            residual=residual)
    return x, residual


def _admit(graph: WeightedDigraph, params: MarketParams, tol: float) -> None:
    """_katz_with_residual's admission at delta*(1+beta), solved only when no
    bound on the graph admits it yet; a failed solve alone does not refuse."""
    attenuation = params.delta * (1.0 + params.beta)
    if not attenuation * graph._rho_cache.get("upper", np.inf) < 1.0:
        try:
            _katz_with_residual(graph, attenuation, tol)
        except RuntimeError as exc:  # a SolverError or a singular LU is let pass
            if isinstance(exc, (AssumptionError, PowerIterationError)):
                raise


def katz_bonacich(graph: WeightedDigraph, attenuation: float,
                  tol: float = _DEFAULT_TOL) -> np.ndarray:
    """Katz-Bonacich centrality (I - attenuation * G^T)^{-1} 1.

    Refuses when a certified bracket puts attenuation * rho(G) at 1 or above.
    Every entry is at least 1 (the empty walk).
    """
    if not (np.isfinite(attenuation) and attenuation >= 0):
        raise ValueError(f"attenuation must be a nonnegative real, got {attenuation}")
    x, _ = _katz_with_residual(graph, attenuation, tol)
    return _as_readonly(x)


def biproduct_centrality(graph: WeightedDigraph, params: MarketParams,
                         tol: float = _DEFAULT_TOL) -> CentralityBundle:
    """Both attenuated solves plus their average and half difference.

    The solve at delta*(1+beta) comes first and admits the graph
    (_katz_with_residual, at the same tolerance); a refusal's AssumptionError
    carries the validation report.  With beta = 0 the two attenuations
    coincide, one solve is reused, and c_cross is exactly zero.
    """
    att_low = params.delta * (1.0 - params.beta)
    att_high = params.delta * (1.0 + params.beta)
    b, res_b = _katz_with_residual(graph, att_high, tol)
    if params.beta == 0.0:
        a, res_a = b, res_b
    else:
        a, res_a = _katz_with_residual(graph, att_low, tol)
    c_new = 0.5 * (a + b)
    c_cross = 0.5 * (b - a)
    return CentralityBundle(
        a=_as_readonly(a), b=_as_readonly(b),
        c_new=_as_readonly(c_new), c_cross=_as_readonly(c_cross),
        attenuations=(float(att_low), float(att_high)),
        residuals=(float(res_a), float(res_b)))


def _walk_series(graph: WeightedDigraph,
                 attenuation: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For terms = 1, 2, ...: the partial sum
    sum_{t=0}^{terms-1} attenuation^t (G^T)^t 1 and the first omitted term
    attenuation^terms (G^T)^terms 1 (the partial sum is updated in place)."""
    term = np.ones(graph.n)
    total = np.zeros(graph.n)
    while True:
        total += term
        term = attenuation * (graph._transpose @ term)
        yield total, term


def _truncated_series(graph: WeightedDigraph, attenuation: float,
                      terms: int) -> tuple[np.ndarray, np.ndarray]:
    if terms < 1:
        raise ValueError(f"terms must be at least 1, got {terms}")
    return next(itertools.islice(_walk_series(graph, attenuation), terms - 1, None))


def _tail_mass(total: np.ndarray, omitted: np.ndarray) -> float:
    m = float(np.abs(omitted).max())
    if m >= 1.0:
        return float("inf")
    return m * float(total.max()) / (1.0 - m)


def neumann_oracle(graph: WeightedDigraph, attenuation: float, terms: int) -> np.ndarray:
    """Truncated walk series sum_{t=0}^{terms-1} attenuation^t (G^T)^t 1.

    Independent check for katz_bonacich: the partial sums increase toward the
    solve whenever attenuation * spectral_radius(G) < 1.
    """
    if not (np.isfinite(attenuation) and attenuation >= 0):
        raise ValueError(f"attenuation must be a nonnegative real, got {attenuation}")
    total, _ = _truncated_series(graph, attenuation, terms)
    return _as_readonly(total)


def neumann_tail_bound(graph: WeightedDigraph, attenuation: float, terms: int) -> float:
    """Certified max-norm bound on the series mass omitted by neumann_oracle.

    Uses the first omitted term m_T = attenuation^T (G^T)^T 1: the tail equals
    the resolvent applied to m_T, which is entrywise at most
    ||m_T||_inf * (partial + tail), so ||tail||_inf <=
    ||m_T||_inf * ||partial||_inf / (1 - ||m_T||_inf) once ||m_T||_inf < 1.
    Returns inf when the bound is not yet conclusive at this truncation.
    """
    return _tail_mass(*_truncated_series(graph, attenuation, terms))


def certified_neumann_series(graph: WeightedDigraph, attenuation: float) -> np.ndarray | None:
    """neumann_oracle at the first terms of 8, 16, 32, ... (at most
    _MAX_SERIES_TERMS) whose neumann_tail_bound is below _SERIES_TAIL_TOL,
    from one pass over the series; None when no such terms exists."""
    terms = 8
    for count, (total, omitted) in enumerate(_walk_series(graph, attenuation), start=1):
        if count < terms:
            continue
        if _tail_mass(total, omitted) < _SERIES_TAIL_TOL:
            return _as_readonly(total)
        terms *= 2
        if terms > _MAX_SERIES_TERMS:
            return None
