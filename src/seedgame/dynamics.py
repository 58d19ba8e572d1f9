"""Myopic consumption dynamics for two competing products.

Each period every agent best-responds to the previous period's consumption
profile, which makes the update linear:

    x_bar(k+1)   = (alpha - price) 1 + G x_bar(k)   + beta G x_under(k)
    x_under(k+1) = (alpha - price) 1 + G x_under(k) + beta G x_bar(k)

with x(0) given by the firms' seedings.  Truncated discounted sums come with
a certified bound on the omitted mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .centrality import _admit
from .graph import _DEFAULT_TOL, MarketParams, WeightedDigraph, _as_readonly
from .reportio import format_distinct

_DEFAULT_TAIL_TOL = 1e-10
_MAX_AUTO_HORIZON = 10_000_000
# write_trajectory_csv writes a state of at most n / _RUN_RATIO runs of identical
# rows a run at a time: at 4 agents a run the two paths tie, at 3 the run path
# is 7-10% slower and at 8 it is 13-17% faster (n = 2,000 and 10,000)
_RUN_RATIO = 4


class TailCertificationError(RuntimeError):
    """No certified truncation bound is available for this graph/params pair."""


class ConsumptionOverflowError(ValueError):
    """The discounted consumption sums overflow a float before the horizon."""


class NegativeStateError(ValueError):
    """Consumption states must be entrywise nonnegative."""


def _validated_vector(values, n: int, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{label} must have shape ({n},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{label} contains non-finite entries")
    if (arr < 0).any():
        raise NegativeStateError(f"{label} has negative entries")
    return _as_readonly(arr)


@dataclass(frozen=True)
class SeedingPair:
    """Nonnegative seeding vectors for the two firms (0-based, agent i+1)."""

    s_bar: np.ndarray
    s_under: np.ndarray

    def __post_init__(self):
        s_bar = np.asarray(self.s_bar, dtype=float)
        n = s_bar.shape[0] if s_bar.ndim == 1 else -1
        if n < 1:
            raise ValueError("seedings must be nonempty 1-d vectors")
        object.__setattr__(self, "s_bar", _validated_vector(self.s_bar, n, "s_bar"))
        object.__setattr__(self, "s_under", _validated_vector(self.s_under, n, "s_under"))

    @classmethod
    def zeros(cls, n: int) -> "SeedingPair":
        return cls(np.zeros(n), np.zeros(n))

    @property
    def n(self) -> int:
        return self.s_bar.shape[0]


@dataclass(frozen=True)
class ConsumptionState:
    """Consumption profile of both products at period k."""

    x_bar: np.ndarray
    x_under: np.ndarray
    k: int

    def __post_init__(self):
        x_bar = np.asarray(self.x_bar, dtype=float)
        n = x_bar.shape[0] if x_bar.ndim == 1 else -1
        if n < 1:
            raise ValueError("states must be nonempty 1-d vectors")
        object.__setattr__(self, "x_bar", _validated_vector(self.x_bar, n, "x_bar"))
        object.__setattr__(self, "x_under", _validated_vector(self.x_under, n, "x_under"))
        if self.k < 0:
            raise ValueError(f"period index must be nonnegative, got {self.k}")

    @classmethod
    def _unchecked(cls, x_bar: np.ndarray, x_under: np.ndarray, k: int) -> "ConsumptionState":
        """A state from two finite, nonnegative vectors of one length, made
        read-only without the checks."""
        state = object.__new__(cls)
        state.__dict__.update(x_bar=_as_readonly(x_bar), x_under=_as_readonly(x_under), k=k)
        return state

    @property
    def n(self) -> int:
        return self.x_bar.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """Simulated path up to the horizon, with truncated discounted sums
    sum_{k=1..T} delta^k x(k) per product and a certified tail bound on the
    omitted k > T mass (max norm, per entry)."""

    states: tuple[ConsumptionState, ...]
    discounted_bar: np.ndarray
    discounted_under: np.ndarray
    tail_bound: float
    horizon: int


def _step(x_bar: np.ndarray, x_under: np.ndarray, graph: WeightedDigraph,
          params: MarketParams) -> tuple[np.ndarray, np.ndarray]:
    """One simultaneous best-response update of both consumption profiles."""
    base = params.alpha - params.price
    matrix = graph.matrix
    g_bar = matrix @ x_bar
    g_under = matrix @ x_under
    return base + g_bar + params.beta * g_under, base + g_under + params.beta * g_bar


def _tail_certificate(graph: WeightedDigraph, params: MarketParams,
                      seeding: SeedingPair, horizon: int) -> float:
    """Certified bound on sum_{k > T} delta^k ||x(k)||_inf.

    Per-entry growth is controlled by mu = (1 + beta) * max weighted
    in-degree: ||x(k)||_inf <= mu^k x0 + (alpha - price) sum_{j<k} mu^j.  While
    delta * mu < 1 this sums over k > T to x0 g + (alpha - price) (d + delta g)
    / (1 - delta), g = (delta mu)^(T+1) / (1 - delta mu) and d = delta^(T+1)
    sum_{j<=T} mu^j = (delta^(T+1) - (delta mu)^(T+1)) / (1 - mu).
    """
    delta = params.delta
    base = params.alpha - params.price
    mu = (1.0 + params.beta) * (float(graph.in_degrees.max()) if graph.edge_count else 0.0)
    x0 = max(float(seeding.s_bar.max()), float(seeding.s_under.max()))
    t1 = horizon + 1
    gamma = delta * mu
    if gamma >= 1.0:
        raise TailCertificationError(
            f"cannot certify the truncation: delta * (1 + beta) * max in-degree "
            f"= {gamma:.6g} >= 1")
    g = gamma ** t1 / (1.0 - gamma)
    # d from its larger end, max(delta, delta mu)^(T+1) (1 - r^(T+1)) / |1 - mu|
    # for r = min(mu, 1 / mu): no cancellation near mu = 1, no overflow
    log_r = -abs(math.log(mu)) if mu > 0.0 else -math.inf
    d = max(delta, gamma) ** t1 * (t1 if mu == 1.0 else -math.expm1(t1 * log_r) / abs(1.0 - mu))
    return x0 * g + base * (d + delta * g) / (1.0 - delta)


def auto_horizon(graph: WeightedDigraph, params: MarketParams, seeding: SeedingPair,
                 tail_tol: float = _DEFAULT_TAIL_TOL) -> int:
    """Smallest horizon whose certified tail bound is at most tail_tol."""
    if not tail_tol > 0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol}")
    hi = 1
    while _tail_certificate(graph, params, seeding, hi) > tail_tol:
        hi *= 2
        if hi > _MAX_AUTO_HORIZON:
            raise TailCertificationError(
                f"tail bound stays above {tail_tol:.3g} below horizon {_MAX_AUTO_HORIZON}")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _tail_certificate(graph, params, seeding, mid) <= tail_tol:
            hi = mid
        else:
            lo = mid
    return hi


def simulate(graph: WeightedDigraph, params: MarketParams, seeding: SeedingPair,
             horizon: int | None = None, tail_tol: float = _DEFAULT_TAIL_TOL,
             store_states: bool = True, tol: float = _DEFAULT_TOL) -> Trajectory:
    """Run the best-response dynamics from the given seedings.

    The graph is admitted at tol first (centrality._admit).  With horizon=None the
    horizon is chosen so the certified tail bound drops to tail_tol.  States
    are stored unless store_states=False (sums-only streaming for large
    runs); discounted sums always cover k = 1..horizon.
    """
    _admit(graph, params, tol)
    if seeding.n != graph.n:
        raise ValueError(f"seeding has {seeding.n} agents, graph has {graph.n}")
    if horizon is None:
        horizon = auto_horizon(graph, params, seeding, tail_tol)
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    # the states stay nonnegative, as the seeds, weights and alpha - price
    # are, so they are built without ConsumptionState's checks; an overflow
    # shows in the sums, which stay non-finite once they are, and raises at
    # the first period it shows in instead of warning
    x_bar, x_under = seeding.s_bar, seeding.s_under
    states = [ConsumptionState(x_bar=x_bar, x_under=x_under, k=0)] if store_states else []
    acc_bar = np.zeros(graph.n)
    acc_under = np.zeros(graph.n)
    discount = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, horizon + 1):
            x_bar, x_under = _step(x_bar, x_under, graph, params)
            discount *= params.delta
            acc_bar += discount * x_bar
            acc_under += discount * x_under
            if not (math.isfinite(acc_bar.max()) and math.isfinite(acc_under.max())):
                raise ConsumptionOverflowError(f"consumption overflows within horizon {horizon}")
            if store_states:
                states.append(ConsumptionState._unchecked(x_bar, x_under, k))
    tail = _tail_certificate(graph, params, seeding, horizon)
    return Trajectory(states=tuple(states),
                      discounted_bar=_as_readonly(acc_bar),
                      discounted_under=_as_readonly(acc_under),
                      tail_bound=float(tail), horizon=int(horizon))


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Export states as CSV rows (k, node, x_bar, x_under), 1-based nodes.

    Values print as repr of the float, so they read back exactly; repr runs
    once per distinct value (reportio.format_distinct).  A state of few runs
    of identical consecutive rows (core-periphery graphs) is written one join
    per run, any other one join of six cells per row.  Values are told apart
    by their bits, so -0.0 still prints as -0.0 next to a 0.0.
    """
    if not trajectory.states:
        raise ValueError("trajectory was simulated without stored states")
    n = trajectory.states[0].n
    node_cells = [f",{node}," for node in range(1, n + 1)]
    # one row is the six cells k, ",node,", x_bar, ",", x_under, "\n"; the
    # node, separator and newline cells are the same in every state
    cells = [","] * (6 * n)
    cells[1::6] = node_cells
    cells[5::6] = ["\n"] * n
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write("k,node,x_bar,x_under\n")
        for state in trajectory.states:
            k = str(state.k)
            bits = np.stack((state.x_bar, state.x_under)).view(np.int64)
            starts = np.flatnonzero((bits[:, 1:] != bits[:, :-1]).any(axis=0)) + 1
            runs = _RUN_RATIO * (starts.size + 1) <= n
            heads = [0, *starts.tolist()] if runs else slice(None)  # the rows to format
            texts = format_distinct(np.concatenate((state.x_bar[heads], state.x_under[heads])),
                                    lambda xs: list(map(repr, xs)))
            half = len(texts) // 2
            if runs:
                tails = [f"{bar},{under}\n" for bar, under in zip(texts[:half], texts[half:])]
                handle.write("".join([k + (tail + k).join(node_cells[a:b]) + tail
                                      for a, b, tail in zip(heads, heads[1:] + [n], tails)]))
            else:
                cells[0::6] = [k] * n
                cells[2::6] = texts[:half]
                cells[4::6] = texts[half:]
                handle.write("".join(cells))
