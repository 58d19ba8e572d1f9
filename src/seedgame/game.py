"""The two-firm seeding game: discounted consumption, firm payoffs, Nash
seeding, and epsilon-equilibrium certificates for sparse seed sets.

A firm's payoff is its discounted revenue minus the quadratic seeding cost.
Revenue counts the seeded period as sold consumption, so the payoff of the
x_bar firm is

    U(s_bar, s_under) = price * (1' s_bar + 1' y_bar) - ||s_bar||^2 / 2,

with y_bar = sum_{k>=1} delta^k x_bar(k) from the best-response dynamics.
The payoff is affine in the seedings with coefficients price * c_new (own)
and price * c_cross (rival), so every payoff here is priced from the
centrality bundle without a further linear solve.  DiscountedSolver keeps the
full discounted-consumption solve as an independent oracle for the checks.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import centrality
from .centrality import (CentralityBundle, _admit, _AttenuatedSystem, _dot,
                         biproduct_centrality)
from .dynamics import SeedingPair
from .graph import _DEFAULT_TOL, MarketParams, WeightedDigraph, _check_count, _check_id


def _id_index(ids, n: int) -> np.ndarray:
    """0-based int64 ids, repeats kept, when n is a positive integer and every
    id is a Python or numpy int (not a bool) in 1..n, from one numpy pass;
    else _check_count's or _check_id's first error."""
    _check_count(n)
    if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu"):
        ids = list(ids)
        if all(t is int or issubclass(t, np.integer) for t in set(map(type, ids))):
            with contextlib.suppress(OverflowError):  # an id beyond int64
                ids = np.array(ids, dtype=np.int64)
    if isinstance(ids, np.ndarray) and (ids.size == 0 or 1 <= ids.min() and ids.max() <= n):
        return ids.astype(np.int64) - 1
    return np.array([_check_id(i, n) for i in ids], dtype=np.int64) - 1


@dataclass(frozen=True)
class SeedSet:
    """A set of seeded agents (1-based ids) inside a graph of n agents; _index
    holds them 0-based as one sorted read-only array, outside the fields."""

    members: tuple[int, ...]
    n: int

    def __post_init__(self):
        index = np.sort(_id_index(self.members, self.n))
        if np.any(index[1:] == index[:-1]):
            raise ValueError("seed set contains duplicate ids")
        index.flags.writeable = False
        object.__setattr__(self, "members", tuple((index + 1).tolist()))
        object.__setattr__(self, "_index", index)

    def __reduce__(self):  # a copy or an unpickled set is built, checked and frozen anew
        return type(self), (self.members, self.n)

    @classmethod
    def of(cls, ids: Iterable[int], n: int) -> "SeedSet":
        """Build from any ids, dropping repeats; each is checked as the constructor checks it."""
        index = np.sort(_id_index(ids, n))  # np.unique takes 20x as long on numpy 2.4
        return cls(members=index[np.diff(index, prepend=-1) != 0] + 1, n=n)

    @classmethod
    def empty(cls, n: int) -> "SeedSet":
        return cls(members=(), n=n)

    @classmethod
    def full(cls, n: int) -> "SeedSet":
        _check_count(n)  # before range sees it
        return cls(members=tuple(range(1, n + 1)), n=n)

    @property
    def size(self) -> int:
        return len(self.members)

    def indicator(self) -> np.ndarray:
        """0/1 vector, 0-based."""
        return np.bincount(self._index, minlength=self.n).astype(float)

    def mask(self) -> np.ndarray:
        return self.indicator() > 0


@dataclass(frozen=True)
class UtilityBreakdown:
    """A firm's payoff split into gross revenue, seeding cost, and the affine
    components of the gross term (zero-seeding baseline, own-seed linear term,
    rival-seed linear term)."""

    gross: float
    seeding_cost: float
    net: float
    baseline: float
    own_term: float
    cross_term: float


@dataclass(frozen=True)
class EpsilonReport:
    """Equilibrium quality of a pair of restricted seed sets.

    tau_bar / tau_under are the closed-form relative deviation-gain bounds for
    the two firms; epsilon_paper is their maximum.  epsilon_exact_a/b are the
    exact relative gains (best deviation payoff over candidate payoff, both
    net of seeding costs), reported separately and flagged None when the
    candidate payoff is nonpositive.  The two quantities answer slightly
    different questions and are never reconciled.
    """

    set_bar: SeedSet
    set_under: SeedSet
    tau_bar: float
    tau_under: float
    epsilon_paper: float
    epsilon_exact_a: float | None
    epsilon_exact_b: float | None
    residual_bar: float
    residual_under: float


DIRECT_SOLVE_MAX_N = 2000  # largest graph whose oracle systems are factored up front


class DiscountedSolver:
    """Full-solve evaluator of discounted consumption, the independent oracle
    for the closed-form payoffs.

    The 2n-dimensional discounted-consumption system block-diagonalizes under
    the sum/difference transform into two independent n x n systems with
    attenuations delta*(1+beta) and delta*(1-beta); no 2n x 2n matrix is ever
    materialized.  Both systems serve any number of right-hand sides; up to
    DIRECT_SOLVE_MAX_N agents each is factored once with a sparse LU, so the
    oracle checks the centralities' Anderson iteration with a direct solve.
    Every evaluation (consumption, net_payoffs_a, nash_deviation_check)
    builds both systems' right-hand sides in solve_systems, from one G @ s
    product per seeding block and the rival's product formed once.
    """

    def __init__(self, graph: WeightedDigraph, params: MarketParams,
                 tol: float = _DEFAULT_TOL):
        _admit(graph, params, tol)
        self.graph = graph
        self.params = params
        self.tol = tol
        self._q_plus = params.delta * (1.0 + params.beta)
        self._q_minus = params.delta * (1.0 - params.beta)
        self._r = params.delta * (params.alpha - params.price) / (1.0 - params.delta)
        # seedings per block: a whole number of stacked Anderson groups (README)
        self.block_columns = 2 * max(2, centrality._DOT_CHUNK // graph.n)
        systems = {q: _AttenuatedSystem(graph.matrix, q, tol)  # one when beta = 0
                   for q in (self._q_plus, self._q_minus)}
        self._plus, self._minus = systems[self._q_plus], systems[self._q_minus]
        if graph.n <= DIRECT_SOLVE_MAX_N:
            for system in systems.values():
                system._factor()

    def solve_systems(self, g_own: np.ndarray,
                      g_rival: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Plus and minus solutions (u, v), y_bar = (u + v) / 2 and y_under =
        (u - v) / 2, for the seedings whose G-products are g_own's columns
        against the rival's g_rival: q_plus (g_own + g_rival) + 2 r is formed
        anew, q_minus (g_own - g_rival) in the caller's g_own, and an exactly
        zero right-hand side is not solved (v = 0)."""
        rhs = g_own + g_rival
        rhs *= self._q_plus
        rhs += 2.0 * self._r
        u, _ = self._plus.solve(rhs)
        g_own -= g_rival
        g_own *= self._q_minus
        if not np.any(g_own):
            return u, np.zeros_like(u)
        v, _ = self._minus.solve(g_own)
        return u, v

    def consumption(self, seeding: SeedingPair) -> tuple[np.ndarray, np.ndarray]:
        """Discounted sums (y_bar, y_under) with y = sum_{k>=1} delta^k x(k)."""
        if seeding.n != self.graph.n:
            raise ValueError(f"seeding has {seeding.n} agents, graph has {self.graph.n}")
        matrix = self.graph.matrix
        u, v = self.solve_systems(matrix @ seeding.s_bar[:, None],
                                  matrix @ seeding.s_under[:, None])
        return 0.5 * (u[:, 0] + v[:, 0]), 0.5 * (u[:, 0] - v[:, 0])

    def net_payoffs_a(self, s_bar: np.ndarray, s_under: np.ndarray) -> np.ndarray:
        """Firm a's net payoff price * (1's + 1'y_bar) - s's / 2 for each
        column s of the (n, k) block s_bar, against the rival's seeding
        s_under, from one solve per system.

        Each column's sums and cost are taken from a contiguous row, the
        way gross_revenues and a 1-D dot take them for one seeding, so a
        column's payoff equals the single-seeding one bit for bit whenever
        the solve treats columns independently (always on the LU path)."""
        if s_bar.ndim != 2 or s_bar.shape[0] != self.graph.n:
            raise ValueError(f"seeding block must have shape ({self.graph.n}, k), "
                             f"got {s_bar.shape}")
        matrix = self.graph.matrix
        u, v = self.solve_systems(matrix @ s_bar, (matrix @ s_under)[:, None])
        y_bar = 0.5 * (u + v)
        seeds = np.ascontiguousarray(s_bar.T)
        gross = self.params.price * (seeds.sum(axis=1)
                                     + np.ascontiguousarray(y_bar.T).sum(axis=1))
        # s's per column as _dot(s, s) adds it: a row @ a column is numpy's 1-D dot
        rows, chunk = seeds[:, None, :], centrality._DOT_CHUNK
        cost = sum(rows[..., i:i + chunk] @ seeds[:, i:i + chunk, None]
                   for i in range(0, self.graph.n, chunk))
        return gross - 0.5 * cost[:, 0, 0]

    def gross_revenues(self, seeding: SeedingPair) -> tuple[float, float]:
        """price * (seeded period + discounted consumption), per firm."""
        y_bar, y_under = self.consumption(seeding)
        p = self.params.price
        return (p * (float(seeding.s_bar.sum()) + float(y_bar.sum())),
                p * (float(seeding.s_under.sum()) + float(y_under.sum())))


def discounted_consumption(graph: WeightedDigraph, params: MarketParams,
                           seeding: SeedingPair,
                           tol: float = _DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Discounted consumption sums (y_bar, y_under) from the full linear solve."""
    return DiscountedSolver(graph, params, tol).consumption(seeding)


def _baseline(params: MarketParams, bundle: CentralityBundle) -> float:
    """Zero-seeding payoff: price * delta * (alpha - price) / (1 - delta) * 1'b."""
    r = params.delta * (params.alpha - params.price) / (1.0 - params.delta)
    return params.price * r * float(bundle.b.sum())


def _require_bundle(graph, params, bundle, tol) -> CentralityBundle:
    if bundle is None:
        return biproduct_centrality(graph, params, tol)
    if bundle.n != graph.n:
        raise ValueError(f"bundle has {bundle.n} agents, graph has {graph.n}")
    return bundle


def firm_utility(graph: WeightedDigraph, params: MarketParams, seeding: SeedingPair,
                 bundle: CentralityBundle | None = None,
                 tol: float = _DEFAULT_TOL) -> tuple[UtilityBreakdown, UtilityBreakdown]:
    """Both firms' payoff breakdowns at the given seeding pair.

    gross = baseline + own_term + cross_term, priced from the bundle with no
    linear solve: own_term = price * c_new . s_own and
    cross_term = price * c_cross . s_rival.  DiscountedSolver.gross_revenues
    computes the same gross from the full solve.
    """
    if seeding.n != graph.n:
        raise ValueError(f"seeding has {seeding.n} agents, graph has {graph.n}")
    bundle = _require_bundle(graph, params, bundle, tol)
    p = params.price
    base = _baseline(params, bundle)

    def breakdown(own: np.ndarray, rival: np.ndarray) -> UtilityBreakdown:
        own_term = p * float(_dot(bundle.c_new, own))
        cross_term = p * float(_dot(bundle.c_cross, rival))
        gross = base + own_term + cross_term
        cost = 0.5 * float(_dot(own, own))
        return UtilityBreakdown(gross=gross, seeding_cost=cost, net=gross - cost,
                                baseline=base, own_term=own_term, cross_term=cross_term)

    return (breakdown(seeding.s_bar, seeding.s_under),
            breakdown(seeding.s_under, seeding.s_bar))


def utility_gradient(graph: WeightedDigraph, params: MarketParams, seeding: SeedingPair,
                     firm: str = "a", bundle: CentralityBundle | None = None,
                     tol: float = _DEFAULT_TOL) -> np.ndarray:
    """Gradient of a firm's payoff in its own seeding: price * c_new - s_own.

    Does not depend on the rival's seeding in any way.
    """
    if firm not in ("a", "b"):
        raise ValueError(f"firm must be 'a' or 'b', got {firm!r}")
    if seeding.n != graph.n:
        raise ValueError(f"seeding has {seeding.n} agents, graph has {graph.n}")
    bundle = _require_bundle(graph, params, bundle, tol)
    own = seeding.s_bar if firm == "a" else seeding.s_under
    return params.price * bundle.c_new - own


def nash_seeding(graph: WeightedDigraph, params: MarketParams,
                 bundle: CentralityBundle | None = None,
                 tol: float = _DEFAULT_TOL) -> SeedingPair:
    """The unique symmetric Nash seeding: both firms seed price * c_new."""
    bundle = _require_bundle(graph, params, bundle, tol)
    target = params.price * bundle.c_new
    return SeedingPair(s_bar=target.copy(), s_under=target.copy())


def best_response_gain(graph: WeightedDigraph, params: MarketParams, own_set: SeedSet,
                       bundle: CentralityBundle | None = None,
                       tol: float = _DEFAULT_TOL) -> float:
    """Payoff left on the table by seeding price * c_new only inside own_set:
    the best unrestricted deviation gains price^2 / 2 * sum_{i not in S} c_i^2,
    independent of the rival's seeding."""
    if own_set.n != graph.n:
        raise ValueError(f"seed set is over {own_set.n} agents, graph has {graph.n}")
    bundle = _require_bundle(graph, params, bundle, tol)
    outside = ~own_set.mask()
    c2 = bundle.c_new ** 2
    return 0.5 * params.price ** 2 * float(c2[outside].sum())


def restricted_nash_seeding(params: MarketParams, bundle: CentralityBundle,
                            set_bar: SeedSet, set_under: SeedSet) -> SeedingPair:
    """price * c_new zeroed outside each firm's allowed set."""
    c = bundle.c_new
    return SeedingPair(s_bar=params.price * c * set_bar.indicator(),
                       s_under=params.price * c * set_under.indicator())


def _kappa(params: MarketParams) -> float:
    """The weight of 1'b in tau's denominator."""
    return (params.delta * (params.alpha - params.price)
            / (2.0 * params.price * (1.0 - params.delta)))


def epsilon_for_sets(graph: WeightedDigraph, params: MarketParams,
                     set_bar: SeedSet, set_under: SeedSet,
                     bundle: CentralityBundle | None = None,
                     tol: float = _DEFAULT_TOL) -> EpsilonReport:
    """Epsilon-equilibrium certificate for seeding price * c_new restricted to
    the given sets.

    The closed-form bounds tau use
    sum_{i not in S} c_i^2 / (delta (alpha - price) / (2 price (1 - delta)) 1'b
    + sum_{i in S} c_i^2); the exact relative gains divide the best deviation's
    net payoff improvement by the candidate's net payoff.
    """
    for label, s in (("set_bar", set_bar), ("set_under", set_under)):
        if s.n != graph.n:
            raise ValueError(f"{label} is over {s.n} agents, graph has {graph.n}")
    bundle = _require_bundle(graph, params, bundle, tol)
    c2 = bundle.c_new ** 2
    total = float(c2.sum())
    base = _kappa(params) * float(bundle.b.sum())
    candidate = restricted_nash_seeding(params, bundle, set_bar, set_under)
    payoffs = firm_utility(graph, params, candidate, bundle=bundle, tol=tol)
    taus, exacts, residuals = [], [], []
    for own_set, payoff in zip((set_bar, set_under), payoffs):
        mask = own_set.mask()
        outside = float(c2[~mask].sum())
        denominator = base + float(c2[mask].sum())
        taus.append(outside / denominator if denominator != 0.0
                    else float("inf") if outside > 0.0 else 0.0)
        gain = 0.5 * params.price ** 2 * outside  # best_response_gain
        exacts.append(gain / payoff.net if payoff.net > 0.0 else None)
        residuals.append(outside / total)
    return EpsilonReport(
        set_bar=set_bar, set_under=set_under,
        tau_bar=taus[0], tau_under=taus[1], epsilon_paper=max(taus),
        epsilon_exact_a=exacts[0], epsilon_exact_b=exacts[1],
        residual_bar=residuals[0], residual_under=residuals[1])


def check_epsilon_target(epsilon_target: float) -> None:
    """Refuse a sparsify target that is not a nonnegative real."""
    if not (np.isfinite(epsilon_target) and epsilon_target >= 0):
        raise ValueError(f"epsilon_target must be a nonnegative real, got {epsilon_target}")


def _greedy_prefix(c2: np.ndarray, base: float, epsilon_target: float) -> np.ndarray:
    """0-based agents of the shortest prefix of the greedy order (descending
    c2, ties by ascending id) whose tau = outside / (base + inside) is at
    most epsilon_target; all agents when no shorter prefix reaches it."""
    order = np.lexsort((np.arange(c2.size), -c2))
    # tau before each greedy step: cumsum adds in order, as a loop of += and
    # -= would, so every tau is the same float the loop gives
    steps = c2[order[:-1]]
    inside = np.cumsum(np.concatenate(([0.0], steps)))
    outside = np.cumsum(np.concatenate(([c2.sum()], -steps)))
    denominator = base + inside
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tau = np.where(denominator > 0.0, outside / denominator,
                       np.where(outside > 0.0, np.inf, 0.0))
    reached = np.flatnonzero(tau <= epsilon_target)
    return order[:reached[0] if reached.size else c2.size]


def sparsify(graph: WeightedDigraph, params: MarketParams, epsilon_target: float,
             bundle: CentralityBundle | None = None,
             tol: float = _DEFAULT_TOL) -> tuple[SeedSet, SeedSet, EpsilonReport]:
    """Smallest greedy symmetric seed set with epsilon_paper <= epsilon_target.

    Agents enter by descending c_new^2, ties broken by ascending id.  Both
    firms share the set; each added agent strictly lowers tau, and the full
    set reaches tau = 0.
    """
    check_epsilon_target(epsilon_target)
    bundle = _require_bundle(graph, params, bundle, tol)
    chosen = _greedy_prefix(bundle.c_new ** 2, _kappa(params) * float(bundle.b.sum()),
                            epsilon_target)
    seed_set = SeedSet.of(chosen + 1, graph.n)
    report = epsilon_for_sets(graph, params, seed_set, seed_set, bundle=bundle, tol=tol)
    return seed_set, seed_set, report


def nash_deviation_check(graph: WeightedDigraph, params: MarketParams,
                         samples: int = 10_000, seed: int = 0,
                         bundle: CentralityBundle | None = None,
                         tol: float = _DEFAULT_TOL,
                         solver: DiscountedSolver | None = None) -> float:
    """Largest net-payoff improvement any sampled unilateral deviation achieves
    against the Nash seeding (should be <= solver noise).

    Candidates mix local perturbations of the optimum, global uniform draws,
    and sparse profiles; they are generated by a seeded generator and
    evaluated through the full linear solve in blocks of
    solver.block_columns, so the check is deterministic in (graph, params,
    samples, seed).  Each block is one G @ block product, handed to
    solver.solve_systems with G star (formed once per check): it forms
    q_plus (G s + G star) + 2 r anew and q_minus (G s - G star) in the
    product, and each system's solve certifies every candidate's full
    right-hand side to tol.  A candidate s is priced from column sums only,
    price * (1's + 1'(u + v) / 2) - s's / 2; each sum runs over its own
    column in one order, so its payoff depends on the block width only
    through the stacked Anderson group its column is solved in.  A caller
    holding a DiscountedSolver for the same graph, market and tol passes it
    as solver.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    bundle = _require_bundle(graph, params, bundle, tol)
    if solver is None:
        solver = DiscountedSolver(graph, params, tol)
    elif not (solver.graph is graph and solver.params == params and solver.tol == tol):
        raise ValueError("solver was built for a different graph, market or tol")
    star = params.price * bundle.c_new
    gross_star, _ = solver.gross_revenues(SeedingPair(s_bar=star, s_under=star))
    net_star = gross_star - 0.5 * float(_dot(star, star))

    p = params.price
    g_star = (graph.matrix @ star)[:, None]
    width = solver.block_columns
    worst = -np.inf
    # Whichever firm deviates, its own discounted consumption and the Nash
    # payoff it compares with are the first firm's, so one evaluation serves both.
    for part in _deviation_candidates(np.random.default_rng(seed), star,
                                      p * float(bundle.c_new.max()), samples):
        # seeded period minus seeding cost, each summed over a whole column
        payoffs = p * part.sum(axis=0) - 0.5 * np.einsum("ij,ij->j", part, part)
        for start in range(0, part.shape[1], width):
            u, v = solver.solve_systems(graph.matrix @ part[:, start:start + width], g_star)
            u += v  # y_bar = (u + v) / 2
            # both solve paths return Fortran-ordered solutions, so each column
            # sum runs over that column alone, in one order at any width
            payoffs[start:start + width] += 0.5 * p * u.sum(axis=0)
        worst = max(worst, float(np.max(payoffs - net_star, initial=-np.inf)))
    return worst


def _deviation_candidates(rng: np.random.Generator, star: np.ndarray, scale: float,
                          samples: int) -> Iterator[np.ndarray]:
    """Each firm's sampled deviations in turn, as (n, k) parts, each drawn
    in place into one array that the next part overwrites:
    samples // 3 local perturbations of star, as many uniform draws on
    [0, 2 scale), and the rest sparse draws that keep each entry with
    probability 0.3."""
    n, thirds = star.shape[0], samples // 3
    store = np.empty(n * (samples - 2 * thirds))  # the largest part
    sparse = store.reshape(n, samples - 2 * thirds)
    mask = np.empty((max(1, centrality._DOT_CHUNK // sparse.shape[1]), sparse.shape[1]))
    for _ in range(2):  # one firm's deviations, then the other's
        local = store[:n * thirds].reshape(n, thirds)
        rng.standard_normal(out=local)
        local *= 0.25 * scale
        local += star[:, None]
        yield np.maximum(local, 0.0, out=local)
        uniform = store[:n * thirds].reshape(n, thirds)
        rng.random(out=uniform)
        uniform *= 2.0 * scale
        yield uniform
        rng.random(out=sparse)
        sparse *= 2.0 * scale
        # the mask continues the stream row by row, so drawing it a few rows
        # at a time gives the numbers one draw of sparse's shape gives
        for row in range(0, n, mask.shape[0]):
            rows = sparse[row:row + mask.shape[0]]
            rows *= rng.random(out=mask[:rows.shape[0]]) < 0.3
        yield sparse
