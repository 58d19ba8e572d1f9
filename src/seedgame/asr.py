"""Sparse-seeding diagnostics across graph families.

A family admits asymptotically vanishing epsilon with O(1) seed sets exactly
when the centrality mass outside the seeded set vanishes relative to the
total; these helpers compute that residual, closed forms for core-periphery
graphs, scans over size schedules with the paper's asymptotic verdict on the
family, and the degree-based obstructions to sparse seeding.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .centrality import CentralityBundle, biproduct_centrality
from .game import SeedSet, epsilon_for_sets
from .graph import (_DEFAULT_TOL, AssumptionError, CorePeripheryParams, MarketParams,
                    WeightedDigraph, generate_bounded_outdegree_family,
                    generate_core_periphery)

def sparsity_residual(bundle: CentralityBundle, seed_set: SeedSet) -> float:
    """Fraction of squared bi-product centrality mass outside the seed set."""
    if seed_set.n != bundle.n:
        raise ValueError(f"seed set over {seed_set.n} agents, bundle has {bundle.n}")
    c2 = bundle.c_new ** 2
    return float(c2[~seed_set.mask()].sum()) / float(c2.sum())


@dataclass(frozen=True)
class CorePeripheryAnalytics:
    """Closed-form centralities and equilibrium seedings on a core-periphery
    graph: peripheries have a = b = 1, role models follow the one-in-edge
    recursions a_L = (1 + (m-1) q) / (1 - q) at q = delta (1 - beta) g and the
    analogue b_L at delta (1 + beta) g."""

    a_periphery: float
    b_periphery: float
    a_role: float
    b_role: float
    c_role: float
    s_star_role: float
    s_star_periphery: float
    params: CorePeripheryParams

    @property
    def c_periphery(self) -> float:
        return 0.5 * (self.a_periphery + self.b_periphery)


def analytic_core_periphery(params: CorePeripheryParams,
                            market: MarketParams) -> CorePeripheryAnalytics:
    """Closed forms for the core-periphery family.

    Requires delta * (1 + beta) * g < 1 (the spectral radius equals g, so this
    is the model's spectral condition specialized to the family).
    """
    q_low = market.delta * (1.0 - market.beta) * params.g
    q_high = market.delta * (1.0 + market.beta) * params.g
    if q_high >= 1.0:
        raise AssumptionError(
            f"delta * (1 + beta) * g = {q_high:.12g} is not below 1; "
            f"the closed forms diverge", rho=params.g, bound=market.spectral_bound)
    a_role = (1.0 + (params.m - 1) * q_low) / (1.0 - q_low)
    b_role = (1.0 + (params.m - 1) * q_high) / (1.0 - q_high)
    c_role = 0.5 * (a_role + b_role)
    return CorePeripheryAnalytics(
        a_periphery=1.0, b_periphery=1.0,
        a_role=a_role, b_role=b_role, c_role=c_role,
        s_star_role=market.price * c_role,
        s_star_periphery=market.price * 1.0,
        params=params)


@dataclass(frozen=True)
class FamilySpec:
    """A graph family with a strictly increasing size schedule (>= 3 sizes).

    kind 'core_periphery' grows the community size m at fixed (chi, g);
    'bounded_outdegree' grows the agent count at fixed (d, weight, seed).
    """

    kind: str
    schedule: tuple[int, ...]
    market: MarketParams
    chi: int = 3
    g: float = 0.5
    d: int = 2
    weight: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("core_periphery", "bounded_outdegree"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        schedule = tuple(int(s) for s in self.schedule)
        if len(schedule) < 3:
            raise ValueError(f"schedule needs at least 3 sizes, got {len(schedule)}")
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ValueError(f"schedule must be strictly increasing, got {schedule}")
        if any(s < 1 for s in schedule):
            raise ValueError("schedule sizes must be positive")
        object.__setattr__(self, "schedule", schedule)

    def build(self, size: int) -> WeightedDigraph:
        if self.kind == "core_periphery":
            return generate_core_periphery(CorePeripheryParams(self.chi, size, self.g))
        return generate_bounded_outdegree_family(size, self.d, self.weight,
                                                 seed=self.seed + size)


@dataclass(frozen=True)
class ScanRecord:
    """Per-size outcome of a family scan."""

    size: int
    n: int
    set_size_bar: int
    set_size_under: int
    residual_bar: float
    residual_under: float
    epsilon_paper: float
    epsilon_exact_a: float | None
    epsilon_exact_b: float | None


@dataclass(frozen=True)
class ASRScanResult:
    """Scan records plus the family's verdict, decided by the paper's
    conditions and not by the epsilons, which are finite-size data.

    On core-periphery: 'decreasing-toward-zero' when g > 0 and the rule's set
    holds every role model at every scanned size, else 'bounded-away'.  On
    bounded-out-degree: 'bounded-away' when delta * (1 + beta) * d * weight < 1
    (the obstruction of check_necessary_condition), else 'inconclusive'.
    decay_exponent is the log-log slope of epsilon_paper against n.
    """

    records: tuple[ScanRecord, ...]
    verdict: str
    decay_exponent: float
    rule: str


def _resolve_rule(rule, roles: tuple[int, ...], graph: WeightedDigraph,
                  bundle: CentralityBundle) -> SeedSet:
    """The rule's seed set on the family's instance: its role models, or the
    k agents of largest c_new (ties to the lower id)."""
    if rule == "role_models":
        return SeedSet.of(roles, graph.n)
    order = np.lexsort((np.arange(graph.n), -bundle.c_new ** 2))
    return SeedSet.of(order[:int(rule[1])] + 1, graph.n)


def _fit_loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if (x <= 0).any() or (y <= 0).any() or not np.isfinite(y).all():
        return float("nan")
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)


def scan_family(spec: FamilySpec, rule="role_models",
                tol: float = _DEFAULT_TOL) -> ASRScanResult:
    """Evaluate the seeding rule across the schedule and give the family's
    verdict (ASRScanResult).

    rule is "role_models" (the chi role models of a core_periphery family)
    or ("top_k", k) (k must lie in 0..n at every size), so the set has one
    size across the schedule (the sparse-seeding question is about O(1)
    sets); a validation failure at any size aborts the scan naming that size.
    """
    # refuse a rule that cannot apply before any build; n only grows along the schedule
    top_k = isinstance(rule, tuple) and len(rule) == 2 and rule[0] == "top_k"
    if rule != "role_models" and not top_k:
        raise ValueError(f"unknown seeding rule {rule!r}")
    if rule == "role_models" and spec.kind != "core_periphery":
        raise ValueError("role_models rule needs a core_periphery family")
    first = spec.schedule[0]
    n = CorePeripheryParams(spec.chi, first, spec.g).n if spec.kind == "core_periphery" else first
    if top_k and not 0 <= int(rule[1]) <= n:
        raise ValueError(f"top_k size {int(rule[1])} outside 0..{n}")
    records: list[ScanRecord] = []
    holds_roles = True
    for size in spec.schedule:
        graph = spec.build(size)
        try:
            bundle = biproduct_centrality(graph, spec.market, tol)
        except AssumptionError as exc:
            raise AssumptionError(f"{exc} at family size {size}", rho=exc.rho,
                                  bound=exc.bound, report=exc.report) from exc
        roles = (CorePeripheryParams(spec.chi, size, spec.g).role_models()
                 if spec.kind == "core_periphery" else ())
        seed_set = _resolve_rule(rule, roles, graph, bundle)
        holds_roles = holds_roles and set(roles) <= set(seed_set.members)
        report = epsilon_for_sets(graph, spec.market, seed_set, seed_set,
                                  bundle=bundle, tol=tol)
        records.append(ScanRecord(
            size=size, n=graph.n,
            set_size_bar=seed_set.size, set_size_under=seed_set.size,
            residual_bar=report.residual_bar, residual_under=report.residual_under,
            epsilon_paper=report.epsilon_paper,
            epsilon_exact_a=report.epsilon_exact_a,
            epsilon_exact_b=report.epsilon_exact_b))
    slope = _fit_loglog_slope([r.n for r in records], [r.epsilon_paper for r in records])
    if spec.kind == "core_periphery":
        verdict = "decreasing-toward-zero" if spec.g > 0 and holds_roles else "bounded-away"
    else:
        q = spec.market.delta * (1.0 + spec.market.beta) * spec.d * spec.weight
        verdict = "bounded-away" if q < 1.0 else "inconclusive"
    return ASRScanResult(records=tuple(records), verdict=verdict,
                         decay_exponent=slope,
                         rule=rule if rule == "role_models" else f"top_k:{rule[1]}")


def write_scan_csv(result: ASRScanResult, path: str | Path) -> None:
    """CSV export, one row per scanned size."""
    lines = ["size,n,set_size,residual_bar,residual_under,"
             "epsilon_paper,epsilon_exact_a,epsilon_exact_b"]
    for r in result.records:
        exact_a = "" if r.epsilon_exact_a is None else repr(r.epsilon_exact_a)
        exact_b = "" if r.epsilon_exact_b is None else repr(r.epsilon_exact_b)
        lines.append(f"{r.size},{r.n},{r.set_size_bar},{r.residual_bar!r},"
                     f"{r.residual_under!r},{r.epsilon_paper!r},{exact_a},{exact_b}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class NecessaryConditionReport:
    """Degree obstruction to sparse seeding on a single graph.

    When delta * (1 + beta) * d_max_out < 1 every centrality is pinned inside
    [1 + delta * beta * d_out_i, (1 - delta beta d) / ((1 - delta (1+beta) d)
    (1 - delta (1-beta) d))] at d = d_max_out, so no O(1) set can capture the
    squared mass and the family cannot be sparse-seedable.
    """

    d_max_out: float
    threshold: float
    blocks_sparse_seeding: bool
    lower_bounds_hold: bool
    upper_bound: float | None
    upper_bounds_hold: bool | None


def check_necessary_condition(graph: WeightedDigraph, params: MarketParams,
                              bundle: CentralityBundle | None = None,
                              tol: float = _DEFAULT_TOL) -> NecessaryConditionReport:
    """Evaluate the bounded-out-degree obstruction and verify the centrality
    bounds it rests on."""
    if bundle is None:
        bundle = biproduct_centrality(graph, params, tol)
    d_out = graph.out_degrees
    d_max = float(d_out.max()) if graph.edge_count else 0.0
    threshold = params.spectral_bound
    blocks = d_max < threshold
    slack = 1e-9
    lower = 1.0 + params.delta * params.beta * d_out
    lower_ok = bool((bundle.c_new >= lower - slack).all())
    upper = None
    upper_ok = None
    if blocks:
        q_high = params.delta * (1.0 + params.beta) * d_max
        q_low = params.delta * (1.0 - params.beta) * d_max
        upper = (1.0 - params.delta * params.beta * d_max) / ((1.0 - q_high) * (1.0 - q_low))
        upper_ok = bool((bundle.c_new <= upper + slack).all())
    return NecessaryConditionReport(
        d_max_out=d_max, threshold=threshold, blocks_sparse_seeding=blocks,
        lower_bounds_hold=lower_ok, upper_bound=upper, upper_bounds_hold=upper_ok)
