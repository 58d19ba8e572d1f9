import functools
import math
import operator
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from seedgame import (AssumptionError, DiscountedSolver, MarketParams, SeedingPair,
                      SolverError, TailCertificationError, WeightedDigraph,
                      biproduct_centrality, discounted_consumption, katz_bonacich,
                      neumann_oracle, neumann_tail_bound, simulate)
import seedgame.centrality as centrality_mod
import seedgame.graph as graph_mod
from seedgame.centrality import _DOT_CHUNK, _dot, certified_neumann_series

from conftest import random_validated_graph

# hand-derived chain values: agent 1 <- agent 2 with weight 0.5, so agent 2's
# walk count at attenuation q is 1 + 0.5 q and agent 1's is 1
TWO_NODE_A = np.array([1.0, 1.125])       # q = 0.25
TWO_NODE_B = np.array([1.0, 1.375])       # q = 0.75

# core-periphery chi=3, m=4, g=0.5 at delta=beta=0.5: role-model values are
# exact rationals 11/7 and 17/5, giving c_new = 87/35 and c_cross = 32/35
CP_ROLE_A = 11.0 / 7.0
CP_ROLE_B = 3.4
CP_ROLE_C_NEW = 87.0 / 35.0
CP_ROLE_C_CROSS = 32.0 / 35.0


class TestKatzBonacich:
    def test_two_node_chain(self, two_node):
        assert np.allclose(katz_bonacich(two_node, 0.25), TWO_NODE_A, atol=1e-12)
        assert np.allclose(katz_bonacich(two_node, 0.75), TWO_NODE_B, atol=1e-12)

    def test_zero_attenuation_is_ones(self, cp_graph):
        assert np.array_equal(katz_bonacich(cp_graph, 0.0), np.ones(cp_graph.n))

    def test_empty_graph_is_ones(self):
        g = WeightedDigraph.empty(5)
        assert np.allclose(katz_bonacich(g, 0.9), np.ones(5))

    def test_entries_at_least_one(self, test_suite):
        for name, graph in test_suite:
            for q in (0.25, 0.75):
                x = katz_bonacich(graph, q)
                assert x.min() >= 1.0 - 1e-12, name

    def test_refuses_attenuation_at_radius(self):
        g = WeightedDigraph(2, [(1, 2, 0.5), (2, 1, 0.5)])  # rho = 0.5
        with pytest.raises(AssumptionError) as info:
            katz_bonacich(g, 2.0)
        assert info.value.rho == pytest.approx(0.5, abs=1e-9)
        katz_bonacich(g, 1.9)  # just inside the region is fine

    def test_refusal_reports_the_largest_admissible_radius(self, cp_graph):
        # rho = 0.5: at attenuation 2.5 the admissible radii are those below
        # 1 / 2.5, the bound validate_assumptions reports for a market too
        with pytest.raises(AssumptionError) as info:
            katz_bonacich(cp_graph, 2.5)
        assert info.value.rho == pytest.approx(0.5, abs=1e-9)
        assert info.value.bound == 1.0 / 2.5

    def test_monotone_in_attenuation(self, cp_graph):
        prev = katz_bonacich(cp_graph, 0.1)
        for q in (0.3, 0.6, 0.9):
            cur = katz_bonacich(cp_graph, q)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_fixed_point_path_matches_direct(self, random_suite):
        for g in random_suite[:5]:
            system = sp.identity(g.n, format="csc") - 0.7 * g.matrix.T.tocsc()
            direct = spla.spsolve(system, np.ones(g.n))
            assert np.allclose(katz_bonacich(g, 0.7), direct, atol=1e-9)


def _in_degree_graph(n: int, degree: int, weight: float, seed: int) -> WeightedDigraph:
    """Every agent listens to `degree` distinct others at one weight, so each
    row sums to degree * weight, which is the spectral radius."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        others = rng.choice(n - 1, size=degree, replace=False)
        edges.extend((i + 1, int(j) + 1 + (j >= i), weight) for j in others)
    return WeightedDigraph(n, edges)


@pytest.fixture
def recorded_systems(monkeypatch):
    """Every _AttenuatedSystem the centrality solves build."""
    systems = []

    class Recording(centrality_mod._AttenuatedSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    monkeypatch.setattr(centrality_mod, "_AttenuatedSystem", Recording)
    return systems


class TestSolverPolicy:
    def test_near_critical_converges_without_lu(self, market, recorded_systems):
        # c * rho = delta * (1 + beta) * 5 * weight = 0.999
        graph = _in_degree_graph(2500, 5, 0.999 / (0.75 * 5), seed=2500)
        bundle = biproduct_centrality(graph, market)
        assert [s.method for s in recorded_systems] == ["anderson", "anderson"]
        assert all(s._lu is None and s.iterations <= 200 for s in recorded_systems)
        high = sp.identity(graph.n, format="csc") - 0.75 * graph.matrix.T.tocsc()
        direct = spla.spsolve(high, np.ones(graph.n))
        assert np.allclose(bundle.b, direct, rtol=1e-9, atol=0.0)
        assert max(bundle.residuals) <= 1e-10

    def test_weighted_cycle_falls_back_to_lu(self):
        n, tol = 200, 1e-10
        weights = 0.5 + 0.6 * np.random.default_rng(0).random(n)
        rho = float(np.exp(np.log(weights).mean()))  # geometric mean on a cycle
        graph = WeightedDigraph(n, [(i + 1, (i + 1) % n + 1, float(w))
                                    for i, w in enumerate(weights)])
        coeff = 0.99 / rho
        system = centrality_mod._AttenuatedSystem(graph.matrix.T.tocsr(), coeff, tol)
        assert system._lu is None
        x, residual = system.solve(np.ones(n))
        assert system.method == "lu"
        assert residual <= tol
        assert np.abs(1.0 - (x - coeff * (graph.matrix.T @ x))).max() <= tol
        # the LU solution certifies the graph too, with no spectral radius
        katz_bonacich(graph, coeff, tol)
        assert rho <= graph._rho_cache["upper"] < 1.0 / coeff


class TestBiProduct:
    def test_two_node_chain(self, two_node, market):
        bundle = biproduct_centrality(two_node, market)
        assert np.allclose(bundle.a, TWO_NODE_A, atol=1e-12)
        assert np.allclose(bundle.b, TWO_NODE_B, atol=1e-12)
        assert np.allclose(bundle.c_new, [1.0, 1.25], atol=1e-12)
        assert np.allclose(bundle.c_cross, [0.0, 0.125], atol=1e-12)

    def test_attenuations_ordering(self, two_node, market):
        bundle = biproduct_centrality(two_node, market)
        assert bundle.attenuations == (0.25, 0.75)
        assert bundle.n == 2

    def test_core_periphery_role_models(self, cp_graph, market):
        bundle = biproduct_centrality(cp_graph, market)
        role = np.array([3, 7, 11])
        periphery = np.setdiff1d(np.arange(12), role)
        assert np.allclose(bundle.a[role], CP_ROLE_A, atol=1e-12)
        assert np.allclose(bundle.b[role], CP_ROLE_B, atol=1e-12)
        assert np.allclose(bundle.c_new[role], CP_ROLE_C_NEW, atol=1e-12)
        assert np.allclose(bundle.c_cross[role], CP_ROLE_C_CROSS, atol=1e-12)
        assert np.allclose(bundle.a[periphery], 1.0, atol=1e-12)
        assert np.allclose(bundle.b[periphery], 1.0, atol=1e-12)

    def test_identities(self, test_suite, market):
        for name, graph in test_suite:
            bundle = biproduct_centrality(graph, market)
            assert np.allclose(bundle.c_new, (bundle.a + bundle.b) / 2, atol=1e-12)
            assert np.allclose(bundle.c_cross, (bundle.b - bundle.a) / 2, atol=1e-12)
            assert np.all(bundle.c_cross >= -1e-12), name

    def test_beta_zero_collapse_is_exact(self, test_suite):
        params = MarketParams(2.0, 1.0, 0.0, 0.5)
        for name, graph in test_suite:
            bundle = biproduct_centrality(graph, params)
            assert np.all(bundle.c_cross == 0.0), name
            assert np.array_equal(bundle.a, bundle.b), name

    def test_residuals_within_tol(self, test_suite, market):
        for _, graph in test_suite:
            bundle = biproduct_centrality(graph, market, tol=1e-10)
            assert max(bundle.residuals) <= 1e-10

    def test_rejects_assumption_violation(self, market):
        g = WeightedDigraph(2, [(1, 2, 1.4), (2, 1, 1.4)])
        with pytest.raises(AssumptionError):
            biproduct_centrality(g, market)

    def test_arrays_read_only(self, two_node, market):
        bundle = biproduct_centrality(two_node, market)
        with pytest.raises(ValueError):
            bundle.c_new[0] = 7.0


def _scaled_digraph(n: int, density: float, seed: int, c_rho: float,
                    att: float) -> tuple[np.ndarray, float]:
    """A random nonnegative n x n matrix scaled to att * rho = c_rho, and its
    rho from dense eigenvalues; rho is 0 for an acyclic draw (unscaled)."""
    rng = np.random.default_rng(seed)
    weights = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(weights, 0.0)
    rho = float(np.abs(np.linalg.eigvals(weights)).max())
    if rho > 1e-6:
        weights *= c_rho / (att * rho)
        rho = float(np.abs(np.linalg.eigvals(weights)).max())
    return weights, rho


# every entry point that admits a graph, as a call on a graph and a market
ENTRY_POINTS = {
    "katz_bonacich": lambda g, m: katz_bonacich(g, m.delta * (1.0 + m.beta)),
    "simulate": lambda g, m: simulate(g, m, SeedingPair.zeros(g.n), horizon=5),
    "DiscountedSolver": DiscountedSolver,
    "discounted_consumption": lambda g, m: discounted_consumption(g, m, SeedingPair.zeros(g.n)),
}


class TestAdmissionCertificate:
    """Every entry point admits a graph from the Collatz-Wielandt bound of a
    delta*(1+beta) solve and refuses the rest through validation."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 25), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1),
           st.floats(0.05, 0.999))
    def test_admitted_with_a_certified_bound(self, n, density, seed, c_rho):
        weights, rho = _scaled_digraph(n, density, seed, c_rho, 0.75)
        assume(rho > 1e-6)
        graph = WeightedDigraph.from_matrix(weights)
        with mock.patch.object(graph_mod, "_power_iteration",
                               side_effect=AssertionError("a spectral radius ran")):
            bundle = biproduct_centrality(graph, MarketParams(2.0, 1.0, 0.5, 0.5))
        upper = graph._rho_cache["upper"]
        assert rho - 1e-12 <= upper < 1.0 / 0.75
        for att, x in zip(bundle.attenuations, (bundle.a, bundle.b)):
            direct = np.linalg.solve(np.eye(n) - att * weights.T, np.ones(n))
            assert np.allclose(x, direct, rtol=1e-9, atol=0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 25), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1),
           st.floats(0.05, 0.999))
    def test_networkx_katz_agrees(self, n, density, seed, c_rho):
        nx = pytest.importorskip("networkx")
        weights, rho = _scaled_digraph(n, density, seed, c_rho, 0.75)
        graph = WeightedDigraph.from_matrix(weights)
        # networkx sums x_j over the edges j -> i into i: our G^T
        oracle = nx.katz_centrality_numpy(nx.from_numpy_array(weights, create_using=nx.DiGraph),
                                          alpha=0.75, beta=1.0, normalized=False,
                                          weight="weight")
        assert np.allclose(katz_bonacich(graph, 0.75), [oracle[i] for i in range(n)],
                           rtol=1e-9, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 25), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1),
           st.floats(1.001, 2.0))
    def test_inadmissible_refused_with_a_report(self, n, density, seed, c_rho):
        weights, rho = _scaled_digraph(n, density, seed, c_rho, 0.75)
        assume(rho > 1e-6)
        graph = WeightedDigraph.from_matrix(weights)
        try:
            biproduct_centrality(graph, MarketParams(2.0, 1.0, 0.5, 0.5))
        except SolverError as exc:
            pytest.fail(f"inadmissible graph ended in SolverError: {exc}")
        except AssumptionError as exc:
            assert exc.report is not None and not exc.report.passed
        else:
            pytest.fail("inadmissible graph admitted")

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 25), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1),
           st.floats(0.05, 0.999))
    def test_every_entry_point_admits_with_a_certified_bound(self, entry, n, density,
                                                             seed, c_rho):
        weights, rho = _scaled_digraph(n, density, seed, c_rho, 0.75)
        assume(rho > 1e-6)
        graph = WeightedDigraph.from_matrix(weights)
        with mock.patch.object(graph_mod, "_power_iteration",
                               side_effect=AssertionError("a spectral radius ran")):
            try:
                ENTRY_POINTS[entry](graph, MarketParams(2.0, 1.0, 0.5, 0.5))
            except TailCertificationError:  # raised past admission, by the tail bound
                assert entry == "simulate"
        assert rho - 1e-12 <= graph._rho_cache["upper"] < 1.0 / 0.75

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 25), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1),
           st.floats(1.001, 2.0))
    def test_every_entry_point_refuses_an_inadmissible_graph(self, entry, n, density,
                                                             seed, c_rho):
        weights, rho = _scaled_digraph(n, density, seed, c_rho, 0.75)
        assume(rho > 1e-6)
        graph = WeightedDigraph.from_matrix(weights)
        with pytest.raises(AssumptionError):
            ENTRY_POINTS[entry](graph, MarketParams(2.0, 1.0, 0.5, 0.5))


def _listens_to_three(c_rho: float) -> WeightedDigraph:
    """50 agents, each listening to 3 distinct others at one weight, so every
    row sums to rho and 0.75 * rho = c_rho: perfbench's in-degree graph at seed
    1, drawn with replacement and the repeated pairs redrawn."""
    n, degree = 50, 3
    rng = np.random.default_rng(1)
    owner = np.repeat(np.arange(n), degree)
    partner = rng.integers(0, n - 1, size=owner.size)
    partner += partner >= owner
    while True:
        _, first = np.unique(owner * n + partner, return_index=True)
        repeated = np.ones(owner.size, dtype=bool)
        repeated[first] = False
        if not repeated.any():
            break
        redraw = rng.integers(0, n - 1, size=int(repeated.sum()))
        partner[repeated] = redraw + (redraw >= owner[repeated])
    weights = np.full(owner.size, c_rho / (0.75 * degree))
    return WeightedDigraph(n, np.column_stack((owner + 1, partner + 1, weights)))


class TestOneAdmission:
    """_katz_with_residual admits the graph and raises a failed solve's error
    after it, so a failing solve runs once; on the 50-agent graph at
    0.75 * rho = 1 - 1e-7 the Katz solve stalls, and the spectral radius
    admits the graph."""

    STALLED = "direct solve stalled at residual 3.73e-09 > tol 1e-10"

    @pytest.fixture
    def katz_calls(self, monkeypatch):
        calls = []
        katz = centrality_mod._katz_with_residual
        monkeypatch.setattr(centrality_mod, "_katz_with_residual", lambda *args, **kwargs:
                            calls.append(args[1]) or katz(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("entry", [
        lambda g: biproduct_centrality(g, MarketParams(2.0, 1.0, 0.5, 0.5)),
        lambda g: katz_bonacich(g, 0.75),
    ], ids=["biproduct_centrality", "katz_bonacich"])
    def test_a_failing_solve_runs_once(self, katz_calls, entry):
        with pytest.raises(SolverError) as info:
            entry(_listens_to_three(1 - 1e-7))
        assert str(info.value) == self.STALLED
        assert katz_calls == [0.75]

    def test_simulate_and_the_oracle_keep_their_errors(self):
        market = MarketParams(2.0, 1.0, 0.5, 0.5)
        graph = _listens_to_three(1 - 1e-7)
        with pytest.raises(TailCertificationError):
            simulate(graph, market, SeedingPair.zeros(graph.n))
        with pytest.raises(SolverError, match="direct solve stalled"):
            discounted_consumption(graph, market, SeedingPair.zeros(graph.n))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_a_refusal_comes_before_a_failed_solve(self, monkeypatch, entry):
        monkeypatch.setattr(centrality_mod._AttenuatedSystem, "solve", mock.Mock(
            side_effect=SolverError("solve failed", residual=1.0)))
        with pytest.raises(AssumptionError):
            ENTRY_POINTS[entry](_listens_to_three(1.01), MarketParams(2.0, 1.0, 0.5, 0.5))


class TestNeumann:
    def test_partial_sums_increase_to_katz(self, cp_graph):
        katz = katz_bonacich(cp_graph, 0.75)
        prev = neumann_oracle(cp_graph, 0.75, 1)
        for terms in (2, 4, 8, 16):
            cur = neumann_oracle(cp_graph, 0.75, terms)
            assert np.all(cur >= prev - 1e-12)
            assert np.all(cur <= katz + 1e-12)
            prev = cur

    def test_certified_tail_is_honest(self, test_suite):
        for name, graph in test_suite:
            for q in (0.25, 0.75):
                katz = katz_bonacich(graph, q)
                for terms in (4, 16, 64):
                    partial = neumann_oracle(graph, q, terms)
                    bound = neumann_tail_bound(graph, q, terms)
                    gap = np.abs(katz - partial).max()
                    assert gap <= bound + 1e-9, (name, q, terms)

    def test_tail_bound_shrinks(self, cp_graph):
        bounds = [neumann_tail_bound(cp_graph, 0.75, t) for t in (4, 8, 16, 32)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_tail_bound_infinite_when_uncontracted(self):
        # one strong cycle of weight 1: powers of G^T never decay at q=1
        g = WeightedDigraph(2, [(1, 2, 1.0), (2, 1, 1.0)])
        assert neumann_tail_bound(g, 1.0, 4) == np.inf

    def test_certified_series_is_the_oracle_at_the_first_certified_doubling(self,
                                                                           test_suite):
        for name, graph in test_suite:
            for q in (0.25, 0.75):
                terms = 8
                while neumann_tail_bound(graph, q, terms) >= 1e-8:
                    terms *= 2
                series = certified_neumann_series(graph, q)
                assert np.array_equal(series, neumann_oracle(graph, q, terms)), (name, q)

    def test_certified_series_gives_up_past_max_terms(self, cp_graph, monkeypatch):
        monkeypatch.setattr(centrality_mod, "_MAX_SERIES_TERMS", 32)
        assert certified_neumann_series(cp_graph, 0.75) is not None
        monkeypatch.setattr(centrality_mod, "_MAX_SERIES_TERMS", 16)
        assert certified_neumann_series(cp_graph, 0.75) is None
        monkeypatch.setattr(centrality_mod, "_MAX_SERIES_TERMS", 1024)
        uncontracted = WeightedDigraph(2, [(1, 2, 1.0), (2, 1, 1.0)])
        assert certified_neumann_series(uncontracted, 1.0) is None

    def test_one_term_is_ones(self, cp_graph):
        assert np.array_equal(neumann_oracle(cp_graph, 0.75, 1), np.ones(12))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 0.9), st.integers(2, 40))
    def test_katz_matches_series_property(self, q, terms):
        rng = np.random.default_rng(terms * 1000 + int(q * 100))
        graph = random_validated_graph(rng)
        # scale q so the series certifiably contracts on this graph
        bound = neumann_tail_bound(graph, q, terms)
        if not np.isfinite(bound):
            return
        gap = np.abs(katz_bonacich(graph, q) - neumann_oracle(graph, q, terms)).max()
        assert gap <= bound + 1e-9


class TestChunkedDot:
    @staticmethod
    def operands(n: int, rows: int | None, seed: int = 30):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n if rows is None else (rows, n))
        return a, rng.standard_normal(n)

    @pytest.mark.parametrize("rows", [None, 1, 3, 10])
    @pytest.mark.parametrize("n", [1, _DOT_CHUNK - 1, _DOT_CHUNK])
    def test_one_plain_product_up_to_a_chunk(self, n, rows):
        a, b = self.operands(n, rows)
        assert np.asarray(_dot(a, b)).tobytes() == np.asarray(a @ b).tobytes()
        if rows is not None:  # a view of the first rows, as the Anderson history is
            assert _dot(a[:2], b).tobytes() == (a[:2] @ b).tobytes()

    @pytest.mark.parametrize("rows", [None, 1, 3, 10])
    @pytest.mark.parametrize("n", [_DOT_CHUNK + 1, 20_000, 30_000, 65_536])
    def test_chunks_added_in_order_above_a_chunk(self, n, rows):
        a, b = self.operands(n, rows)
        chunks = [a[..., i:i + _DOT_CHUNK] @ b[i:i + _DOT_CHUNK]
                  for i in range(0, n, _DOT_CHUNK)]
        expected = functools.reduce(operator.add, chunks)
        assert np.asarray(_dot(a, b)).tobytes() == np.asarray(expected).tobytes()
        eps = np.finfo(float).eps
        for row in np.atleast_2d(a):
            exact = math.fsum((row * b).tolist())
            bound = 4 * n * eps * math.fsum(np.abs(row * b).tolist())
            assert abs(float(_dot(row, b)) - exact) <= bound

    @pytest.mark.parametrize("chunk", [7, 64, 1 << 20])
    def test_anderson_solve_with_small_chunks_matches_direct(self, monkeypatch, chunk):
        # n = 301: chunks of 7 leave a 1-entry tail; the Gram row and the
        # projections of two stacked columns run chunked
        graph = _in_degree_graph(301, 5, 0.15, seed=11)
        monkeypatch.setattr(centrality_mod, "_DOT_CHUNK", chunk)
        system = centrality_mod._AttenuatedSystem(graph._transpose, 0.9, 1e-12)
        rhs = np.random.default_rng(3).random((301, 2))
        x, residual = system.solve(rhs)
        assert system.method == "anderson" and system.iterations > 2
        direct = np.linalg.solve(np.eye(301) - 0.9 * graph._transpose.toarray(), rhs)
        assert residual <= 1e-12
        assert np.abs(x - direct).max() <= 1e-10

    def test_katz_solve_of_a_long_vector_answers(self):
        # n = 20,000 > _DOT_CHUNK: the Anderson update runs on chunked products
        graph = _in_degree_graph(20_000, 10, 0.1, seed=7)
        x, residual = centrality_mod._katz_with_residual(graph, 0.75, 1e-10)
        assert residual <= 1e-10
        assert np.abs(x - 0.75 * (graph._transpose @ x) - 1.0).max() <= 1e-9

    def test_katz_bytes_do_not_depend_on_the_blas_thread_count(self):
        # 131,073 agents at c * rho ~ 0.986: on odd lengths above 50,000
        # entries a two-thread OpenBLAS gemv rounds the entries at its split
        # differently, and on these two graphs an unsliced Anderson update
        # product carries that into x
        import seedgame
        probe = ("import hashlib; from seedgame import generate_bounded_outdegree_family "
                 "as family, katz_bonacich; print([hashlib.sha256(katz_bonacich("
                 "family(131_073, 10, 0.2, seed=seed), 0.99).tobytes()).hexdigest() "
                 "for seed in (1, 2)])")
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(seedgame.__file__).parents[1])}
            digests.append(subprocess.run([sys.executable, "-c", probe], env=env,
                                          capture_output=True, text=True,
                                          check=True).stdout)
        assert digests[0] == digests[1]
