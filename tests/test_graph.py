import collections
import functools
import hashlib
import itertools
import os
import threading
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import chisquare

from seedgame import (AssumptionError, CorePeripheryParams, DuplicateEdgeError,
                      EdgeListError, GraphError, MalformedLineError,
                      MarketParams, NegativeWeightError, PowerIterationError, SelfLoopError,
                      WeightedDigraph, generate_bounded_outdegree_family,
                      generate_core_periphery, load_edge_list, save_edge_list,
                      spectral_radius, validate_assumptions)
from seedgame import graph as graph_mod

from conftest import MARKET, random_validated_graph


class TestMarketParams:
    def test_valid(self):
        p = MarketParams(2.0, 1.0, 0.5, 0.5)
        assert p.spectral_bound == pytest.approx(4.0 / 3.0)

    def test_alpha_below_price_rejected(self):
        with pytest.raises(ValueError, match="alpha must be at least price"):
            MarketParams(0.9, 1.0, 0.5, 0.5)

    def test_alpha_equal_price_allowed(self):
        MarketParams(1.0, 1.0, 0.5, 0.5)

    @pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5])
    def test_beta_out_of_range(self, beta):
        with pytest.raises(ValueError):
            MarketParams(2.0, 1.0, beta, 0.5)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2])
    def test_delta_out_of_range(self, delta):
        with pytest.raises(ValueError):
            MarketParams(2.0, 1.0, 0.5, delta)

    def test_price_must_be_positive(self):
        with pytest.raises(ValueError):
            MarketParams(2.0, 0.0, 0.5, 0.5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            MARKET.alpha = 3.0


class TestWeightedDigraph:
    def test_degrees_orientation(self):
        # agent 1 is influenced by 2 (0.5) and 3 (0.25); agent 2 by 3 (1.0)
        g = WeightedDigraph(3, [(1, 2, 0.5), (1, 3, 0.25), (2, 3, 1.0)])
        assert np.allclose(g.in_degrees, [0.75, 1.0, 0.0])
        assert np.allclose(g.out_degrees, [0.0, 0.5, 1.25])
        assert g.in_degrees[1 - 1] == pytest.approx(0.75)
        assert g.out_degrees[3 - 1] == pytest.approx(1.25)

    def test_edges_canonical_order(self):
        g = WeightedDigraph(3, [(2, 3, 1.0), (1, 3, 0.25), (1, 2, 0.5)])
        assert g.edges == ((1, 2, 0.5), (1, 3, 0.25), (2, 3, 1.0))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            WeightedDigraph(3, [(1, 2, 0.5), (1, 2, 0.5)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            WeightedDigraph(3, [(2, 2, 0.5)])

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            WeightedDigraph(3, [(1, 2, -0.5)])

    def test_id_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            WeightedDigraph(3, [(0, 2, 0.5)])
        with pytest.raises(GraphError):
            WeightedDigraph(3, [(1, 4, 0.5)])

    def test_zero_weight_edges_dropped(self):
        g = WeightedDigraph(3, [(1, 2, 0.0), (2, 3, 0.5)])
        assert g.edge_count == 1
        assert g.to_dense()[0, 1] == 0.0

    def test_immutable(self):
        g = WeightedDigraph.empty(2)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_equality_and_hash(self):
        g1 = WeightedDigraph(3, [(1, 2, 0.5)])
        g2 = WeightedDigraph(3, [(1, 2, 0.5)])
        g3 = WeightedDigraph(3, [(1, 2, 0.25)])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != g3

    def test_from_matrix_round_trip(self):
        m = np.array([[0.0, 0.5], [0.25, 0.0]])
        g = WeightedDigraph.from_matrix(m)
        assert np.array_equal(g.to_dense(), m)

    def test_from_matrix_rejects_diagonal(self):
        with pytest.raises(SelfLoopError):
            WeightedDigraph.from_matrix(np.eye(2))

    def test_matrix_is_readonly(self):
        g = WeightedDigraph(2, [(1, 2, 0.5)])
        with pytest.raises(ValueError):
            g.matrix.data[0] = 2.0
        # dense views are fresh copies the caller may edit freely
        dense = g.to_dense()
        dense[0, 1] = 9.0
        assert g.to_dense()[0, 1] == 0.5


class TestSpectralRadius:
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_refuses_a_tolerance_that_certifies_nothing(self, two_node, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            spectral_radius(two_node, tol)

    def test_empty_graph(self):
        assert spectral_radius(WeightedDigraph.empty(4)) == 0.0

    def test_acyclic_is_zero(self, two_node):
        assert spectral_radius(two_node) == 0.0

    def test_cycle_weight(self):
        g = WeightedDigraph(3, [(1, 2, 0.3), (2, 3, 0.3), (3, 1, 0.3)])
        assert spectral_radius(g) == pytest.approx(0.3, abs=1e-10)

    def test_asymmetric_two_cycle(self):
        g = WeightedDigraph(2, [(1, 2, 0.8), (2, 1, 0.2)])
        assert spectral_radius(g) == pytest.approx(np.sqrt(0.16), abs=1e-10)

    def test_core_periphery_equals_g(self, cp_graph):
        assert spectral_radius(cp_graph) == pytest.approx(0.5, abs=1e-10)

    def test_disconnected_takes_max(self):
        g = WeightedDigraph(4, [(1, 2, 0.2), (2, 1, 0.2), (3, 4, 0.7), (4, 3, 0.7)])
        assert spectral_radius(g) == pytest.approx(0.7, abs=1e-10)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_singletons_around_components(self, reverse):
        # singletons 1, 4 and 7 sit before, between and after two 2-cycles;
        # reversing the ids moves the larger cycle to the other end
        edges = [(2, 3, 0.2), (3, 2, 0.2), (5, 6, 0.6), (6, 5, 0.6),
                 (4, 1, 0.1), (7, 4, 0.1)]
        if reverse:
            edges = [(8 - i, 8 - j, w) for i, j, w in edges]
        assert spectral_radius(WeightedDigraph(7, edges)) == pytest.approx(0.6, abs=1e-10)

    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_validated_graph(rng)
            expected = np.abs(np.linalg.eigvals(g.to_dense())).max()
            assert spectral_radius(g) == pytest.approx(expected, abs=1e-8)

    def test_chained_equal_radius_cycles(self):
        # two 2-cycles of weight 0.5 joined by one edge: a whole-graph bracket
        # closes only like 1 / k there, each block's at once
        g = WeightedDigraph(4, [(1, 2, 0.5), (2, 1, 0.5), (3, 4, 0.5), (4, 3, 0.5),
                                (3, 2, 0.5)])
        assert spectral_radius(g) == pytest.approx(0.5, abs=1e-10)

    def test_out_of_steps_raises_with_the_bracket(self):
        # a weighted 200-cycle of radius 0.8 (the geometric mean of its
        # weights), whose bracket is still wide after 100 steps
        weights = 0.5 + 0.6 * np.random.default_rng(0).random(200)
        weights *= 0.8 / np.exp(np.log(weights).mean())
        g = WeightedDigraph(200, [(i + 1, (i + 1) % 200 + 1, float(w))
                                  for i, w in enumerate(weights)])
        with pytest.raises(PowerIterationError, match="did not converge in 100 steps") as info:
            spectral_radius(g, max_iter=100)
        assert info.value.lower < 0.8 - 1e-3 and 0.8 + 1e-3 < info.value.upper

    def test_cached(self, cp_graph):
        assert spectral_radius(cp_graph) is spectral_radius(cp_graph) or \
            spectral_radius(cp_graph) == spectral_radius(cp_graph)


class TestValidation:
    def test_passes_on_suite(self, test_suite):
        for name, graph in test_suite:
            report = validate_assumptions(graph, MARKET)
            assert report.passed, f"{name}: {report.summary()}"
            assert report.margin > 0

    def test_fails_on_hot_graph(self):
        g = WeightedDigraph(2, [(1, 2, 1.5), (2, 1, 1.5)])
        report = validate_assumptions(g, MARKET)
        assert not report.passed
        # a refusal is decided by the bracket's lower end, past the bound
        assert report.bound <= report.rho == report.lower <= 1.5 <= report.upper
        assert report.margin == report.bound - report.rho < 0

    def test_refusal_bracket_bounds_components_left_unvisited(self):
        # the cooler 2-cycle (1.5) comes first and refuses; the hotter one (3)
        # is never iterated, so the row/column-sum cap bounds it from above
        g = WeightedDigraph(4, [(1, 2, 1.5), (2, 1, 1.5), (3, 4, 3.0), (4, 3, 3.0)])
        report = validate_assumptions(g, MARKET)
        assert not report.passed
        assert report.bound <= report.rho == report.lower <= 1.5
        assert 3.0 <= report.upper <= 3.0 * (1 + 1e-12)

    def test_summary_mentions_all_checks(self, cp_graph):
        report = validate_assumptions(cp_graph, MARKET)
        assert report.passed and report.rho == report.upper
        assert report.summary() == (
            f"spectral radius {report.rho:.12g} in [{report.lower:.12g}, {report.upper:.12g}] "
            f"is below the bound {report.bound:.12g} (margin {report.margin:.12g})")
        hot = validate_assumptions(WeightedDigraph(2, [(1, 2, 1.5), (2, 1, 1.5)]), MARKET)
        assert hot.summary() == ("spectral radius 1.5 in [1.5, 1.5] is not below the bound "
                                 "1.33333333333 (margin -0.166666666667)")

    @pytest.mark.parametrize("c_rho", [0.6, 1.2])
    def test_unconverged_power_iteration(self, monkeypatch, c_rho):
        # a weighted 200-cycle, whose power iteration is far from converged
        # after 1000 steps; its certified bracket decides both scalings by then
        weights = 0.5 + 0.6 * np.random.default_rng(0).random(200)
        weights *= c_rho / (0.75 * np.exp(np.log(weights).mean()))
        g = WeightedDigraph(200, [(i + 1, (i + 1) % 200 + 1, float(w))
                                  for i, w in enumerate(weights)])
        monkeypatch.setattr(graph_mod, "_power_iteration",
                            functools.partial(graph_mod._power_iteration, max_iter=1000))
        report = validate_assumptions(g, MARKET)
        assert report.passed is (c_rho < 1.0)
        # rho is the end that decided: the upper end admits, the lower refuses
        if c_rho < 1.0:
            assert c_rho / 0.75 <= report.rho < report.bound and report.margin > 0
        else:
            assert report.bound <= report.rho <= c_rho / 0.75 and report.margin < 0

    def test_radius_at_the_bound_is_refused(self):
        # rho is exactly the bound: the bracket, rounded outward, closes around
        # it and can never certify an admission
        bound = MARKET.spectral_bound
        report = validate_assumptions(WeightedDigraph(2, [(1, 2, bound), (2, 1, bound)]), MARKET)
        assert not report.passed and report.margin < 0
        assert report.rho == pytest.approx(bound, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_decision_matches_dense_eigenvalues(self, data):
        weights = data.draw(_mixed_graphs())
        dense = _dense_radius(weights)
        if dense > 0:
            weights = weights * (data.draw(st.floats(0.05, 2.0)) / (0.75 * dense))
        graph = WeightedDigraph(weights.shape[0], [
            (i + 1, j + 1, weights[i, j]) for i, j in zip(*np.nonzero(weights >= 0))
            if i != j and (weights[i, j] > 0 or data.draw(st.booleans()))])  # some zero weights
        c_rho = 0.75 * _dense_radius(graph.to_dense())
        assume(abs(c_rho - 1.0) >= 1e-3)
        self.check_decision(graph, c_rho)

    @pytest.mark.parametrize("weight", [1.2, 1.6])
    def test_decision_on_chained_equal_cycles(self, weight):
        # four 2-cycles of one weight, each feeding the next, shuffled: rho is
        # a 4-fold defective eigenvalue, which the dense eigenvalues of the
        # whole matrix put about 3e-6 too high, past an admission's 1e-6
        weights = np.zeros((8, 8))
        weights[[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6]] = weight
        weights[[1, 3, 5], [2, 4, 6]] = weight
        order = np.random.default_rng(1).permutation(8)
        weights = weights[np.ix_(order, order)]
        graph = WeightedDigraph(8, [(i + 1, j + 1, weights[i, j])
                                    for i, j in zip(*np.nonzero(weights))])
        assert _dense_radius(graph.to_dense()) == pytest.approx(weight, rel=1e-15)
        self.check_decision(graph, 0.75 * weight)

    @staticmethod
    def check_decision(graph, c_rho):
        """The admission decision and bracket against delta * (1 + beta) *
        rho = c_rho from the dense oracle."""
        report = validate_assumptions(graph, MARKET)
        assert report.passed is (c_rho < 1.0), report.summary()
        rho, lower, upper = graph_mod._power_iteration(graph, 1e-10, MARKET.spectral_bound)
        assert report.rho == rho == (upper if report.passed else lower)
        # the bracket holds rho(G), on a refusal too
        assert lower <= c_rho / 0.75 * (1 + 1e-6)
        assert upper >= c_rho / 0.75 * (1 - 1e-6)


def _dense_radius(weights: np.ndarray) -> float:
    """The spectral radius of a dense weight matrix, as the largest of its
    strongly connected components' dense radii.  The spectrum of the
    block-triangular matrix is the union of theirs, and an irreducible
    block's Perron root is simple, so equal components joined into a
    defective root of the whole matrix do not make it err."""
    count, labels = connected_components(sp.csr_matrix(weights), connection="strong")
    return max(float(np.abs(np.linalg.eigvals(weights[np.ix_(labels == c, labels == c)])).max())
               for c in range(count))


@st.composite
def _mixed_graphs(draw) -> np.ndarray:
    """A dense weight matrix of at most 12 agents in groups: isolated agents,
    cycles, dense blocks, or two cycles of equal weight joined by one edge,
    with edges from earlier groups into later ones (a DAG of blocks feeding
    one another, and sinks), the agents shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    n = min(sum(sizes), 12)
    weights = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = np.arange(start, min(start + size, n))
        start += size
        if block.size < 2:
            continue
        kind = draw(st.sampled_from(["isolated", "cycle", "dense", "equal cycles"]))
        if kind == "cycle":
            weights[block, np.roll(block, -1)] = rng.uniform(0.1, 1.0, block.size)
        elif kind == "dense":
            weights[np.ix_(block, block)] = rng.uniform(0.0, 1.0, (block.size,) * 2) * (
                rng.random((block.size,) * 2) < 0.7)
        elif kind == "equal cycles" and block.size == 4:
            weights[block, block[[1, 0, 3, 2]]] = 0.5
            weights[block[2], block[1]] = 0.5
    later = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 0.4)), k=1)
    weights += later * rng.uniform(0.0, 1.0, (n, n)) * (weights == 0)
    np.fill_diagonal(weights, 0.0)
    order = rng.permutation(n)
    return weights[np.ix_(order, order)]


class TestCollatzWielandt:
    def test_bracket_holds_the_exact_ratios(self):
        # the ends, rounded outward, enclose the ratios computed in exact arithmetic
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            dense = rng.random((n, n)) * (rng.random((n, n)) < 0.6) + np.diag(rng.random(n))
            matrix = sp.csr_matrix(dense)
            x = rng.random(n) + 1e-3
            lower, upper = graph_mod._collatz_wielandt(matrix @ x, x, n)
            exact = [sum(Fraction(a) * Fraction(b) for a, b in zip(row, x)) / Fraction(xi)
                     for row, xi in zip(dense, x)]
            assert Fraction(lower) <= min(exact) and max(exact) <= Fraction(upper)


class TestCorePeriphery:
    def test_structure(self, cp_graph, cp_params):
        assert cp_graph.n == 12
        assert cp_params.role_models() == (4, 8, 12)
        # every agent has exactly one influencer, weight g
        assert np.allclose(cp_graph.in_degrees, 0.5)
        # role models influence their m-1 peripheries plus the next role model
        assert cp_graph.out_degrees[4 - 1] == pytest.approx(0.5 * 4)
        assert cp_graph.out_degrees[1 - 1] == 0.0

    def test_role_model_cycle_wraps(self):
        g = generate_core_periphery(CorePeripheryParams(chi=2, m=3, g=0.4))
        dense = g.to_dense()
        assert dense[2, 5] == pytest.approx(0.4)  # first role model <- last
        assert dense[5, 2] == pytest.approx(0.4)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CorePeripheryParams(chi=1, m=4, g=0.5)
        with pytest.raises(ValueError):
            CorePeripheryParams(chi=3, m=0, g=0.5)
        with pytest.raises(ValueError):
            CorePeripheryParams(chi=3, m=4, g=-0.1)


class TestBoundedOutDegree:
    def test_out_degree_cap(self):
        g = generate_bounded_outdegree_family(200, 3, 0.1, seed=2)
        counts = np.zeros(200)
        for _, influencer, _ in g.edges:
            counts[influencer - 1] += 1
        assert counts.max() <= 3

    def test_deterministic_in_seed(self):
        a = generate_bounded_outdegree_family(50, 2, 0.1, seed=9)
        b = generate_bounded_outdegree_family(50, 2, 0.1, seed=9)
        c = generate_bounded_outdegree_family(50, 2, 0.1, seed=10)
        assert a == b
        assert a != c

    def test_weights_uniform(self):
        g = generate_bounded_outdegree_family(50, 2, 0.25, seed=0)
        assert all(w == 0.25 for _, _, w in g.edges)

    @staticmethod
    def column_draws(n, d, seed):
        """The generator's integers calls: every agent's k, then draw t of
        every agent with k > t, on [0, n - 1 - k + t]; per agent, its draws."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, d + 1, size=n)
        draws = [[] for _ in range(n)]
        for t in range(d):
            rows = np.flatnonzero(counts > t)
            for agent, value in zip(rows.tolist(),
                                    rng.integers(0, n - 1 - counts[rows] + t + 1).tolist()):
                draws[agent].append(value)
        return draws

    @staticmethod
    def pool_based_family(n, d, weight, seed):
        """Reference draw: Floyd's algorithm on the labels of the explicit
        pool of the other agents, a chosen label standing in for a taken one."""
        edges = []
        for j, values in enumerate(TestBoundedOutDegree.column_draws(n, d, seed), start=1):
            pool = [i for i in range(1, n + 1) if i != j]
            low = len(pool) - len(values)
            chosen = []
            for t, value in enumerate(values):
                chosen.append(pool[low + t] if pool[value] in chosen else pool[value])
            edges.extend((i, j, weight) for i in chosen)
        return WeightedDigraph(n, edges)

    @pytest.mark.parametrize("n,d,seed", [(1, 0, 4), (2, 1, 0), (5, 4, 3), (30, 2, 1),
                                          (300, 3, 7), (3000, 10, 5)])
    def test_same_graph_as_pool_based_draw(self, n, d, seed):
        fast = generate_bounded_outdegree_family(n, d, 0.1, seed=seed)
        reference = self.pool_based_family(n, d, 0.1, seed)
        assert fast == reference
        assert fast.edges == reference.edges

    @staticmethod
    def per_agent_family(n, d, weight, seed):
        """Reference draw: the generator's integers calls, then Floyd's
        algorithm one agent at a time on the explicit pool of the others."""
        targets, influencers = [], []
        for agent, values in enumerate(TestBoundedOutDegree.column_draws(n, d, seed)):
            pool = np.delete(np.arange(1, n + 1), agent)
            targets.extend(pool[scalar_floyd(values, n - 1 - len(values))].tolist())
            influencers.extend([agent + 1] * len(values))
        return WeightedDigraph(n, np.column_stack(
            (targets, influencers, np.full(len(targets), weight))))

    # (50, 49, 3) and (40, 39, 2): agents with k = n - 1, who pick the whole
    # pool; (10002, 200..210, 1): wide matrices, on both sides of d = 200,
    # where numpy's choice changes algorithm and the generator does not
    @pytest.mark.parametrize("n,d,seed", [(1, 0, 0), (2, 1, 3), (30, 2, 1), (300, 4, 11),
                                          (3000, 10, 7), (40, 39, 2), (1, 0, 4), (2, 1, 0),
                                          (50, 49, 3), (20000, 10, 4), (10002, 210, 1),
                                          (10002, 200, 1), (10002, 201, 1)])
    def test_same_edges_as_the_per_agent_loop(self, n, d, seed):
        assert (generate_bounded_outdegree_family(n, d, 0.1, seed=seed)
                == self.per_agent_family(n, d, 0.1, seed))

    @pytest.mark.parametrize("window", [7, 3, 1])
    def test_same_edges_in_short_windows(self, monkeypatch, window):
        # windows bound _floyd's temporaries and nothing else; below d
        # entries a window holds one agent
        cases = ((2000, 10, 4), (50, 49, 3), (300, 4, 11), (300, 2, 5))
        expected = [generate_bounded_outdegree_family(n, d, 0.1, seed=seed)
                    for n, d, seed in cases]
        monkeypatch.setattr(graph_mod, "_WINDOW_ENTRIES", window)
        for (n, d, seed), graph in zip(cases, expected):
            assert generate_bounded_outdegree_family(n, d, 0.1, seed=seed) == graph, (n, d, seed)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 120).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, 2**32))))
    def test_same_graph_as_the_per_agent_loop_anywhere(self, case):
        n, d, seed = case
        assert (generate_bounded_outdegree_family(n, d, 0.1, seed=seed)
                == self.per_agent_family(n, d, 0.1, seed))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda width: st.lists(
        st.tuples(st.integers(0, width), st.integers(0, 10)).flatmap(
            lambda row: st.tuples(
                st.just(row[1]),
                st.tuples(*(st.integers(0, row[1] + t) for t in range(row[0]))),
                st.lists(st.integers(-width, row[1] + width),
                         min_size=width - row[0], max_size=width - row[0]))),
        min_size=1, max_size=6)))
    def test_floyd_matches_a_scalar_loop(self, rows):
        # rows of (low, draws on [0, low + t], filler past k); small pools
        # repeat draws often and make long displacement chains
        low = np.array([row[0] for row in rows])
        values = np.array([list(row[1]) + row[2] for row in rows], dtype=np.int64)
        picks = graph_mod._floyd(values, low)
        for i, (row_low, draws, _) in enumerate(rows):
            assert picks[i, :len(draws)].tolist() == scalar_floyd(draws, row_low)

    def test_counts_and_target_sets_are_uniform(self):
        # 4,000 seeds of a 6-agent graph at d = 3: each agent's k is uniform
        # on 0..3, and given k its targets are uniform on the k-subsets of
        # the 5 pool positions
        n, d = 6, 3
        tally = collections.Counter()
        for seed in range(4000):
            agents, picks = graph_mod._outdegree_draws(n, d, seed)
            for agent in range(n):
                tally[frozenset(picks[agents == agent].tolist())] += 1
        by_count = [[tally[frozenset(s)] for s in itertools.combinations(range(n - 1), k)]
                    for k in range(d + 1)]
        assert sum(map(sum, by_count)) == 4000 * n
        assert chisquare([sum(cells) for cells in by_count]).pvalue > 1e-3
        for cells in by_count[1:]:
            assert chisquare(cells).pvalue > 1e-3

    def test_golden_digest(self):
        # the graph rests on Generator.integers' stream: a numpy release that
        # changes the stream changes every generated graph, and fails here
        graph = generate_bounded_outdegree_family(40, 6, 0.1, seed=2026)
        digest = hashlib.sha256(repr(graph.edges).encode()).hexdigest()
        assert digest == "b5d0533cb528c1f989e335d3ddb9d27b141bb7dd9e22e7aa26bdf0e4c78eba94"


def scalar_floyd(draws, low):
    """Floyd's picks one draw at a time: draw t, on [0, low + t], is picked
    unless an earlier pick holds it, and then low + t is."""
    picks, held = [], set()
    for t, value in enumerate(draws):
        picks.append(low + t if value in held else value)
        held.add(picks[-1])
    return picks


class TestEdgeListIO:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a comment\nn=3\n1 2 0.5\n\n2\t3\t0.25  # trailing\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.edges == ((1, 2, 0.5), (2, 3, 0.25))

    @pytest.mark.parametrize("text,exc,line", [
        ("1 2 0.5\n", MalformedLineError, 1),
        ("n=x\n", MalformedLineError, 1),
        ("n=3\n1 2\n", MalformedLineError, 2),
        ("n=3\n1 2 0.5 9\n", MalformedLineError, 2),
        ("n=3\n1 9 0.5\n", MalformedLineError, 2),
        ("n=3\n1 2 0.5\n1 2 0.25\n", DuplicateEdgeError, 3),
        ("n=3\n2 2 0.5\n", SelfLoopError, 2),
        ("n=3\n1 2 -0.5\n", NegativeWeightError, 2),
        ("n=3\n1 2 nan\n", MalformedLineError, 2),
    ])
    def test_errors_carry_line_numbers(self, tmp_path, text, exc, line):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(exc) as info:
            load_edge_list(path)
        assert info.value.line == line
        assert f"line {line}:" in str(info.value)

    @pytest.mark.parametrize("text,edge,exc", [
        ("n=3\n1 9 0.5\n", (1, 9, 0.5), MalformedLineError),
        ("n=3\n0 2 0.5\n", (0, 2, 0.5), MalformedLineError),
        ("n=3\n2 2 0.5\n", (2, 2, 0.5), SelfLoopError),
        ("n=3\n1 2 -0.5\n", (1, 2, -0.5), NegativeWeightError),
        ("n=3\n1 2 nan\n", (1, 2, float("nan")), MalformedLineError),
        ("n=3\n1 2 inf\n", (1, 2, float("inf")), MalformedLineError),
    ])
    def test_constructor_raises_what_the_loader_raises(self, tmp_path, text, edge, exc):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(EdgeListError) as loaded:
            load_edge_list(path)
        with pytest.raises(EdgeListError) as built:
            WeightedDigraph(3, [edge])
        assert type(loaded.value) is type(built.value) is exc
        assert built.value.line is None
        assert str(loaded.value) == f"line 2: {built.value}"

    def test_constructor_duplicate_matches_loader(self, tmp_path):
        path = tmp_path / "dup.edges"
        path.write_text("n=3\n1 2 0.5\n2 3 0.0\n1 2 0.25\n")
        with pytest.raises(DuplicateEdgeError) as loaded:
            load_edge_list(path)
        with pytest.raises(DuplicateEdgeError) as built:
            WeightedDigraph(3, [(1, 2, 0.5), (2, 3, 0.0), (1, 2, 0.25)])
        assert str(loaded.value) == f"line 4: {built.value}"

    @pytest.mark.parametrize("edges,exc", [
        ([(3, 3, -1.0)], MalformedLineError),     # range before self-loop
        ([(2, 2, np.nan)], SelfLoopError),        # self-loop before finite
        ([(1, 2, -np.inf)], MalformedLineError),  # finite before negative
        ([(1, 2, 0.5), (1, 2, -1.0)], NegativeWeightError),  # before duplicate
    ])
    def test_rule_order_within_one_edge(self, edges, exc):
        with pytest.raises(EdgeListError) as info:
            WeightedDigraph(2, edges)
        assert type(info.value) is exc

    @pytest.mark.parametrize("edge", [(1.5, 2, 0.5), (1, 2.25, 0.5), (np.inf, 2, 0.5),
                                      (np.nan, 2, 0.5)])
    def test_non_integral_id_rejected(self, edge):
        with pytest.raises(MalformedLineError):
            WeightedDigraph(3, [edge])

    @pytest.mark.parametrize("edges", [[(1, 2)], [(1, 2, 0.5, 9)], [(1, 2, None)],
                                       [(1, 2, "x")], [(1, 2, 0.5), (2, 3)],
                                       np.ones((3, 4))])
    def test_malformed_triples_rejected(self, edges):
        with pytest.raises(MalformedLineError):  # None reads as nan
            WeightedDigraph(3, edges)

    @pytest.mark.parametrize("text,exc,line", [
        ("n=3\n2 2 0.5\n1 2\n", SelfLoopError, 2),
        ("n=3\n1 2 0.5\n1 2 0.5\n1 x 0.5\n", DuplicateEdgeError, 3),
        ("n=3\n1 2 0.5\n1 x 0.5\n1 2 0.5\n", MalformedLineError, 3),
        ("n=3\n1 2 0.5\n2 3 -1\n3 1 0.5\n3 3 0.5\n", NegativeWeightError, 3),
    ])
    def test_first_offending_line_wins(self, tmp_path, text, exc, line):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(exc) as info:
            load_edge_list(path)
        assert info.value.line == line

    def test_huge_id_is_out_of_range(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("n=3\n1 2 0.5\n" + "9" * 400 + " 2 0.5\n")
        with pytest.raises(MalformedLineError) as info:
            load_edge_list(path)
        assert info.value.line == 3

    def test_all_loader_errors_are_edge_list_errors(self):
        for exc in (MalformedLineError, DuplicateEdgeError, SelfLoopError,
                    NegativeWeightError):
            assert issubclass(exc, EdgeListError)

    def test_save_load_round_trip(self, tmp_path, test_suite):
        for name, graph in test_suite:
            path = tmp_path / f"{name}.edges"
            save_edge_list(graph, path)
            assert load_edge_list(path) == graph

    def test_save_format(self, tmp_path):
        g = WeightedDigraph(3, [(3, 1, 0.25), (1, 2, 0.5)])
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n=3"
        assert lines[2].split() == ["1", "2", "0.5"]
        assert lines[3].split() == ["3", "1", "0.25"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_round_trip_property(self, tmp_path_factory, n, data):
        pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
            lambda p: p[0] != p[1])
        chosen = data.draw(st.lists(pairs, unique=True, max_size=12))
        weights = data.draw(st.lists(
            st.floats(0.0, 10.0, allow_nan=False, exclude_min=True),
            min_size=len(chosen), max_size=len(chosen)))
        graph = WeightedDigraph(n, [(i, j, w) for (i, j), w in zip(chosen, weights)])
        path = tmp_path_factory.mktemp("rt") / "g.edges"
        save_edge_list(graph, path)
        assert load_edge_list(path) == graph
        assert path.read_text() == "".join(  # the text of writing edge by edge
            [f"# influenced\tinfluencer\tweight\nn={n}\n",
             *(f"{i}\t{j}\t{w!r}\n" for i, j, w in graph.edges)])

    @pytest.mark.parametrize("block", [1, 2, 7, 1 << 16])
    def test_save_in_row_blocks_writes_the_same_text(self, tmp_path, monkeypatch, block):
        # the weights repeat within and across the blocks
        monkeypatch.setattr(graph_mod, "_SAVE_BLOCK", block)
        graph = WeightedDigraph(4, [(1, 2, 0.25), (1, 3, 0.1), (1, 4, 0.25), (2, 1, 1 / 3),
                                    (2, 3, 0.1), (3, 1, 0.25), (3, 2, 2.0), (4, 2, 1 / 3),
                                    (4, 3, 0.1)])
        path = tmp_path / "g.edges"
        save_edge_list(graph, path)
        assert path.read_text() == "".join(
            ["# influenced\tinfluencer\tweight\nn=4\n",
             *(f"{i}\t{j}\t{w!r}\n" for i, j, w in graph.edges)])
        assert load_edge_list(path) == graph


def _outcome(read):
    """What a read returns: (n, edges), or the error's class, line and text."""
    try:
        graph = read()
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return graph.n, graph.edges


def _three_reads(path, n: int, header_line: int):
    """load_edge_list, the line loop alone, and the bulk parser alone."""
    loaded = _outcome(lambda: load_edge_list(path))
    with mock.patch.object(graph_mod, "_read_edges_bulk", side_effect=ValueError):
        looped = _outcome(lambda: load_edge_list(path))
    with open(path, encoding="utf-8") as handle:
        body = "".join(handle.readlines()[header_line:])
    bulk = _outcome(lambda: graph_mod._read_edges_bulk(body, n))
    return loaded, looped, bulk


# spellings where the C parser, the line loop or the edge check might disagree
_ODD_IDS = ("0", "-1", "+2", "02", "9", "1_0", "\u0661", "\uff11", "1.0", "1e0",
            "12345678901234567890", "9223372036854775808", "x", "\ufeff1")
_ODD_WEIGHTS = ("-0.0", "0", "-1", "inf", "nan", "Infinity", "-inf", "0_5", "1d0", "0x1p-1",
                "1e400", "5e-324", "1e308", "+.5", "2.", "x", "True")
_ODD_SEPARATORS = ("\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
                   "\u200b", "\ufeff")


def _edge_line(n: int, ids=None, weights=st.sampled_from(("0.5", "0.25", "1e-3", "3")),
               separators=st.sampled_from((" ", "\t", "  "))) -> st.SearchStrategy[str]:
    ids = st.integers(1, n).map(str) if ids is None else ids
    return st.builds(lambda i, j, w, sep, tail: sep.join((i, j, w)) + tail,
                     ids, ids, weights, separators,
                     st.sampled_from(("", " ", "  # note", "#", "\r")))


def _lines(n: int) -> st.SearchStrategy[str]:
    """Mostly clean edge lines (some repeat a pair or loop), some with one odd
    spelling or a wrong field count, and lines with nothing to read."""
    kinds = {
        "clean": _edge_line(n),
        "odd id": _edge_line(n, ids=st.sampled_from(_ODD_IDS)),
        "odd weight": _edge_line(n, weights=st.sampled_from(_ODD_WEIGHTS)),
        "odd separator": _edge_line(n, separators=st.sampled_from(_ODD_SEPARATORS)),
        "field count": st.lists(st.sampled_from(("1", "2", "0.5")), max_size=4).map(" ".join),
        "empty": st.sampled_from(("", "# comment", "   ")),
    }
    return st.sampled_from(["clean"] * 20 + list(kinds)).flatmap(kinds.__getitem__)


_bodies = st.integers(1, 30).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_lines(n), max_size=8)))


class TestBulkLoader:
    """The bulk parser accepts only files the line loop accepts, with the same
    edges; everything else falls back to the loop, which names the error."""

    @settings(max_examples=200, deadline=None)
    @given(_bodies, st.lists(st.sampled_from(("# preamble", "", "# \x1c\x85\u2028")), max_size=2),
           st.sampled_from(("\n", "\r\n", "\r")))
    def test_fast_path_and_line_loop_agree(self, tmp_path_factory, body, preamble, newline):
        n, lines = body
        path = tmp_path_factory.mktemp("bulk") / "g.edges"
        text = newline.join(preamble + [f"n={n}"] + lines) + newline
        path.write_bytes(text.encode("utf-8"))
        loaded, looped, bulk = _three_reads(path, n, len(preamble) + 1)
        assert loaded == looped
        if bulk[0] == n:  # a graph, not an error
            assert bulk == looped

    def test_well_formed_files_skip_the_line_loop(self, tmp_path, test_suite):
        with mock.patch.object(graph_mod, "_read_edge_lines", side_effect=AssertionError):
            for name, graph in test_suite:
                path = tmp_path / f"{name}.edges"
                save_edge_list(graph, path)
                assert load_edge_list(path) == graph

    @pytest.mark.parametrize("n,body,edges", [
        (12, "1_0 2 0.5", ((10, 2, 0.5),)),
        (3, "\u0661 2 0.5", ((1, 2, 0.5),)),  # Arabic-Indic one
        (3, "1 2 0_5", ((1, 2, 5.0),)),
    ])
    def test_spellings_only_the_loop_accepts(self, tmp_path, n, body, edges):
        path = tmp_path / "g.edges"
        path.write_text(f"n={n}\n{body}\n", encoding="utf-8")
        loaded, looped, bulk = _three_reads(path, n, 1)
        assert loaded == looped == (n, edges)
        assert bulk[0] is ValueError

    @pytest.mark.parametrize("text,exc", [
        ("n=3\n1 2 0.5\n2 3 inf\n", MalformedLineError),
        ("n=3\n1 2 0.5\n2 3 nan\n", MalformedLineError),
        ("n=3\n1 2 0.5\n2 3 Infinity\n", MalformedLineError),
        ("n=3\n1 2 0.5\n-1 3 0.5\n", MalformedLineError),
    ])
    def test_values_only_the_constructor_rejects(self, tmp_path, text, exc):
        assert np.loadtxt(text.splitlines()[1:], dtype=graph_mod._BULK_DTYPE).size == 2
        path = tmp_path / "g.edges"
        path.write_text(text, encoding="utf-8")
        loaded, looped, bulk = _three_reads(path, 3, 1)
        assert loaded == looped
        assert loaded[:2] == (exc, 3) and bulk[0] is exc

    @pytest.mark.parametrize("text,outcome", [
        ("\ufeffn=3\n1 2 0.5\n", (MalformedLineError, 1)),  # a BOM before the header
        ("n=3\n1.0 2 0.5\n", (MalformedLineError, 2)),
        ("n=3\n", (3, ())),
        ("n=3\n# only comments\n\n   # and blanks\n", (3, ())),
        ("n=3\n1 2 -0.0\n2 3 0.5\n", (3, ((2, 3, 0.5),))),
        ("n=3\n12345678901234567890 2 0.5\n", (MalformedLineError, 2)),
    ])
    def test_edge_cases(self, tmp_path, text, outcome):
        path = tmp_path / "g.edges"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = _outcome(lambda: load_edge_list(path))
        assert not caught  # loadtxt's empty-input warning stays inside
        assert loaded == _three_reads(path, 3, 1)[1]
        assert loaded[:2] == outcome

    def test_other_errors_skip_the_line_loop(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n=3\n1 2 0.5\n", encoding="utf-8")
        with mock.patch.object(graph_mod, "_read_edge_lines", side_effect=AssertionError), \
                mock.patch.object(np, "loadtxt", side_effect=MemoryError):
            with pytest.raises(MemoryError):
                load_edge_list(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("tail,outcome", [
        ("", None),
        ("1 2 0.5\n", (DuplicateEdgeError, 2002)),
        ("1 2\n", (MalformedLineError, 2002)),
    ])
    def test_reads_a_pipe_once(self, tmp_path, tail, outcome):
        # more than the 8 KB a text handle reads ahead, so a second open of
        # the pipe would see only what the first left behind
        graph = WeightedDigraph(2000, [(i, i + 1, 0.5) for i in range(1, 2000)])
        save_edge_list(graph, tmp_path / "g.edges")
        text = (tmp_path / "g.edges").read_bytes() + tail.encode()
        assert len(text) > 8192 and text.count(b"\n") == 2001 + bool(tail)
        read_fd, write_fd = os.pipe()

        def feed():
            with os.fdopen(write_fd, "wb") as sink:
                sink.write(text)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            loaded = _outcome(lambda: load_edge_list(f"/dev/fd/{read_fd}"))
        finally:  # closing the read end first keeps a failed read from hanging the writer
            os.close(read_fd)
            writer.join()
        assert loaded[:2] == (outcome or (graph.n, graph.edges))


class TestLoaderRoutes:
    """A regular file is parsed from its path; a pipe, and a name numpy would
    decompress by suffix, from the body read once."""

    def test_a_regular_file_reaches_loadtxt_as_a_path(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# preamble\nn=3\n1 2 0.5\n2 3 0.25\n", encoding="utf-8")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            assert load_edge_list(path).edges == ((1, 2, 0.5), (2, 3, 0.25))
        (call,) = spy.call_args_list
        assert call.args[0] == str(path) and call.kwargs["skiprows"] == 2

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_reaches_loadtxt_as_its_body(self):
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "wb") as sink:  # fits in the pipe's buffer
            sink.write(b"n=3\n1 2 0.5\n2 3 0.25\n")
        try:
            with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
                assert load_edge_list(f"/dev/fd/{read_fd}").edges == ((1, 2, 0.5), (2, 3, 0.25))
        finally:
            os.close(read_fd)
        (call,) = spy.call_args_list
        assert not isinstance(call.args[0], str)

    def test_plain_text_named_as_compressed_loads(self, tmp_path, cp_graph):
        from numpy.lib import _datasource  # the suffixes numpy's loadtxt decompresses by
        suffixes = [suffix for suffix in _datasource._file_openers.keys() if suffix]
        assert suffixes
        save_edge_list(cp_graph, tmp_path / "g.edges")
        (tmp_path / "bad.edges").write_text("n=3\n1 2 0.5\n1 2 0.25\n", encoding="utf-8")
        for suffix in suffixes:
            for name in ("g.edges", "bad.edges"):
                copy = tmp_path / f"{name}{suffix}"
                copy.write_bytes((tmp_path / name).read_bytes())
                assert (_outcome(lambda: load_edge_list(copy))
                        == _outcome(lambda: load_edge_list(tmp_path / name)))

    # the bad byte in the first 8 KB chunk a text handle decodes, and past the second
    @pytest.mark.parametrize("lines", [0, 3000])
    def test_an_undecodable_body_reads_as_the_body_read_once(self, tmp_path, capsys, lines):
        from seedgame import cli
        path = tmp_path / "g.edges"
        path.write_bytes(f"# preamble\nn={lines + 2}\n".encode()
                         + "".join(f"{i} {i + 1} 0.5\n" for i in range(1, lines + 1)).encode()
                         + b"1 2 0.\xff5\n2 1 0.5\n")
        with pytest.raises(UnicodeDecodeError) as expected:
            with open(path, encoding="utf-8") as handle:  # the header, then the rest at once
                for _ in zip(range(2), handle):
                    pass
                handle.read()
        assert cli.main(["centrality", "--graph", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"


class TestRepresentation:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_edges_come_from_the_matrix(self, n, data):
        pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
            lambda p: p[0] != p[1])
        chosen = data.draw(st.lists(pairs, unique=True, max_size=20))
        weights = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_nan=False)),
            min_size=len(chosen), max_size=len(chosen)))
        drawn = [(i, j, w) for (i, j), w in zip(chosen, weights)]
        graph = WeightedDigraph(n, drawn)
        assert graph.edges == tuple(sorted(e for e in drawn if e[2] > 0))
        assert all(type(i) is int and type(j) is int and type(w) is float
                   for i, j, w in graph.edges)
        assert graph.edge_count == sum(1 for e in drawn if e[2] > 0)
        rebuilt = WeightedDigraph.from_matrix(graph.to_dense())
        assert graph == rebuilt and hash(graph) == hash(rebuilt)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_csr_arrays_match_scipy_from_coo(self, n, data):
        """Shuffled rows, zero weights and isolated agents (all of them for
        the empty graph): the CSR arrays and their dtypes, for the matrix and
        its transpose, are those scipy builds from the positive-weight triples."""
        pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
        chosen = data.draw(st.lists(pairs, unique=True, max_size=30))
        weights = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 10.0)),
                                     min_size=len(chosen), max_size=len(chosen)))
        triples = data.draw(st.permutations([(i, j, w) for (i, j), w in zip(chosen, weights)]))
        graph = WeightedDigraph(n, triples)
        r, c, w = np.reshape([t for t in triples if t[2] > 0], (-1, 3)).T
        reference = sp.csr_matrix((w, (r.astype(int) - 1, c.astype(int) - 1)), (n, n))
        for built, expected in ((graph.matrix, reference),
                                (graph._transpose, reference.T.tocsr())):
            for name in ("indptr", "indices", "data"):
                got, want = getattr(built, name), getattr(expected, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert hash(graph) == hash((n, reference.indices.tobytes(), reference.data.tobytes()))

    def test_transpose_is_read_only_and_matches(self, cp_graph):
        transpose = cp_graph._transpose
        assert (transpose != cp_graph.matrix.T).nnz == 0
        with pytest.raises(ValueError):
            transpose.data[0] = 2.0

    def test_walk_systems_share_the_cached_transpose(self, cp_graph, market, monkeypatch):
        import seedgame.centrality as centrality
        seen = []
        original = centrality._AttenuatedSystem.__init__

        def spy(self, matrix, *args, **kwargs):
            seen.append(matrix)
            original(self, matrix, *args, **kwargs)

        monkeypatch.setattr(centrality._AttenuatedSystem, "__init__", spy)
        centrality.biproduct_centrality(cp_graph, market)
        centrality.katz_bonacich(cp_graph, 0.25)
        assert len(seen) == 3 and all(m is cp_graph._transpose for m in seen)


class TestCheckEdges:
    """The edge check's order: the identity for increasing pairs, else the
    stable order by (influenced, influencer), and the first offending row."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("pairs", [
        [], [(2, 1)], [(1, 2), (1, 3), (2, 1), (3, 1), (3, 2)],
    ])
    def test_increasing_pairs_give_the_identity_without_a_sort(self, dtype, pairs):
        rows, cols = np.array(pairs, dtype=dtype).reshape(-1, 2).T
        weights = np.full(rows.size, 0.5)
        with mock.patch.object(graph_mod, "_stable_order", side_effect=AssertionError), \
                mock.patch.object(np, "argsort", side_effect=AssertionError):
            order = graph_mod._check_edges(3, rows, cols, weights)
        assert np.array_equal(order, np.arange(rows.size))

    def test_increasing_columns_of_a_structured_array(self):
        # the loader's columns are strided views of one record array
        table = np.zeros(4, dtype=graph_mod._BULK_DTYPE)
        table["i"], table["j"], table["w"] = [1, 1, 2, 3], [2, 3, 3, 1], 0.5
        order = graph_mod._check_edges(3, table["i"], table["j"], table["w"])
        assert np.array_equal(order, np.arange(4))
        graph = WeightedDigraph(3, _columns=(table["i"], table["j"], table["w"]))
        assert graph.edges == ((1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5), (3, 1, 0.5))

    # key << 9 | index fits, and does not (a numpy n must not wrap around)
    @pytest.mark.parametrize("n", [50, 3 * 10 ** 9, np.int64(3 * 10 ** 9)])
    def test_unsorted_keys_get_the_stable_order(self, n):
        keys = np.random.default_rng(7).integers(0, 40, 500)  # many repeats
        order, sorted_keys = graph_mod._stable_order(keys, n)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(sorted_keys, np.sort(keys))

    def test_one_sort_when_the_packed_keys_fit(self):
        keys = np.array([5, 3, 5, 0, 3])
        with mock.patch.object(np, "argsort", side_effect=AssertionError):
            order, _ = graph_mod._stable_order(keys, 3)
        assert order.tolist() == [3, 1, 4, 0, 2]

    @pytest.mark.parametrize("weights,error,line", [
        ([0.5, 0.5, 0.5, 0.5, 0.5], DuplicateEdgeError, 9),  # (1, 2) again
        ([0.5, 0.5, -0.5, 0.5, 0.5], NegativeWeightError, 7),  # before either repeat
        ([0.5, 0.5, 0.5, 0.0, 0.5], DuplicateEdgeError, 9),  # zero weights count
    ])
    def test_unsorted_rows_name_the_first_offending_line(self, weights, error, line):
        rows, cols = np.array([[3, 1, 2, 1, 2], [1, 2, 3, 2, 3]], dtype=float)
        with pytest.raises(error) as info:
            graph_mod._check_edges(3, rows, cols, np.array(weights), [4, 6, 7, 9, 12])
        assert info.value.line == line

    def test_an_adjacent_repeat_is_not_increasing(self):
        rows, cols = np.array([[1, 1, 1, 2], [2, 3, 3, 1]])
        with pytest.raises(DuplicateEdgeError, match=r"duplicate pair \(1, 3\)") as info:
            graph_mod._check_edges(3, rows, cols, np.full(4, 0.5), [2, 3, 4, 5])
        assert info.value.line == 4

    def test_unsorted_file_with_a_repeat_names_its_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n=4\n3 1 0.5\n1 2 0.5\n# c\n2 3 0.5\n1 2 0.25\n4 1 0.5\n")
        with pytest.raises(DuplicateEdgeError) as info:
            load_edge_list(path)
        assert info.value.line == 6


class TestAssumptionError:
    def test_carries_diagnostics(self, market):
        g = WeightedDigraph(2, [(1, 2, 1.5), (2, 1, 1.5)])
        from seedgame import biproduct_centrality
        with pytest.raises(AssumptionError) as info:
            biproduct_centrality(g, market)
        assert info.value.rho == pytest.approx(1.5, abs=1e-9)
        assert info.value.bound == pytest.approx(4.0 / 3.0)
