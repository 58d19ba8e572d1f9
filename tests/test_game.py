import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seedgame import (CorePeripheryParams, DiscountedSolver, GraphError, MarketParams,
                      SeedSet, SeedingPair,
                      WeightedDigraph, best_response_gain,
                      biproduct_centrality, discounted_consumption,
                      generate_core_periphery,
                      epsilon_for_sets, firm_utility, nash_deviation_check,
                      nash_seeding, restricted_nash_seeding, simulate,
                      sparsify, utility_gradient)
from seedgame.game import _greedy_prefix

from conftest import MARKET, random_validated_graph

# frozen rationals for core-periphery chi=3, m=4, g=0.5 with the canonical
# market (alpha=2, p=1, beta=delta=0.5): baseline = 96/5, net Nash payoff
# 48738/1225, role-only tau = 3675/11489, exact ratio 3675/28817
CP_BASELINE = 19.2
CP_NASH_NET = 48738.0 / 1225.0
CP_ROLE_TAU = 0.3198711811297763
CP_ROLE_EPS_EXACT = 0.12752888919734878
CP_ROLE_GAIN = 4.5
CP_ROLE_PAYOFF = 35.28612244897959


class TestSeedSet:
    def test_of_normalizes(self):
        s = SeedSet.of([3, 1, 3], 5)
        assert s.members == (1, 3)
        assert s.size == 2

    def test_empty_and_full(self):
        assert SeedSet.empty(4).members == ()
        assert SeedSet.full(4).members == (1, 2, 3, 4)

    def test_indicator_and_mask(self):
        s = SeedSet.of([2, 4], 4)
        assert np.array_equal(s.indicator(), [0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(s.mask(), [False, True, False, True])

    def test_rejects_out_of_range(self):
        with pytest.raises(Exception):
            SeedSet.of([0], 4)
        with pytest.raises(Exception):
            SeedSet.of([5], 4)

    @pytest.mark.parametrize("members, error, message", [
        ((True, 2), GraphError, "agent id must be an integer, got True"),
        ((3, 1, 3), ValueError, "seed set contains duplicate ids"),
        ((2, 0), GraphError, "agent id 0 outside 1..4"),
        ((1, 5), GraphError, "agent id 5 outside 1..4"),
        ((1, 2 ** 70), GraphError, f"agent id {2 ** 70} outside 1..4"),
        ((np.int64(2), 2.0), GraphError, "agent id must be an integer, got 2.0"),
    ], ids=["bool", "duplicate", "zero", "n-plus-one", "beyond-int64", "float"])
    def test_invalid_members_raise_the_per_id_errors(self, members, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SeedSet(members=members, n=4)

    @pytest.mark.parametrize("build", [
        lambda n: SeedSet((), n), lambda n: SeedSet.of([], n),
        SeedSet.empty, SeedSet.full,
    ], ids=["constructor", "of", "empty", "full"])
    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "4", None],
                             ids=["zero", "negative", "float", "bool", "str", "none"])
    def test_refuses_a_count_that_is_not_a_positive_integer(self, build, n):
        with pytest.raises(GraphError, match=f"^node count must be a positive "
                                             f"integer, got {re.escape(repr(n))}$"):
            build(n)

    def test_accepts_a_numpy_integer_count(self):
        assert SeedSet((2, 4), np.int64(4)).indicator().tolist() == [0.0, 1.0, 0.0, 1.0]
        assert SeedSet.full(np.int64(4)).members == (1, 2, 3, 4)
        assert SeedSet.of([3], np.int64(4)).members == (3,)

    @pytest.mark.parametrize("ids", [[2.7], [np.float64(2.0)], [True], ["3"], [1, True]],
                             ids=["float", "numpy-float", "bool", "str", "int-and-bool"])
    def test_of_raises_what_the_constructor_raises(self, ids):
        with pytest.raises(GraphError, match="^agent id must be an integer, got ") as refused:
            SeedSet(members=tuple(ids), n=4)
        with pytest.raises(GraphError, match=f"^{re.escape(str(refused.value))}$"):
            SeedSet.of(ids, 4)

    def test_of_matches_the_per_id_path(self):
        # exact ints go through one array pass, anything else id by id
        for ids in ([4, 2, 2, 1], range(4, 0, -1), [], [np.int64(3), 1]):
            s = SeedSet.of(ids, 4)
            assert s.members == tuple(sorted({int(i) for i in ids}))
            assert set(map(type, s.members)) <= {int}
        with pytest.raises(GraphError, match="^agent id must be an integer, got True$"):
            SeedSet.of([True, 3], 4)
        with pytest.raises(GraphError, match="^agent id 0 outside 1..4$"):
            SeedSet.of([2, 0, 2], 4)

    @pytest.mark.parametrize("duplicate_of", [lambda s: pickle.loads(pickle.dumps(s)),
                                              copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_a_copy_keeps_a_read_only_index(self, duplicate_of):
        original = SeedSet.of([3, 1], 4)
        duplicate = duplicate_of(original)
        assert duplicate == original and duplicate.members == (1, 3)
        for s in (original, duplicate):
            with pytest.raises(ValueError, match="read-only"):
                s._index[0] = 2

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_of_takes_python_and_numpy_ints(self, data):
        n = data.draw(st.integers(1, 100))
        kinds = st.sampled_from([int, np.int8, np.uint8, np.int32, np.uint32, np.int64,
                                 np.uint64])
        ids = data.draw(st.lists(st.builds(lambda i, kind: kind(i), st.integers(1, n), kinds),
                                 max_size=30))
        if data.draw(st.booleans()):
            ids = np.array(ids, dtype=data.draw(kinds))
        s = SeedSet.of(ids, n)
        assert s.members == tuple(sorted(set(ids)))
        assert set(map(type, s.members)) <= {int}
        indicator = np.zeros(n)
        for i in ids:
            indicator[int(i) - 1] = 1.0
        assert np.array_equal(s.indicator(), indicator)
        assert np.array_equal(s.mask(), indicator == 1.0)
        assert not s._index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s._index[...] = 0


class TestNashSeeding:
    def test_equals_price_times_centrality(self, test_suite):
        for name, graph in test_suite:
            bundle = biproduct_centrality(graph, MARKET)
            star = nash_seeding(graph, MARKET, bundle=bundle)
            assert np.array_equal(star.s_bar, MARKET.price * bundle.c_new), name
            assert np.array_equal(star.s_under, star.s_bar), name

    def test_gradient_vanishes_at_nash(self, cp_graph):
        star = nash_seeding(cp_graph, MARKET)
        grad = utility_gradient(cp_graph, MARKET, star, firm="a")
        assert np.abs(grad).max() == 0.0

    def test_no_sampled_deviation_gains(self, cp_graph, two_node):
        for graph in (cp_graph, two_node):
            worst = nash_deviation_check(graph, MARKET, samples=1500, seed=0)
            assert worst <= 1e-9

    def test_deviation_check_deterministic(self, cp_graph):
        a = nash_deviation_check(cp_graph, MARKET, samples=600, seed=3)
        b = nash_deviation_check(cp_graph, MARKET, samples=600, seed=3)
        assert a == b


class TestFirmUtility:
    def test_nash_value_on_core_periphery(self, cp_graph):
        star = nash_seeding(cp_graph, MARKET)
        ua, ub = firm_utility(cp_graph, MARKET, star)
        assert ua.net == pytest.approx(CP_NASH_NET, rel=1e-12)
        assert ub.net == pytest.approx(CP_NASH_NET, rel=1e-12)
        assert ua.baseline == pytest.approx(CP_BASELINE, rel=1e-12)

    def test_decomposition_sums_to_net(self, test_suite):
        rng = np.random.default_rng(11)
        for name, graph in test_suite[:10]:
            seeding = SeedingPair(rng.random(graph.n), rng.random(graph.n))
            ua, ub = firm_utility(graph, MARKET, seeding)
            solved = DiscountedSolver(graph, MARKET).gross_revenues(seeding)
            for u, own, gross in ((ua, seeding.s_bar, solved[0]),
                                  (ub, seeding.s_under, solved[1])):
                assert u.net == pytest.approx(u.gross - u.seeding_cost, rel=1e-12)
                assert u.seeding_cost == pytest.approx(0.5 * own @ own, rel=1e-12)
                recomposed = u.baseline + u.own_term + u.cross_term - u.seeding_cost
                assert gross - u.seeding_cost == pytest.approx(recomposed, rel=1e-9), name

    def test_gross_includes_seeding_revenue(self, two_node):
        # an isolated agent seeded with s produces revenue p*s plus the
        # discounted stream p*(alpha-p)*delta/(1-delta) regardless of s
        g = WeightedDigraph.empty(1)
        for s in (0.0, 1.0, 2.5):
            ua, _ = firm_utility(g, MARKET, SeedingPair(np.array([s]), np.zeros(1)))
            assert ua.gross == pytest.approx(MARKET.price * s + 1.0, rel=1e-10)

    def test_matches_simulation_route(self, test_suite):
        rng = np.random.default_rng(12)
        for name, graph in test_suite[:6]:
            seeding = SeedingPair(rng.random(graph.n), rng.random(graph.n))
            ua, ub = firm_utility(graph, MARKET, seeding)
            traj = simulate(graph, MARKET, seeding, tail_tol=1e-12)
            p = MARKET.price
            gross_a = p * (seeding.s_bar.sum() + traj.discounted_bar.sum())
            gross_b = p * (seeding.s_under.sum() + traj.discounted_under.sum())
            assert ua.gross == pytest.approx(gross_a, abs=1e-8), name
            assert ub.gross == pytest.approx(gross_b, abs=1e-8), name

    def test_symmetry_under_role_swap(self, cp_graph):
        rng = np.random.default_rng(13)
        s1, s2 = rng.random(12), rng.random(12)
        ua, ub = firm_utility(cp_graph, MARKET, SeedingPair(s1, s2))
        swapped_a, swapped_b = firm_utility(cp_graph, MARKET, SeedingPair(s2, s1))
        assert ua.net == pytest.approx(swapped_b.net, rel=1e-12)
        assert ub.net == pytest.approx(swapped_a.net, rel=1e-12)


class TestUtilityGradient:
    def test_formula(self, cp_graph):
        bundle = biproduct_centrality(cp_graph, MARKET)
        rng = np.random.default_rng(14)
        seeding = SeedingPair(rng.random(12), rng.random(12))
        grad = utility_gradient(cp_graph, MARKET, seeding, firm="a", bundle=bundle)
        assert np.array_equal(grad, MARKET.price * bundle.c_new - seeding.s_bar)

    def test_opponent_independent_bitwise(self, test_suite):
        rng = np.random.default_rng(15)
        for name, graph in test_suite[:8]:
            own = rng.random(graph.n)
            g1 = utility_gradient(graph, MARKET,
                                  SeedingPair(own, rng.random(graph.n)), firm="a")
            g2 = utility_gradient(graph, MARKET,
                                  SeedingPair(own, 5.0 * rng.random(graph.n)), firm="a")
            assert np.array_equal(g1, g2), name

    def test_firm_b_uses_its_own_seeding(self, cp_graph):
        rng = np.random.default_rng(16)
        bundle = biproduct_centrality(cp_graph, MARKET)
        seeding = SeedingPair(rng.random(12), rng.random(12))
        grad_b = utility_gradient(cp_graph, MARKET, seeding, firm="b", bundle=bundle)
        assert np.array_equal(grad_b, MARKET.price * bundle.c_new - seeding.s_under)


class TestDiscountedSolver:
    def test_matches_simulation(self, test_suite):
        rng = np.random.default_rng(17)
        for name, graph in test_suite[:8]:
            seeding = SeedingPair(rng.random(graph.n), rng.random(graph.n))
            y_bar, y_under = discounted_consumption(graph, MARKET, seeding)
            traj = simulate(graph, MARKET, seeding, tail_tol=1e-12)
            assert np.abs(y_bar - traj.discounted_bar).max() <= 1e-9, name
            assert np.abs(y_under - traj.discounted_under).max() <= 1e-9, name

    def test_symmetric_seeding_skips_difference_system(self, cp_graph):
        s = np.full(12, 0.7)
        y_bar, y_under = discounted_consumption(cp_graph, MARKET, SeedingPair(s, s))
        assert np.array_equal(y_bar, y_under)

    def test_seedings_equal_where_listened_to_skip_the_minus_solve(self, monkeypatch,
                                                                   cp_graph):
        # nobody listens to an agent of zero out-degree, so seedings that
        # differ only there have equal products with G
        import seedgame.centrality as centrality_mod
        unheard = np.flatnonzero(cp_graph.out_degrees == 0)
        assert 0 < unheard.size < cp_graph.n
        s_bar = np.random.default_rng(20).random(cp_graph.n)
        s_under = s_bar.copy()
        s_under[unheard] += 1.0
        solver = DiscountedSolver(cp_graph, MARKET)
        calls = {id(solver._plus): 0, id(solver._minus): 0}
        solve = centrality_mod._AttenuatedSystem.solve

        def counted(self, rhs):
            calls[id(self)] += 1
            return solve(self, rhs)

        monkeypatch.setattr(centrality_mod._AttenuatedSystem, "solve", counted)
        y_bar, y_under = solver.consumption(SeedingPair(s_bar, s_under))
        assert np.array_equal(y_bar, y_under)
        assert calls == {id(solver._plus): 1, id(solver._minus): 0}
        s_under = s_under.copy()
        s_under[np.flatnonzero(cp_graph.out_degrees)[0]] += 1.0  # a listened-to agent
        y_bar, y_under = solver.consumption(SeedingPair(s_bar, s_under))
        assert not np.array_equal(y_bar, y_under)
        assert calls == {id(solver._plus): 2, id(solver._minus): 1}

    def test_fixed_point_path_matches_direct(self, monkeypatch, cp_graph):
        import seedgame.game as game_mod
        rng = np.random.default_rng(18)
        seeding = SeedingPair(rng.random(12), rng.random(12))
        direct = discounted_consumption(cp_graph, MARKET, seeding)
        monkeypatch.setattr(game_mod, "DIRECT_SOLVE_MAX_N", 1)
        iterative = discounted_consumption(cp_graph, MARKET, seeding)
        assert np.abs(direct[0] - iterative[0]).max() <= 1e-9
        assert np.abs(direct[1] - iterative[1]).max() <= 1e-9

    @pytest.mark.parametrize("chunk", [5, 30])
    def test_grouped_iteration_matches_direct(self, monkeypatch, cp_graph, chunk):
        # chunk 5 < n = 12 puts one column in each group; 30 puts two,
        # leaving a one-column remainder on the 7 columns below
        import seedgame.centrality as centrality_mod
        import seedgame.game as game_mod
        rhs = np.random.default_rng(19).random((12, 7))
        direct_solver = DiscountedSolver(cp_graph, MARKET)
        direct, _ = direct_solver._plus.solve(rhs)
        direct_gain = nash_deviation_check(cp_graph, MARKET, samples=600, seed=4,
                                           solver=direct_solver)
        monkeypatch.setattr(game_mod, "DIRECT_SOLVE_MAX_N", 1)
        monkeypatch.setattr(centrality_mod, "_DOT_CHUNK", chunk)
        solver = DiscountedSolver(cp_graph, MARKET)
        iterative, residual = solver._plus.solve(rhs)
        assert solver._plus.method == "anderson"
        assert residual <= 1e-10
        assert np.abs(direct - iterative).max() <= 1e-9
        gain = nash_deviation_check(cp_graph, MARKET, samples=600, seed=4, solver=solver)
        assert solver._plus.method == "anderson" and solver._plus._lu is None
        assert abs(gain - direct_gain) <= 1e-9

    @pytest.mark.parametrize("graph", [
        WeightedDigraph(2, [(1, 2, 0.5)]),
        generate_core_periphery(CorePeripheryParams(chi=3, m=4, g=0.5)),
        generate_core_periphery(CorePeripheryParams(chi=10, m=30, g=0.5)),
    ], ids=["two-agent-chain", "core-periphery-3x4", "core-periphery-10x30"])
    def test_blocked_net_payoffs_equal_single_seedings_bit_for_bit(self, graph):
        # the +h and -h bumps of verify's finite-difference gradient
        rng = np.random.default_rng(20)
        s_bar, s_under = 0.25 + rng.random(graph.n), 0.25 + rng.random(graph.n)
        cols = np.arange(graph.n)
        block = np.repeat(s_bar[:, None], 2 * graph.n, axis=1)
        block[cols, cols] += 1e-4
        block[cols, cols + graph.n] -= 1e-4
        solver = DiscountedSolver(graph, MARKET)
        single = []
        for column in block.T:
            s = column.copy()  # contiguous, as a seeding vector is
            gross, _ = solver.gross_revenues(SeedingPair(s, s_under))
            single.append(gross - 0.5 * float(s @ s))
        assert np.array_equal(solver.net_payoffs_a(block, s_under), single)
        assert np.array_equal(solver.net_payoffs_a(block[:, :1], s_under), single[:1])

    def test_blocked_net_payoffs_take_each_cost_in_dot_s_slices(self, monkeypatch):
        # chunk 5 splits each seeding cost of the 300-agent graph into 60 slices
        import seedgame.centrality as centrality_mod
        monkeypatch.setattr(centrality_mod, "_DOT_CHUNK", 5)
        graph = generate_core_periphery(CorePeripheryParams(chi=10, m=30, g=0.5))
        rng = np.random.default_rng(21)
        block, s_under = rng.random((graph.n, 40)), rng.random(graph.n)
        solver = DiscountedSolver(graph, MARKET)
        single = []
        for column in block.T:
            s = column.copy()
            gross, _ = solver.gross_revenues(SeedingPair(s, s_under))
            single.append(gross - 0.5 * float(centrality_mod._dot(s, s)))
        assert np.array_equal(solver.net_payoffs_a(block, s_under), single)

    def test_blocked_net_payoffs_with_a_symmetric_column(self, cp_graph):
        # a block whose every seeding equals the rival's skips the difference system
        s = np.full(12, 0.7)
        solver = DiscountedSolver(cp_graph, MARKET)
        gross, _ = solver.gross_revenues(SeedingPair(s, s))
        net = solver.net_payoffs_a(np.column_stack([s, s]), s)
        assert np.array_equal(net, [gross - 0.5 * float(s @ s)] * 2)

    def test_blocked_net_payoffs_want_an_agent_by_seeding_block(self, cp_graph):
        solver = DiscountedSolver(cp_graph, MARKET)
        with pytest.raises(ValueError, match="shape"):
            solver.net_payoffs_a(np.ones(12), np.ones(12))
        with pytest.raises(ValueError, match="shape"):
            solver.net_payoffs_a(np.ones((11, 3)), np.ones(12))

    @pytest.mark.parametrize("chunk", [600, 4096, 65536])
    def test_block_width_changes_no_bits(self, monkeypatch, chunk):
        # the LU path: the oracle block width sets speed only
        import seedgame.centrality as centrality_mod
        graph = generate_core_periphery(CorePeripheryParams(chi=10, m=30, g=0.5))
        rng = np.random.default_rng(22)
        s_bar, s_under = 0.25 + rng.random(graph.n), 0.25 + rng.random(graph.n)
        cols = np.arange(graph.n)
        bumps = np.repeat(s_bar[:, None], 2 * graph.n, axis=1)
        bumps[cols, cols] += 1e-4
        bumps[cols, cols + graph.n] -= 1e-4

        def priced():
            solver = DiscountedSolver(graph, MARKET)
            width = solver.block_columns
            net = np.concatenate([solver.net_payoffs_a(bumps[:, i:i + width], s_under)
                                  for i in range(0, bumps.shape[1], width)])
            gain = nash_deviation_check(graph, MARKET, samples=700, seed=6, solver=solver)
            return width, net, gain

        width, net, gain = priced()
        monkeypatch.setattr(centrality_mod, "_DOT_CHUNK", chunk)
        patched_width, patched_net, patched_gain = priced()
        assert (width, patched_width) == (54, 2 * max(2, chunk // graph.n))
        assert patched_net.tobytes() == net.tobytes()
        assert patched_gain == gain

    @staticmethod
    def reference_deviation_gain(graph, samples, seed):
        """The check's candidates drawn as whole arrays and priced one
        seeding at a time through DiscountedSolver.consumption."""
        bundle = biproduct_centrality(graph, MARKET)
        solver = DiscountedSolver(graph, MARKET)
        p, n = MARKET.price, graph.n
        star = p * bundle.c_new
        net_star = solver.gross_revenues(SeedingPair(star, star))[0] - 0.5 * float(star @ star)
        scale = p * float(bundle.c_new.max())
        rng = np.random.default_rng(seed)
        worst = -np.inf
        for _ in range(2):
            thirds = samples // 3
            local = np.clip(star[:, None] + 0.25 * scale * rng.standard_normal((n, thirds)),
                            0.0, None)
            uniform = 2.0 * scale * rng.random((n, thirds))
            sparse = 2.0 * scale * rng.random((n, samples - 2 * thirds))
            sparse *= rng.random(sparse.shape) < 0.3
            for column in np.hstack([local, uniform, sparse]).T:
                s = column.copy()
                y_bar, _ = solver.consumption(SeedingPair(s, star))
                net = p * (s.sum() + y_bar.sum()) - 0.5 * float(s @ s)
                worst = max(worst, net - net_star)
        return worst

    @pytest.mark.parametrize("graph", [
        WeightedDigraph(2, [(1, 2, 0.5)]),
        generate_core_periphery(CorePeripheryParams(chi=3, m=4, g=0.5)),
    ], ids=["two-agent-chain", "core-periphery-3x4"])
    @pytest.mark.parametrize("samples", [1, 2, 7, 61])
    def test_deviation_gain_matches_single_seeding_pricing(self, graph, samples):
        gain = nash_deviation_check(graph, MARKET, samples=samples, seed=9)
        assert abs(gain - self.reference_deviation_gain(graph, samples, 9)) <= 1e-9

    def test_width_one_remainders_change_no_bits(self, monkeypatch):
        # 15 samples make three parts of 5 candidates: one block each at the
        # default width, blocks of 4 and 1 at width 4, the narrowest there is
        import seedgame.centrality as centrality_mod
        graph = generate_core_periphery(CorePeripheryParams(chi=10, m=30, g=0.5))
        bundle = biproduct_centrality(graph, MARKET)
        wide = DiscountedSolver(graph, MARKET)
        monkeypatch.setattr(centrality_mod, "_DOT_CHUNK", 2 * graph.n)
        narrow = DiscountedSolver(graph, MARKET)
        assert (wide.block_columns, narrow.block_columns) == (54, 4)
        for seed in range(8):
            gains = [nash_deviation_check(graph, MARKET, samples=15, seed=seed,
                                          bundle=bundle, solver=solver)
                     for solver in (wide, narrow)]
            assert gains[0] == gains[1], seed

    def test_every_candidate_goes_through_the_solve(self, monkeypatch, cp_graph):
        # blocks of 10 columns: each part of 83 or 84 candidates ends in a
        # shorter block
        import seedgame.centrality as centrality_mod
        monkeypatch.setattr(centrality_mod, "_DOT_CHUNK", 60)
        bundle = biproduct_centrality(cp_graph, MARKET)
        solver = DiscountedSolver(cp_graph, MARKET)
        assert solver.block_columns == 10
        columns = {id(solver._plus): 0, id(solver._minus): 0}
        solve = centrality_mod._AttenuatedSystem.solve

        def counted(self, rhs):
            columns[id(self)] += 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]
            return solve(self, rhs)

        monkeypatch.setattr(centrality_mod._AttenuatedSystem, "solve", counted)
        samples = 250
        nash_deviation_check(cp_graph, MARKET, samples=samples, seed=2, bundle=bundle,
                             solver=solver)
        # the Nash reference is symmetric, so it skips the difference system
        assert columns == {id(solver._plus): 2 * samples + 1,
                           id(solver._minus): 2 * samples}

    @pytest.mark.parametrize("chunk", [5, 60])
    def test_anderson_blocks_hold_whole_groups(self, monkeypatch, cp_graph, chunk):
        # above DIRECT_SOLVE_MAX_N a block holds whole stacked Anderson groups,
        # two of 5 columns (chunk 60) or four of one column (chunk 5 < n = 12),
        # so the gain has the bits it has at half the width, the width before.
        # 252 samples make parts of 84, which end in no short block at either
        # width; parts of 83 (249 samples) end in a lone column at width 2,
        # and parts of 86 (258 samples) at width 5, which the solver returns
        # Fortran-ordered as it does a wider block, so both sum it alike
        import seedgame.centrality as centrality_mod
        import seedgame.game as game_mod
        monkeypatch.setattr(game_mod, "DIRECT_SOLVE_MAX_N", 1)
        monkeypatch.setattr(centrality_mod, "_DOT_CHUNK", chunk)
        bundle = biproduct_centrality(cp_graph, MARKET)
        solver = DiscountedSolver(cp_graph, MARKET)
        narrow = max(2, chunk // cp_graph.n)
        assert solver.block_columns == 2 * narrow
        for samples in (252, 249, 258):
            for seed in range(4):
                gains = []
                for width in (2 * narrow, narrow):
                    solver.block_columns = width
                    gains.append(nash_deviation_check(cp_graph, MARKET, samples=samples,
                                                      seed=seed, bundle=bundle, solver=solver))
                assert (np.float64(gains[0]).tobytes()
                        == np.float64(gains[1]).tobytes()), (samples, seed)
        assert solver._plus.method == "anderson" and solver._plus._lu is None
        assert solver._minus.method == "anderson" and solver._minus._lu is None

    def test_anderson_gain_does_not_depend_on_the_width(self, monkeypatch, cp_graph):
        # one-column Anderson groups (chunk 5 < n = 12) solve each candidate
        # alone, so the width changes only which columns share a block: a
        # lone (n, 1) column and the columns of a wider block sum alike
        import seedgame.centrality as centrality_mod
        import seedgame.game as game_mod
        monkeypatch.setattr(game_mod, "DIRECT_SOLVE_MAX_N", 1)
        monkeypatch.setattr(centrality_mod, "_DOT_CHUNK", 5)
        bundle = biproduct_centrality(cp_graph, MARKET)
        solver = DiscountedSolver(cp_graph, MARKET)
        gains = set()
        for width in (1, 2, 3, 4, 7):
            solver.block_columns = width
            gains.add(np.float64(nash_deviation_check(
                cp_graph, MARKET, samples=250, seed=3, bundle=bundle, solver=solver)).tobytes())
        assert len(gains) == 1
        assert solver._plus.method == "anderson" and solver._plus._lu is None

    def test_deviation_check_wants_a_sample(self, cp_graph):
        for samples in (0, -5):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                nash_deviation_check(cp_graph, MARKET, samples=samples)

    def test_deviation_check_refuses_a_foreign_solver(self, cp_graph, two_node):
        solver = DiscountedSolver(cp_graph, MARKET)
        with pytest.raises(ValueError, match="different graph"):
            nash_deviation_check(two_node, MARKET, samples=10, solver=solver)
        with pytest.raises(ValueError, match="different graph"):
            nash_deviation_check(cp_graph, MARKET, samples=10, tol=1e-8, solver=solver)


class TestEpsilon:
    def test_role_model_certificate_frozen_values(self, cp_graph, cp_params):
        role = SeedSet.of(cp_params.role_models(), 12)
        report = epsilon_for_sets(cp_graph, MARKET, role, role)
        assert report.tau_bar == pytest.approx(CP_ROLE_TAU, rel=1e-12)
        assert report.tau_under == pytest.approx(CP_ROLE_TAU, rel=1e-12)
        assert report.epsilon_paper == pytest.approx(CP_ROLE_TAU, rel=1e-12)
        assert report.epsilon_exact_a == pytest.approx(CP_ROLE_EPS_EXACT, rel=1e-10)
        assert report.epsilon_exact_b == pytest.approx(CP_ROLE_EPS_EXACT, rel=1e-10)

    def test_exact_ratio_decomposition(self, cp_graph, cp_params):
        role = SeedSet.of(cp_params.role_models(), 12)
        bundle = biproduct_centrality(cp_graph, MARKET)
        gain = best_response_gain(cp_graph, MARKET, role, bundle=bundle)
        assert gain == pytest.approx(CP_ROLE_GAIN, rel=1e-12)
        seeding = restricted_nash_seeding(MARKET, bundle, role, role)
        ua, _ = firm_utility(cp_graph, MARKET, seeding, bundle=bundle)
        assert ua.net == pytest.approx(CP_ROLE_PAYOFF, rel=1e-10)
        assert gain / ua.net == pytest.approx(CP_ROLE_EPS_EXACT, rel=1e-10)

    def test_full_set_is_exact_equilibrium(self, cp_graph):
        full = SeedSet.full(12)
        report = epsilon_for_sets(cp_graph, MARKET, full, full)
        assert report.epsilon_paper == 0.0
        assert report.epsilon_exact_a == 0.0

    def test_asymmetric_sets(self, cp_graph, cp_params):
        role = SeedSet.of(cp_params.role_models(), 12)
        other = SeedSet.of([1, 2], 12)
        report = epsilon_for_sets(cp_graph, MARKET, role, other)
        assert report.tau_bar == pytest.approx(CP_ROLE_TAU, rel=1e-12)
        assert report.tau_under > report.tau_bar
        assert report.epsilon_paper == pytest.approx(report.tau_under, rel=1e-12)

    def test_restricted_seeding_support(self, cp_graph, cp_params):
        role = SeedSet.of(cp_params.role_models(), 12)
        bundle = biproduct_centrality(cp_graph, MARKET)
        seeding = restricted_nash_seeding(MARKET, bundle, role, SeedSet.empty(12))
        assert np.array_equal(seeding.s_bar != 0, role.mask())
        assert np.array_equal(seeding.s_under, np.zeros(12))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_tau_shrinks_as_sets_grow(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_validated_graph(rng)
        bundle = biproduct_centrality(graph, MARKET)
        order = rng.permutation(graph.n) + 1
        prev = None
        for k in range(0, graph.n + 1, max(1, graph.n // 4)):
            s = SeedSet.of(order[:k].tolist(), graph.n)
            report = epsilon_for_sets(graph, MARKET, s, s, bundle=bundle)
            if prev is not None:
                assert report.tau_bar <= prev + 1e-12
            prev = report.tau_bar


class TestSparsify:
    def test_recovers_role_models(self, cp_graph, cp_params):
        set_bar, set_under, report = sparsify(cp_graph, MARKET, 0.32)
        assert set_bar.members == cp_params.role_models()
        assert set_under.members == cp_params.role_models()
        assert report.epsilon_paper <= 0.32

    def test_greedy_takes_top_centrality_first(self, test_suite):
        for name, graph in test_suite[:6]:
            bundle = biproduct_centrality(graph, MARKET)
            set_bar, _, report = sparsify(graph, MARKET, 0.5, bundle=bundle)
            if set_bar.size == 0:
                continue
            c2 = bundle.c_new ** 2
            chosen = c2[np.array(set_bar.members) - 1].min()
            left_out = c2[~set_bar.mask()].max() if set_bar.size < graph.n else 0.0
            assert chosen >= left_out - 1e-12, name

    def test_loose_target_needs_nobody(self, cp_graph):
        set_bar, _, report = sparsify(cp_graph, MARKET, 10.0)
        assert set_bar.size == 0
        assert report.epsilon_paper <= 10.0

    def test_tight_target_takes_everyone(self, cp_graph):
        set_bar, _, report = sparsify(cp_graph, MARKET, 0.0)
        assert set_bar.size == 12
        assert report.epsilon_paper == 0.0

    def test_target_is_met(self, test_suite):
        for name, graph in test_suite[:8]:
            for target in (0.05, 0.2, 0.6):
                _, _, report = sparsify(graph, MARKET, target)
                assert report.epsilon_paper <= target + 1e-12, name


def loop_prefix(c2, base, epsilon_target):
    """The agent-by-agent loop that _greedy_prefix replaced, as its
    reference: the chosen prefix and the tau seen before each step."""
    order = np.lexsort((np.arange(c2.size), -c2))
    inside = 0.0
    outside = float(c2.sum())
    count = 0
    taus = []
    while count < c2.size:
        denominator = base + inside
        tau = (outside / denominator if denominator > 0.0
               else (float("inf") if outside > 0.0 else 0.0))
        taus.append(tau)
        if tau <= epsilon_target:
            break
        picked = order[count]
        inside += float(c2[picked])
        outside -= float(c2[picked])
        count += 1
    return order[:count], taus


# few values, so draws tie; one pair one ulp apart
C_NEW_POOL = [0.0, 1e-3, 0.5, 1.0, float(np.nextafter(1.0, 2.0)), 2.0, 3.3, 7.0]


class TestGreedyPrefix:
    @settings(max_examples=300, deadline=None)
    @given(c_new=st.lists(st.sampled_from(C_NEW_POOL), min_size=1, max_size=30),
           base=st.sampled_from([0.0, 0.25, 17.5]) | st.floats(0.0, 1e3),
           target_kind=st.sampled_from(["zero", "hit", "free"]),
           pick=st.integers(0, 29), free=st.floats(0.0, 10.0))
    def test_same_prefix_as_the_loop(self, c_new, base, target_kind, pick, free):
        c2 = np.array(c_new) ** 2
        _, taus = loop_prefix(c2, base, -1.0)
        hit = taus[pick % len(taus)]
        target = {"zero": 0.0, "hit": hit if np.isfinite(hit) else 0.0,
                  "free": free}[target_kind]
        expected, _ = loop_prefix(c2, base, target)
        assert np.array_equal(_greedy_prefix(c2, base, target), expected)

    def test_every_exact_tau_is_a_hit(self, test_suite):
        for name, graph in test_suite[:6]:
            bundle = biproduct_centrality(graph, MARKET)
            c2, base = bundle.c_new ** 2, 1.5 * float(bundle.b.sum())
            _, taus = loop_prefix(c2, base, -1.0)
            for tau in taus[:20]:
                expected, _ = loop_prefix(c2, base, tau)
                assert np.array_equal(_greedy_prefix(c2, base, tau), expected), name

    def test_alpha_equal_to_price(self, cp_graph):
        # the base is 0: with nobody seeded tau is infinite
        market = MarketParams(alpha=1.0, price=1.0, beta=0.5, delta=0.5)
        bundle = biproduct_centrality(cp_graph, market)
        for target in (0.0, 0.1, 0.5, 2.0):
            set_bar, _, _ = sparsify(cp_graph, market, target, bundle=bundle)
            expected, _ = loop_prefix(bundle.c_new ** 2, 0.0, target)
            assert set_bar.members == tuple(sorted(int(i) + 1 for i in expected))
            assert set_bar.size >= 1
