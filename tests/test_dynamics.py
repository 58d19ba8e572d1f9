import os
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from seedgame import (CorePeripheryParams, DiscountedSolver, MarketParams, SeedingPair,
                      TailCertificationError, WeightedDigraph, auto_horizon,
                      generate_bounded_outdegree_family, generate_core_periphery,
                      nash_seeding, simulate, write_trajectory_csv)
from seedgame import dynamics
from seedgame.dynamics import _step, _tail_certificate
from seedgame.reportio import format_distinct

from conftest import MARKET, choice_loop_family


def nash_like_pair(n, rng):
    return SeedingPair(s_bar=rng.random(n), s_under=rng.random(n))


class TestSeedingPair:
    def test_zeros(self):
        pair = SeedingPair.zeros(3)
        assert pair.n == 3
        assert np.array_equal(pair.s_bar, np.zeros(3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SeedingPair(np.array([-0.1, 0.0]), np.zeros(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SeedingPair(np.array([np.nan, 0.0]), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SeedingPair(np.zeros(2), np.zeros(3))

    def test_read_only(self):
        pair = SeedingPair.zeros(2)
        with pytest.raises(ValueError):
            pair.s_bar[0] = 1.0


class TestBestResponseStep:
    def test_isolated_agents_jump_to_base_level(self):
        g = WeightedDigraph.empty(3)
        x_bar, x_under = _step(np.zeros(3), np.zeros(3), g, MARKET)
        # alpha - price = 1 for both products when nobody influences anybody
        assert np.allclose(x_bar, 1.0)
        assert np.allclose(x_under, 1.0)

    def test_single_step_by_hand(self, two_node):
        # x1' = 1 + g12 * (x2 + beta * y2) with g12 = 0.5, beta = 0.5
        x_bar, x_under = _step(np.array([0.0, 2.0]), np.array([0.0, 4.0]), two_node, MARKET)
        assert x_bar[0] == pytest.approx(1 + 0.5 * (2 + 0.5 * 4))
        assert x_under[0] == pytest.approx(1 + 0.5 * (4 + 0.5 * 2))
        assert x_bar[1] == pytest.approx(1.0)

    def test_steady_state_is_fixed(self, cp_graph):
        # x* solves x = (alpha - p) 1 + (1 + beta) G x when both sides seed alike
        dense = cp_graph.to_dense()
        x_star = np.linalg.solve(np.eye(12) - 1.5 * dense, np.ones(12))
        x_bar, x_under = _step(x_star, x_star, cp_graph, MARKET)
        assert np.allclose(x_bar, x_star, atol=1e-12)
        assert np.allclose(x_under, x_star, atol=1e-12)


class TestAgentUtility:
    def test_best_response_maximizes(self, cp_graph):
        # agent i's period payoff from consuming x of firm a's product:
        # (alpha - p) x - x^2/2 + x * sum_j g_ij (own_j + beta other_j)
        def utility(i, x, own, other):
            social = cp_graph.to_dense()[i - 1] @ (own + MARKET.beta * other)
            return (MARKET.alpha - MARKET.price) * x - 0.5 * x * x + x * social

        rng = np.random.default_rng(0)
        x_bar, x_under = rng.random(12), rng.random(12)
        nxt_bar, _ = _step(x_bar, x_under, cp_graph, MARKET)
        for i in (1, 4, 7):
            best = utility(i, nxt_bar[i - 1], x_bar, x_under)
            for bump in (-0.05, 0.05):
                assert utility(i, nxt_bar[i - 1] + bump, x_bar, x_under) <= best


class TestSimulate:
    def test_empty_graph_geometric_sum(self):
        g = WeightedDigraph.empty(3)
        traj = simulate(g, MARKET, SeedingPair.zeros(3), tail_tol=1e-12)
        # x(k) = 1 for k >= 1, so the discounted sum is delta/(1-delta) = 1
        assert np.allclose(traj.discounted_bar, 1.0, atol=1e-10)
        assert np.allclose(traj.discounted_under, 1.0, atol=1e-10)

    def test_matches_closed_form(self, cp_graph):
        rng = np.random.default_rng(1)
        seeding = nash_like_pair(12, rng)
        traj = simulate(cp_graph, MARKET, seeding, tail_tol=1e-12)
        y_bar, y_under = DiscountedSolver(cp_graph, MARKET).consumption(seeding)
        assert np.abs(traj.discounted_bar - y_bar).max() <= 1e-10
        assert np.abs(traj.discounted_under - y_under).max() <= 1e-10

    def test_tail_bound_is_honest(self, cp_graph):
        rng = np.random.default_rng(2)
        seeding = nash_like_pair(12, rng)
        exact_bar, exact_under = DiscountedSolver(cp_graph, MARKET).consumption(seeding)
        for horizon in (3, 6, 12, 24):
            traj = simulate(cp_graph, MARKET, seeding, horizon=horizon)
            gap = max(np.abs(traj.discounted_bar - exact_bar).max(),
                      np.abs(traj.discounted_under - exact_under).max())
            assert gap <= traj.tail_bound + 1e-12

    def test_states_are_stepped_again_with_the_same_bits(self, cp_graph, tmp_path):
        traj = simulate(cp_graph, MARKET, nash_like_pair(12, np.random.default_rng(5)),
                        horizon=5)
        assert traj.horizon == 5
        passes = [list(traj.states()) for _ in range(2)]
        assert len(passes[0]) == 6
        for (bar, under), (bar2, under2) in zip(*passes):
            assert not (bar.flags.writeable or under.flags.writeable)
            assert (bar.tobytes(), under.tobytes()) == (bar2.tobytes(), under2.tobytes())
        for name in ("first.csv", "second.csv"):
            write_trajectory_csv(traj, tmp_path / name)
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()

    @pytest.mark.parametrize("horizon", [0, -3, dynamics._MAX_HORIZON + 1])
    def test_horizon_out_of_range_refused_at_once(self, monkeypatch, horizon):
        admitted = []
        monkeypatch.setattr(dynamics, "_admit", lambda *args: admitted.append(args))
        with pytest.raises(ValueError, match=r"horizon must lie in \[1, 10000000\]"):
            simulate(WeightedDigraph.empty(2), MARKET, SeedingPair.zeros(2), horizon=horizon)
        assert admitted == []
        for horizon in (None, 1, dynamics._MAX_HORIZON):
            dynamics.check_horizon(horizon)

    def test_memory_does_not_grow_with_the_horizon(self):
        # the sums and the CSV step the states one period at a time, so ten
        # times the horizon takes about the same memory (a stored path would
        # take horizon * 2n * 8 bytes: 6.7 MB at horizon 20, 64 MB at 200)
        graph = generate_core_periphery(CorePeripheryParams(chi=10, m=2000, g=0.5))
        seeding = nash_seeding(graph, MARKET)
        simulate(graph, MARKET, seeding, horizon=1)  # admits the graph once

        def peak(horizon):
            tracemalloc.start()
            try:
                write_trajectory_csv(simulate(graph, MARKET, seeding, horizon=horizon),
                                     os.devnull)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200) <= 1.5 * peak(20)

    def test_seeding_size_mismatch(self, two_node):
        with pytest.raises(ValueError):
            simulate(two_node, MARKET, SeedingPair.zeros(3))

    def test_never_negative_states(self, test_suite):
        rng = np.random.default_rng(3)
        for name, graph in test_suite[:8]:
            seeding = nash_like_pair(graph.n, rng)
            traj = simulate(graph, MARKET, seeding, horizon=20)
            for x_bar, x_under in traj.states():
                assert x_bar.min() >= 0, name
                assert x_under.min() >= 0, name

    @pytest.mark.parametrize("graph", [
        generate_core_periphery(CorePeripheryParams(chi=3, m=4, g=0.5)),
        generate_bounded_outdegree_family(200, 4, 0.1, seed=5),
    ], ids=["core-periphery-3x4", "bounded-outdegree-200"])
    def test_same_bits_as_a_loop_of_best_response_steps(self, graph):
        seeding = nash_like_pair(graph.n, np.random.default_rng(13))
        traj = simulate(graph, MARKET, seeding)
        x_bar, x_under = seeding.s_bar, seeding.s_under
        states = [(x_bar, x_under)]
        acc_bar, acc_under = np.zeros(graph.n), np.zeros(graph.n)
        discount = 1.0
        for _ in range(traj.horizon):
            x_bar, x_under = _step(x_bar, x_under, graph, MARKET)
            discount *= MARKET.delta
            acc_bar += discount * x_bar
            acc_under += discount * x_under
            states.append((x_bar, x_under))
        got = list(traj.states())
        assert len(got) == len(states) == traj.horizon + 1
        for (got_bar, got_under), (want_bar, want_under) in zip(got, states):
            assert got_bar.tobytes() == want_bar.tobytes()
            assert got_under.tobytes() == want_under.tobytes()
            assert not (got_bar.flags.writeable or got_under.flags.writeable)
        assert traj.discounted_bar.tobytes() == acc_bar.tobytes()
        assert traj.discounted_under.tobytes() == acc_under.tobytes()

    def test_overflowing_states_are_refused(self):
        # the 2-cycle of weight 1.3 is admitted (delta * (1 + beta) * rho =
        # 0.975) but its states grow as 1.95^k and overflow near k = 1060
        g = WeightedDigraph(2, [(1, 2, 1.3), (2, 1, 1.3)])
        assert np.isfinite(simulate(g, MARKET, SeedingPair.zeros(2), horizon=1000)
                           .discounted_bar).all()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="overflows within horizon 1100"):
            simulate(g, MARKET, SeedingPair.zeros(2), horizon=1100)

    def test_overflow_raises_without_numpy_warnings(self):
        g = WeightedDigraph(2, [(1, 2, 1.3), (2, 1, 1.3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise first
            with pytest.raises(ValueError, match="overflows within horizon 1100"):
                simulate(g, MARKET, SeedingPair.zeros(2), horizon=1100)

    def test_overflow_stops_at_its_period(self, monkeypatch):
        # the near-critical 2-cycle (delta * (1 + beta) * rho = 0.999): its
        # tail bound asks for tens of thousands of periods, while its states
        # grow as 1.998^k and overflow near k = 1020
        steps = []
        step = dynamics._step
        monkeypatch.setattr(dynamics, "_step", lambda *args: steps.append(1) or step(*args))
        w = 0.999 / 0.75
        g = WeightedDigraph(2, [(1, 2, w), (2, 1, w)])
        with pytest.raises(ValueError, match="overflows within horizon"):
            simulate(g, MARKET, SeedingPair.zeros(2))
        assert 0 < len(steps) < 2000


class TestTailCertification:
    def test_auto_horizon_meets_target(self, test_suite):
        for name, graph in test_suite:
            seeding = SeedingPair.zeros(graph.n)
            for tol in (1e-6, 1e-10):
                traj = simulate(graph, MARKET, seeding, tail_tol=tol)
                assert traj.tail_bound <= tol, name

    def test_auto_horizon_minimal(self, cp_graph):
        seeding = SeedingPair.zeros(12)
        horizon = auto_horizon(cp_graph, MARKET, seeding, 1e-10)
        shorter = simulate(cp_graph, MARKET, seeding, horizon=horizon - 1)
        assert shorter.tail_bound > 1e-10

    def test_growth_branch_certifies(self):
        # max weighted in-degree 1.2 puts mu = 1.8 above 1 while
        # delta * mu = 0.9 still contracts; rho = sqrt(0.24) passes checks
        g = WeightedDigraph(2, [(1, 2, 1.2), (2, 1, 0.2)])
        traj = simulate(g, MARKET, SeedingPair.zeros(2), tail_tol=1e-10)
        y_bar, _ = DiscountedSolver(g, MARKET).consumption(SeedingPair.zeros(2))
        assert np.abs(traj.discounted_bar - y_bar).max() <= 1e-8

    def test_marginal_growth_branch(self):
        # max weighted in-degree exactly 2/3 makes mu = 1 (linear growth cap)
        g = WeightedDigraph(2, [(1, 2, 2.0 / 3.0), (2, 1, 0.1)])
        traj = simulate(g, MARKET, SeedingPair.zeros(2), tail_tol=1e-10)
        y_bar, _ = DiscountedSolver(g, MARKET).consumption(SeedingPair.zeros(2))
        assert np.abs(traj.discounted_bar - y_bar).max() <= 1e-8

    @pytest.mark.parametrize("tail_tol", [0.0, -1.0, float("nan")])
    def test_auto_horizon_refuses_a_tolerance_that_certifies_nothing(self, cp_graph,
                                                                      tail_tol):
        with pytest.raises(ValueError, match="tail_tol must be positive"):
            auto_horizon(cp_graph, MARKET, SeedingPair.zeros(12), tail_tol)

    def test_refuses_uncertifiable(self):
        # rho = sqrt(1.7 * 0.9) ~ 1.237 passes the model checks, but
        # delta * (1 + beta) * 1.7 = 1.275 defeats the per-entry certificate
        g = WeightedDigraph(2, [(1, 2, 1.7), (2, 1, 0.9)])
        with pytest.raises(TailCertificationError):
            simulate(g, MARKET, SeedingPair.zeros(2))


def _tail_case(delta: float, mu: float, x0: float, base: float):
    """A graph, market and seeding on which _tail_certificate sees exactly
    these delta, mu, x0 and alpha - price: beta = 0 and one edge of weight mu."""
    graph = WeightedDigraph(2, [(1, 2, mu)]) if mu > 0.0 else WeightedDigraph.empty(2)
    params = MarketParams(alpha=1.0 + base, price=1.0, beta=0.0, delta=delta)
    return graph, params, SeedingPair(np.array([x0, 0.0]), np.zeros(2))


def _bound_partial_sum(delta: float, mu: float, x0: float, base: float,
                       horizon: int, terms: int) -> float:
    """sum_{T < k <= T + terms} delta^k (mu^k x0 + base sum_{j<k} mu^j), one
    term at a time in extended precision: c_k = delta^k sum_{j<k} mu^j
    follows c_{k+1} = delta^(k+1) + delta mu c_k."""
    d, m = np.longdouble(delta), np.longdouble(mu)
    gamma = d * m
    delta_k, gamma_k, c_k = np.longdouble(1.0), np.longdouble(1.0), np.longdouble(0.0)
    total = np.longdouble(0.0)
    for k in range(1, horizon + terms + 1):
        c_k = d * delta_k + gamma * c_k
        delta_k *= d
        gamma_k *= gamma
        if k > horizon:
            total += gamma_k * np.longdouble(x0) + np.longdouble(base) * c_k
    return float(total)


@st.composite
def tail_cases(draw):
    """delta, mu in [0, 1 / delta) with delta * mu <= 0.99 (mu exactly 0
    and exactly 1 among them), x0, alpha - price and a horizon."""
    delta = draw(st.floats(0.05, 0.95))
    mu = draw(st.one_of(st.just(0.0), st.just(1.0),
                        st.floats(0.0, 0.99 / delta, exclude_max=True)))
    level = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
    return delta, mu, draw(level), draw(level), draw(st.integers(1, 300))


class TestTailFormula:
    """_tail_certificate is the closed form of sum_{k > T} delta^k
    (mu^k x0 + (alpha - price) sum_{j<k} mu^j) on either side of mu = 1."""

    @settings(max_examples=150, deadline=None)
    @given(tail_cases())
    @example((0.5, 1.0 - 1e-9, 0.0, 1.0, 1))  # 1 - mu^(T+1) cancels here
    @example((0.5, 1.0 + 1e-9, 0.0, 1.0, 1))
    def test_matches_the_partial_sums(self, case):
        delta, mu, x0, base, horizon = case
        # the terms fall at least as fast as k max(delta, delta mu)^k; the
        # first must be a normal float for a relative error to mean anything
        ratio = max(delta, delta * mu)
        assume(ratio ** (horizon + 1) > 1e-290)
        graph, params, seeding = _tail_case(delta, mu, x0, base)
        base = params.alpha - params.price  # as rounded in the market
        bound = _tail_certificate(graph, params, seeding, horizon)
        terms = int(np.ceil(np.log(1e-22) / np.log(ratio))) + 2 * horizon + 100
        exact = _bound_partial_sum(delta, mu, x0, base, horizon, terms)
        assert bound == pytest.approx(exact, rel=1e-12, abs=0.0)
        if mu < 1.0:  # no looser than the steady-state cap it replaces
            cap = max(x0, base / (1.0 - mu)) if mu > 0 else max(x0, base)
            assert bound <= delta ** (horizon + 1) / (1.0 - delta) * cap * (1.0 + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(1.0, 3.0), st.integers(1, 300))
    def test_refuses_without_contraction(self, delta, excess, horizon):
        mu = excess / delta
        assume(delta * mu >= 1.0)
        graph, params, seeding = _tail_case(delta, mu, 1.0, 1.0)
        with pytest.raises(TailCertificationError, match="cannot certify the truncation"):
            _tail_certificate(graph, params, seeding, horizon)


class TestTrajectoryCsv:
    def test_layout(self, two_node, tmp_path):
        traj = simulate(two_node, MARKET, SeedingPair.zeros(2), horizon=3)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,node,x_bar,x_under"
        assert len(lines) == 1 + 4 * 2
        k, node, x_bar, x_under = lines[1].split(",")
        assert (k, node) == ("0", "1")
        assert float(x_bar) == 0.0

    def test_values_round_trip_exactly(self, cp_graph, tmp_path):
        rng = np.random.default_rng(4)
        traj = simulate(cp_graph, MARKET, nash_like_pair(12, rng), horizon=4)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        for step, (bar, under) in enumerate(traj.states()):
            for idx in range(12):
                k, node, x_bar, x_under = rows[step * 12 + idx]
                assert int(k) == step and int(node) == idx + 1
                assert float(x_bar) == bar[idx]
                assert float(x_under) == under[idx]

    @staticmethod
    def reference_csv(trajectory, path):
        """The value-by-value writer the streamed one replaced."""
        lines = ["k,node,x_bar,x_under"]
        for k, (x_bar, x_under) in enumerate(trajectory.states()):
            for idx in range(trajectory.seeding.n):
                lines.append(f"{k},{idx + 1},{float(x_bar[idx])!r},{float(x_under[idx])!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_same_bytes_as_the_reference_writer(self, tmp_path):
        # the generator's former per-agent draw: its Floyd pass draws a graph
        # of max in-degree 1.4 here, whose tail simulate cannot certify
        # (delta * (1 + beta) * 1.4 = 1.05)
        graph = choice_loop_family(300, 4, 0.2, seed=11)
        traj = simulate(graph, MARKET, nash_like_pair(300, np.random.default_rng(12)),
                        horizon=25)
        write_trajectory_csv(traj, tmp_path / "streamed.csv")
        self.reference_csv(traj, tmp_path / "reference.csv")
        streamed = (tmp_path / "streamed.csv").read_bytes()
        assert streamed == (tmp_path / "reference.csv").read_bytes()
        assert streamed.count(b"\n") == 1 + 26 * 300

    def assert_reference_bytes(self, trajectory, tmp_path):
        write_trajectory_csv(trajectory, tmp_path / "written.csv")
        self.reference_csv(trajectory, tmp_path / "reference.csv")
        written = (tmp_path / "written.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        return written.decode("utf-8").splitlines()

    @staticmethod
    def trajectory_of(states):
        """A stand-in for a Trajectory whose states() yields the given
        (x_bar, x_under) states as k = 0, 1, ...: what the writer reads."""
        states = [(np.asarray(bar, dtype=float), np.asarray(under, dtype=float))
                  for bar, under in states]
        return types.SimpleNamespace(seeding=types.SimpleNamespace(n=states[0][0].size),
                                     states=lambda: iter(states))

    def test_core_periphery_nash_same_bytes_as_the_reference_writer(self, tmp_path):
        # every periphery agent of a community shares one state: values repeat
        graph = generate_core_periphery(CorePeripheryParams(chi=10, m=30, g=0.5))
        traj = simulate(graph, MARKET, nash_seeding(graph, MARKET))
        assert len(np.unique(list(traj.states())[-1][0])) < graph.n // 10
        lines = self.assert_reference_bytes(traj, tmp_path)
        assert len(lines) == 1 + (traj.horizon + 1) * graph.n

    def test_negative_zero_seed_prints_as_negative_zero(self, two_node, tmp_path):
        seeding = SeedingPair(np.array([-0.0, 0.0]), np.array([0.0, -0.0]))
        traj = simulate(two_node, MARKET, seeding, horizon=2)
        lines = self.assert_reference_bytes(traj, tmp_path)
        assert lines[1:3] == ["0,1,-0.0,0.0", "0,2,0.0,-0.0"]

    def test_subnormal_and_huge_entries(self, tmp_path):
        tiny, huge = 5e-324, 1e300
        traj = self.trajectory_of([
            ([tiny, huge, 2.2250738585072014e-308, 0.0, -0.0],
             [huge, tiny, 1.7976931348623157e308, -0.0, 0.0]),
            ([1e-310, 1e-310, 9.999999999999999e299, huge, tiny],
             [1e-310, huge, huge, 0.1 + 0.2, 1e16]),
        ])
        lines = self.assert_reference_bytes(traj, tmp_path)
        assert lines[1] == "0,1,5e-324,1e+300"
        assert lines[4:6] == ["0,4,0.0,-0.0", "0,5,-0.0,0.0"]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_repeated_and_signed_zero_values(self, tmp_path_factory, data):
        # a small pool of values, drawn into the states with repeats, so
        # each state holds few distinct values and 0.0 sits next to -0.0
        pool = data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, 1e300])
            | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=6))
        n = data.draw(st.integers(1, 8))
        picks = st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n)
        states = [([pool[i] for i in data.draw(picks)], [pool[i] for i in data.draw(picks)])
                  for _ in range(data.draw(st.integers(1, 4)))]
        self.assert_reference_bytes(self.trajectory_of(states),
                                    tmp_path_factory.mktemp("csv"))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_states_of_runs(self, tmp_path_factory, data):
        # each state is drawn as runs of identical rows, short or long, so
        # that some states take the run path and others the six-cell path
        values = st.sampled_from([0.0, -0.0, 5e-324, 1e300, 1.5])
        n = data.draw(st.integers(1, 40))
        states = []
        for _ in range(data.draw(st.integers(1, 4))):
            longest = data.draw(st.sampled_from([1, 3, 12]))
            rows = []
            while len(rows) < n:
                rows += [(data.draw(values), data.draw(values))] * data.draw(
                    st.integers(1, longest))
            states.append(tuple(zip(*rows[:n])))
        self.assert_reference_bytes(self.trajectory_of(states),
                                    tmp_path_factory.mktemp("csv"))

    @pytest.mark.parametrize("bar, under", [
        ([1.0] * 8, [2.0] * 4 + [3.0] * 4),  # a run broken only in x_under
        ([0.0] * 4 + [-0.0] * 4, [1.0] * 8),  # -0.0 next to 0.0
        ([1.0], [2.0]),  # one agent
        ([1.0, 2.0] + [4.0] * 10, [1.0, 2.0] + [4.0] * 10),  # a long run ends at agent n
        ([4.0] * 11 + [5.0], [4.0] * 12),  # a one-row run at agent n
    ])
    def test_run_edges(self, tmp_path, bar, under):
        self.assert_reference_bytes(self.trajectory_of([(bar, under)]), tmp_path)

    def test_one_run_zero_seeding(self, cp_graph, tmp_path):
        traj = simulate(cp_graph, MARKET, SeedingPair.zeros(12), horizon=3)
        lines = self.assert_reference_bytes(traj, tmp_path)
        assert lines[1:13] == [f"0,{node},0.0,0.0" for node in range(1, 13)]

    def test_states_take_either_path_in_one_file(self, monkeypatch, tmp_path):
        # format_distinct gets the run heads on the run path and every row
        # on the six-cell path
        formatted = []

        def record(values, fmt):
            formatted.append(values.size // 2)
            return format_distinct(values, fmt)

        monkeypatch.setattr(dynamics, "format_distinct", record)
        distinct = np.arange(1.0, 9.0)
        self.assert_reference_bytes(self.trajectory_of([
            (distinct, distinct), ([0.5] * 6 + [0.25] * 2, [0.5] * 8),
            (distinct, distinct[::-1]), ([-0.0] * 8, [0.0] * 8)]), tmp_path)
        assert formatted == [8, 2, 8, 1]
