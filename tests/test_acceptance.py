"""Acceptance gate: end-to-end checks of the package's core guarantees.

Each test prints a single PASS/FAIL line with its observed worst case and the
tolerance it is held to, then asserts.  Tolerances are fixed; do not loosen
them to make a failing build green.
"""
import contextlib
import io

import numpy as np

from seedgame import (CorePeripheryParams, FamilySpec, MarketParams, SeedSet,
                      SeedingPair, analytic_core_periphery,
                      best_response_gain, biproduct_centrality,
                      check_necessary_condition, discounted_consumption,
                      generate_bounded_outdegree_family,
                      generate_core_periphery, katz_bonacich,
                      nash_deviation_check, nash_seeding, neumann_oracle,
                      neumann_tail_bound, restricted_nash_seeding, scan_family,
                      simulate, sparsity_residual, utility_gradient,
                      load_edge_list, save_edge_list)
from seedgame.cli import main as cli_main
from seedgame.game import DiscountedSolver

from conftest import MARKET


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_simulation_matches_closed_form(random_suite, cp_graph):
    graphs = [*random_suite, cp_graph]
    rng = np.random.default_rng(101)
    worst_gap, worst_tail = 0.0, 0.0
    for graph in graphs:
        seeding = SeedingPair(2.0 * rng.random(graph.n), 2.0 * rng.random(graph.n))
        traj = simulate(graph, MARKET, seeding, tail_tol=1e-10, store_states=False)
        y_bar, y_under = discounted_consumption(graph, MARKET, seeding)
        gap = max(np.abs(traj.discounted_bar - y_bar).max(),
                  np.abs(traj.discounted_under - y_under).max())
        worst_gap = max(worst_gap, gap)
        worst_tail = max(worst_tail, traj.tail_bound)
    ok = worst_gap <= 1e-8 and worst_tail <= 1e-10
    _verdict(1, ok, f"closed form vs simulation on {len(graphs)} graphs: "
                    f"max entry gap {worst_gap:.3e} (tol 1e-8), "
                    f"max certified tail {worst_tail:.3e} (tol 1e-10)")


def _solved_net_a(solver, s_bar, s_under):
    """Firm a's net payoff from the full discounted-consumption solve."""
    gross, _ = solver.gross_revenues(SeedingPair(s_bar, s_under))
    return gross - 0.5 * float(s_bar @ s_bar)


def test_criterion_2_gradient_finite_differences(test_suite):
    h = 1e-4
    rng = np.random.default_rng(102)
    worst_rel = 0.0
    identical = True
    for _, graph in test_suite:
        bundle = biproduct_centrality(graph, MARKET)
        solver = DiscountedSolver(graph, MARKET)
        for _ in range(10):
            # strictly positive so the central stencil stays feasible
            seeding = SeedingPair(0.5 + 2.0 * rng.random(graph.n),
                                  0.5 + 2.0 * rng.random(graph.n))
            grad = utility_gradient(graph, MARKET, seeding, firm="a",
                                    bundle=bundle)
            for idx in range(graph.n):
                up_s = seeding.s_bar.copy(); up_s[idx] += h
                dn_s = seeding.s_bar.copy(); dn_s[idx] -= h
                fd = (_solved_net_a(solver, up_s, seeding.s_under)
                      - _solved_net_a(solver, dn_s, seeding.s_under)) / (2 * h)
                worst_rel = max(worst_rel,
                                abs(fd - grad[idx]) / max(1.0, abs(grad[idx])))
            other = utility_gradient(
                graph, MARKET,
                SeedingPair(seeding.s_bar, 3.0 * rng.random(graph.n)),
                firm="a", bundle=bundle)
            identical = identical and np.array_equal(grad, other)
    ok = worst_rel <= 1e-5 and identical
    _verdict(2, ok, f"analytic gradient vs central differences (h={h:g}) at 10 "
                    f"seedings per graph: worst relative gap {worst_rel:.3e} "
                    f"(tol 1e-5); opponent independence bit-identical: {identical}")


def test_criterion_3_nash_deviations(test_suite):
    worst = -np.inf
    for _, graph in test_suite:
        gain = nash_deviation_check(graph, MARKET, samples=10_000, seed=103)
        worst = max(worst, gain)
    ok = worst <= 1e-9
    _verdict(3, ok, f"10^4 unilateral deviations per firm on "
                    f"{len(test_suite)} graphs: best gain {worst:.3e} "
                    f"(tol 1e-9)")


def test_criterion_4_deviation_gain_identity(test_suite):
    rng = np.random.default_rng(104)
    small = [(name, g) for name, g in test_suite if g.n <= 20]
    worst = 0.0
    checked = 0
    for _, graph in small:
        bundle = biproduct_centrality(graph, MARKET)
        solver = DiscountedSolver(graph, MARKET)

        def net(s_bar, s_under):
            return _solved_net_a(solver, s_bar, s_under)

        for _ in range(10):
            size = int(rng.integers(0, graph.n + 1))
            members = rng.choice(graph.n, size=size, replace=False) + 1
            seeds = SeedSet.of(members.tolist(), graph.n)
            candidate = restricted_nash_seeding(MARKET, bundle, seeds, seeds)
            base = net(candidate.s_bar, candidate.s_under)

            # probe the quadratic: U(s) = u0 + g.s - ||s||^2/2 given the rival,
            # so the numeric maximum is u0 + ||g||^2/2 at s = g
            u0 = net(np.zeros(graph.n), candidate.s_under)
            probes = np.array(
                [net(np.eye(graph.n)[i], candidate.s_under) for i in range(graph.n)])
            g_hat = probes - u0 + 0.5
            numeric_max = u0 + 0.5 * float(g_hat @ g_hat)
            # cross-check the probe model at its own argmax
            assert abs(net(np.clip(g_hat, 0, None), candidate.s_under)
                       - numeric_max) <= 1e-8

            gain_numeric = numeric_max - base
            gain_formula = best_response_gain(graph, MARKET, seeds, bundle=bundle)
            worst = max(worst, abs(gain_numeric - gain_formula))
            checked += 1
    ok = worst <= 1e-8 and checked >= 10
    _verdict(4, ok, f"numeric best response minus candidate equals the "
                    f"residual-mass formula on {checked} seed sets "
                    f"({len(small)} graphs, n <= 20): worst gap {worst:.3e} "
                    f"(tol 1e-8)")


def test_criterion_5_core_periphery_analytics():
    worst = 0.0
    for chi in (2, 3, 5):
        for m in (2, 4, 10, 100):
            for g in (0.1, 0.5):
                params = CorePeripheryParams(chi=chi, m=m, g=g)
                closed = analytic_core_periphery(params, MARKET)
                bundle = biproduct_centrality(generate_core_periphery(params),
                                              MARKET)
                role = np.asarray(params.role_models()) - 1
                periphery = np.setdiff1d(np.arange(params.n), role)
                star = nash_seeding(generate_core_periphery(params), MARKET,
                                    bundle=bundle)
                pairs = [
                    (bundle.a[role], closed.a_role),
                    (bundle.b[role], closed.b_role),
                    (bundle.c_new[role], closed.c_role),
                    (star.s_bar[role], closed.s_star_role),
                    (star.s_bar[periphery], closed.s_star_periphery),
                    (bundle.a[periphery], closed.a_periphery),
                    (bundle.b[periphery], closed.b_periphery),
                ]
                for numeric, reference in pairs:
                    rel = np.abs(numeric - reference).max() / abs(reference)
                    worst = max(worst, float(rel))
    example = analytic_core_periphery(CorePeripheryParams(3, 4, 0.5), MARKET)
    anchor_ok = (abs(example.s_star_role - 2.4857142857142858) < 1e-12
                 and example.s_star_periphery == 1.0)
    ok = worst <= 1e-10 and anchor_ok
    _verdict(5, ok, f"closed-form vs solved centralities and seedings over 24 "
                    f"(chi, m, g) combos: worst relative gap {worst:.3e} "
                    f"(tol 1e-10); anchor 2.4857142857... matches: {anchor_ok}")


def test_criterion_6_epsilon_decay():
    spec = FamilySpec(kind="core_periphery", schedule=(10, 100, 1000),
                      market=MARKET, chi=3, g=0.5)
    scan = scan_family(spec, rule="role_models")
    eps = [r.epsilon_paper for r in scan.records]

    def closed_form_tau(m):
        closed = analytic_core_periphery(CorePeripheryParams(3, m, 0.5), MARKET)
        kappa = 0.5 * (MARKET.alpha - MARKET.price) / (
            2 * MARKET.price * (1 - 0.5))
        outside = 3 * (m - 1) * closed.c_periphery ** 2
        inside = 3 * closed.c_role ** 2
        total_b = 3 * (m - 1) * closed.b_periphery + 3 * closed.b_role
        return outside / (kappa * total_b + inside)

    formula_gap = max(abs(eps[0] - closed_form_tau(10)),
                      abs(eps[1] - closed_form_tau(100)),
                      abs(eps[2] - closed_form_tau(1000)))
    decreasing = eps[0] > eps[1] > eps[2]
    anchors = abs(eps[0] - 0.2978) < 5e-5 and abs(eps[1] - 0.0645) < 5e-5
    ok = (decreasing and anchors and formula_gap <= 1e-6
          and scan.decay_exponent <= -0.5
          and scan.verdict == "decreasing-toward-zero")
    _verdict(6, ok, f"role-model epsilon over m=10,100,1000: "
                    f"{eps[0]:.6f} > {eps[1]:.6f} > {eps[2]:.6f}, formula gap "
                    f"{formula_gap:.2e} (tol 1e-6), decay exponent "
                    f"{scan.decay_exponent:.3f} (<= -0.5), verdict {scan.verdict}")


def test_criterion_7_bounded_outdegree_obstruction():
    fixed = (1, 2, 3, 4, 5)
    residuals = []
    bounds_ok = True
    for n in (100, 1000, 10_000):
        graph = generate_bounded_outdegree_family(n, 2, 0.1, seed=2026)
        bundle = biproduct_centrality(graph, MARKET)
        report = check_necessary_condition(graph, MARKET, bundle=bundle)
        bounds_ok = bounds_ok and report.blocks_sparse_seeding \
            and report.lower_bounds_hold and report.upper_bounds_hold
        residuals.append(sparsity_residual(bundle, SeedSet.of(fixed, n)))
    monotone = residuals[0] < residuals[1] < residuals[2]
    ok = bounds_ok and monotone and residuals[2] > 0.99
    _verdict(7, ok, f"degree-capped family (d_out <= 0.2 weighted): centrality "
                    f"bounds hold: {bounds_ok}; residual of a fixed 5-agent set "
                    f"{residuals[0]:.4f} < {residuals[1]:.4f} < "
                    f"{residuals[2]:.4f}, final > 0.99")


def test_criterion_8_centrality_oracle(test_suite):
    worst = 0.0
    for _, graph in test_suite:
        for q in (0.25, 0.75):
            terms = 8
            while neumann_tail_bound(graph, q, terms) >= 1e-8:
                terms *= 2
                assert terms <= 1 << 20, "tail certificate failed to shrink"
            gap = np.abs(katz_bonacich(graph, q)
                         - neumann_oracle(graph, q, terms)).max()
            worst = max(worst, float(gap))
    collapse_exact = True
    beta_zero = MarketParams(2.0, 1.0, 0.0, 0.5)
    for _, graph in test_suite:
        bundle = biproduct_centrality(graph, beta_zero)
        collapse_exact = collapse_exact and bool(np.all(bundle.c_cross == 0.0))
    ok = worst <= 1e-8 and collapse_exact
    _verdict(8, ok, f"walk series vs solved centrality with certified tail "
                    f"< 1e-8: worst gap {worst:.3e}; beta=0 cross centrality "
                    f"exactly zero: {collapse_exact}")


def test_criterion_9_determinism_and_io(test_suite, tmp_path):
    round_trip = True
    for name, graph in test_suite:
        path = tmp_path / f"{name}.edges"
        save_edge_list(graph, path)
        round_trip = round_trip and (load_edge_list(path) == graph)

    out = tmp_path / "verify"
    argv = ["verify", "--samples", "400", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        first_code = cli_main(list(argv))
    first = (out / "verify.json").read_bytes()
    with contextlib.redirect_stdout(io.StringIO()):
        second_code = cli_main(list(argv))
    second = (out / "verify.json").read_bytes()
    identical = first == second
    ok = round_trip and identical and first_code == 0 and second_code == 0
    _verdict(9, ok, f"edge-list round trip on {len(test_suite)} graphs: "
                    f"{round_trip}; repeated verify reports byte-identical: "
                    f"{identical} ({len(first)} bytes, exit {first_code})")
