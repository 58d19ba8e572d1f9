import argparse
import ast
import collections
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from seedgame import (AssumptionError, DiscountedSolver, PowerIterationError, SeedingPair,
                      WeightedDigraph, biproduct_centrality, discounted_consumption,
                      katz_bonacich, load_edge_list, simulate)
from seedgame import cli
from seedgame import graph as graph_mod
from seedgame.cli import RunConfig, build_parser, main

from conftest import MARKET

CP_SPEC = "core-periphery:chi=3,m=4,g=0.5"
HOT = "core-periphery:chi=3,m=4,g=1.5"  # rho = 1.5 against the bound 4 / 3
ALPHA_BELOW_PRICE = "alpha must be at least price (alpha=0.5, price=1.0)"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read_json(path):
    return json.loads(path.read_text())


class TestGenerate:
    def test_writes_graph_and_report(self, tmp_path):
        code, out, _ = run("generate", "--generate", CP_SPEC,
                           "--out", str(tmp_path))
        assert code == 0
        graph = load_edge_list(tmp_path / "graph.edges")
        assert graph.n == 12
        report = read_json(tmp_path / "generate.json")
        assert report["n"] == 12
        assert report["edge_count"] == 12
        assert report["config"]["command"] == "generate"
        assert report["version"]

    def test_bounded_outdegree_spec(self, tmp_path):
        code, _, _ = run("generate", "--generate",
                         "bounded-outdegree:n=10,d=2,weight=0.1",
                         "--seed", "4", "--out", str(tmp_path))
        assert code == 0
        assert load_edge_list(tmp_path / "graph.edges").n == 10

    @pytest.mark.parametrize("spec", [
        "mystery:chi=3", "core-periphery:chi=3", "core-periphery:chi=3,m=4,g=x",
        "core-periphery:chi=3,m=4,g=0.5,extra=1", "core-periphery:m",
    ])
    def test_bad_specs_exit_one(self, tmp_path, spec):
        code, _, err = run("generate", "--generate", spec, "--out", str(tmp_path))
        assert code == 1
        assert "error:" in err


class TestCentrality:
    def test_report_values(self, tmp_path):
        code, out, _ = run("centrality", "--generate", CP_SPEC,
                           "--out", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "centrality.json")
        assert report["n"] == 12
        assert report["attenuations"] == [0.25, 0.75]
        assert report["c_new"][3] == pytest.approx(87.0 / 35.0, rel=1e-15)
        assert report["c_cross"][3] == pytest.approx(32.0 / 35.0, rel=1e-15)
        assert max(report["residuals"]) <= 1e-10
        assert "top agents" in out

    def test_reads_graph_file(self, tmp_path):
        run("generate", "--generate", CP_SPEC, "--out", str(tmp_path))
        code, _, _ = run("centrality", "--graph", str(tmp_path / "graph.edges"),
                         "--out", str(tmp_path / "c"))
        assert code == 0

    def test_requires_exactly_one_source(self, tmp_path):
        code, _, err = run("centrality", "--out", str(tmp_path))
        assert code == 1 and "exactly one graph source" in err
        code, _, err = run("centrality", "--graph", "a", "--generate", CP_SPEC,
                           "--out", str(tmp_path))
        assert code == 1 and "exactly one graph source" in err

    def test_missing_file_exits_one(self, tmp_path):
        code, _, err = run("centrality", "--graph", str(tmp_path / "nope.edges"),
                           "--out", str(tmp_path))
        assert code == 1 and "not found" in err

    def test_malformed_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("n=2\n1 2\n")
        code, _, err = run("centrality", "--graph", str(bad), "--out", str(tmp_path))
        assert code == 1 and "line 2" in err


def full_sort_summary(graph, c_new, seeding):
    """The top-10 summary from a lexsort of every agent."""
    lines = ["top agents by bi-product centrality:"]
    for idx in np.lexsort((np.arange(graph.n), -c_new))[:10]:
        line = f"  agent {idx + 1}: c_new={c_new[idx]:.6g}"
        if seeding is not None:
            line += f"  seed_bar={seeding.s_bar[idx]:.6g}  seed_under={seeding.s_under[idx]:.6g}"
        lines.append(line)
    return "\n".join(lines)


class TestSeedingSummary:
    @pytest.mark.parametrize("values", [
        # ties straddling the 10th place: six agents share places 8-13
        [5.0] * 3 + [4.0] * 4 + [3.0] * 6 + [2.0] * 7,
        # the tied block spread over the ids, after a larger value with a high id
        [1.0, 2.0] * 10 + [7.0],
        [0.0] * 25 + [1.0] * 2,
        [-0.0, 0.0] * 8,
        [1.0] * 10 + [0.5] * 3,
        [3.0] * 10,
        [2.0, 1.0, 3.0],
        [1.0, np.nan, 2.0, np.nan] * 4,
        [np.nan] * 12 + [1.0],
    ])
    def test_same_text_as_the_full_sort(self, values):
        rng = np.random.default_rng(len(values))
        for c_new in (np.array(values), rng.permutation(values)):
            graph = WeightedDigraph.empty(c_new.size)
            seeding = SeedingPair(rng.random(c_new.size), rng.random(c_new.size))
            for pair in (None, seeding):
                assert cli._seeding_summary(graph, c_new, pair) == \
                    full_sort_summary(graph, c_new, pair)


class TestNash:
    def test_equilibrium_report(self, tmp_path):
        code, _, _ = run("nash", "--generate", CP_SPEC, "--out", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "equilibrium.json")
        assert report["nash"]["s_bar"][3] == pytest.approx(87.0 / 35.0, rel=1e-15)
        assert report["seeding"] == report["nash"]
        net_a = report["utilities"]["firm_a"]["net"]
        net_b = report["utilities"]["firm_b"]["net"]
        assert net_a == pytest.approx(48738.0 / 1225.0, rel=1e-12)
        assert net_a == net_b
        assert report["epsilon"] is None

    def test_price_scales_seeding(self, tmp_path):
        run("nash", "--generate", CP_SPEC, "--price", "2", "--alpha", "3",
            "--out", str(tmp_path))
        report = read_json(tmp_path / "equilibrium.json")
        assert report["nash"]["s_bar"][0] == pytest.approx(2.0, rel=1e-12)


class TestEpsilon:
    def test_role_model_sets(self, tmp_path):
        code, out, _ = run("epsilon", "--generate", CP_SPEC,
                           "--sets", "4,8,12", "--out", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "equilibrium.json")
        eps = report["epsilon"]
        assert eps["sets"]["bar"] == [4, 8, 12]
        assert eps["tau_bar"] == pytest.approx(0.3198711811297763, rel=1e-12)
        assert eps["epsilon_paper"] == eps["tau_bar"]
        assert eps["epsilon_exact"][0] == pytest.approx(0.1275288891973488, rel=1e-9)
        assert eps["residuals"][0] == pytest.approx(0.3268409818569904, rel=1e-12)
        assert "epsilon_paper=" in out
        # seeding restricted to the sets
        assert report["seeding"]["s_bar"][0] == 0.0
        assert report["seeding"]["s_bar"][3] > 0

    def test_sets_from_file(self, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("4 8\n12\n")
        code, _, _ = run("epsilon", "--generate", CP_SPEC,
                         "--sets", f"@{ids}", "--out", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "equilibrium.json")
        assert report["epsilon"]["sets"]["bar"] == [4, 8, 12]

    def test_separate_sets(self, tmp_path):
        code, _, _ = run("epsilon", "--generate", CP_SPEC, "--sets-bar", "4,8,12",
                         "--sets-under", "1,2", "--out", str(tmp_path))
        assert code == 0
        eps = read_json(tmp_path / "equilibrium.json")["epsilon"]
        assert eps["sets"]["under"] == [1, 2]
        assert eps["tau_under"] > eps["tau_bar"]

    def test_missing_sets_exit_one(self, tmp_path):
        code, _, err = run("epsilon", "--generate", CP_SPEC, "--out", str(tmp_path))
        assert code == 1 and "--sets" in err

    def test_bad_ids_exit_one(self, tmp_path, monkeypatch):
        # the ids are checked on the loaded graph, before the bundle's solve
        def solve(*args, **kwargs):
            raise AssertionError("the bundle was solved before the refusal")
        monkeypatch.setattr(cli, "biproduct_centrality", solve)
        code, _, err = run("epsilon", "--generate", CP_SPEC, "--sets", "4,99",
                           "--out", str(tmp_path / "out"))
        assert code == 1 and "99" in err
        assert not (tmp_path / "out").exists()


class TestSparsify:
    def test_finds_role_models(self, tmp_path):
        code, out, _ = run("sparsify", "--generate", CP_SPEC,
                           "--epsilon-target", "0.32", "--out", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "sparsify.json")
        assert report["sets"]["bar"] == [4, 8, 12]
        assert report["set_size"] == 3
        assert report["epsilon"]["epsilon_paper"] <= 0.32
        assert "selected 3 agents" in out

    def test_target_required(self, tmp_path):
        code, _, err = run("sparsify", "--generate", CP_SPEC,
                           "--out", str(tmp_path))
        assert code == 1


class TestSimulate:
    def test_zero_seeding(self, tmp_path):
        code, out, _ = run("simulate", "--generate", CP_SPEC,
                           "--out", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "trajectory.json")
        assert report["tail_bound"] <= 1e-10
        assert all(v == 0 for v in report["seeding"]["s_bar"])
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "k,node,x_bar,x_under"
        assert len(lines) == 1 + 12 * (report["horizon"] + 1)

    def test_nash_seeding_fixed_horizon(self, tmp_path):
        code, _, _ = run("simulate", "--generate", CP_SPEC, "--seeding", "nash",
                         "--horizon", "8", "--out", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "trajectory.json")
        assert report["horizon"] == 8
        assert report["seeding"]["s_bar"][3] == pytest.approx(87.0 / 35.0, rel=1e-15)

    def test_restricted_seeding(self, tmp_path):
        code, _, _ = run("simulate", "--generate", CP_SPEC, "--seeding",
                         "restricted", "--sets", "4,8,12", "--out", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "trajectory.json")
        assert report["seeding"]["s_bar"][0] == 0.0
        assert report["seeding"]["s_bar"][3] > 0

    def test_unknown_seeding_exits_one(self, tmp_path):
        code, _, err = run("simulate", "--generate", CP_SPEC, "--seeding", "waves",
                           "--out", str(tmp_path))
        assert code == 1 and "waves" in err

    @pytest.mark.parametrize("flag", ["--tol", "--tail-tol"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1.0"])
    def test_tolerance_that_certifies_nothing_exits_one(self, tmp_path, flag, value):
        code, out, err = run("simulate", "--generate", CP_SPEC, "--seeding", "nash",
                             flag, value, "--out", str(tmp_path))
        assert code == 1
        assert f"{flag} must be positive" in err
        assert out == "" and not (tmp_path / "trajectory.csv").exists()


class TestAsrScan:
    def test_core_periphery_scan(self, tmp_path):
        code, out, _ = run("asr-scan", "--family", "core-periphery:chi=3,g=0.5",
                           "--schedule", "10,31,100", "--out", str(tmp_path))
        assert code == 0
        verdict = read_json(tmp_path / "asr_verdict.json")
        assert verdict["verdict"] == "decreasing-toward-zero"
        assert verdict["schedule"] == [10, 31, 100]
        assert len(verdict["records"]) == 3
        csv_lines = (tmp_path / "asr_scan.csv").read_text().splitlines()
        assert len(csv_lines) == 4
        assert "verdict: decreasing-toward-zero" in out

    def test_top_k_rule(self, tmp_path):
        code, _, _ = run("asr-scan", "--family", "bounded-outdegree:d=2,weight=0.1",
                         "--schedule", "50,100,200", "--rule", "top-k:5",
                         "--out", str(tmp_path))
        assert code == 0
        verdict = read_json(tmp_path / "asr_verdict.json")
        assert verdict["rule"] == "top_k:5"

    def test_bad_rule_exits_one(self, tmp_path):
        code, _, err = run("asr-scan", "--family", "core-periphery:chi=3,g=0.5",
                           "--schedule", "10,31,100", "--rule", "sideways",
                           "--out", str(tmp_path))
        assert code == 1 and "sideways" in err

    @pytest.mark.parametrize("family, rule, message", [
        ("core-periphery:chi=3,g=0.5", ("--rule", "top-k:50"), "top_k size 50 outside 0..30"),
        ("bounded-outdegree:d=2,weight=0.1", (),
         "role_models rule needs a core_periphery family"),
    ])
    def test_rule_that_cannot_give_one_set_size_exits_one(self, tmp_path, family, rule,
                                                          message):
        # a scan's sets keep one size: top_k's k must fit the smallest graph
        # (30 agents here), and role models exist only in core-periphery graphs
        code, _, err = run("asr-scan", "--family", family, "--schedule", "10,31,100",
                           *rule, "--out", str(tmp_path))
        assert (code, err) == (1, f"error: {message}\n")
        assert not (tmp_path / "asr_scan.csv").exists()

    def test_negative_seed_answers(self, tmp_path):
        # its graphs draw from seed + size, so only verify refuses a negative --seed
        code, _, err = run("asr-scan", "--family", "bounded-outdegree:d=2,weight=0.1",
                           "--schedule", "10,20,30", "--rule", "top-k:2", "--seed", "-3",
                           "--out", str(tmp_path))
        assert (code, err) == (0, "")
        assert read_json(tmp_path / "asr_verdict.json")["config"]["seed"] == -3

    def test_bad_schedule_exits_one(self, tmp_path):
        code, _, err = run("asr-scan", "--family", "core-periphery:chi=3,g=0.5",
                           "--schedule", "10,10,100", "--out", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("family", [
        "mystery:chi=3,g=0.5", "core-periphery:chi=3", "core-periphery:chi=3,g=x",
        "core-periphery:chi=3,g=0.5,m=4", "bounded-outdegree:d=2",
    ])
    def test_bad_family_exits_one(self, tmp_path, family):
        code, _, err = run("asr-scan", "--family", family, "--schedule", "10,31,100",
                           "--out", str(tmp_path))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("family", ["mystery:x=1", "core-periphery:chi"],
                             ids=["bad-kind", "bad-entry"])
    def test_market_and_family_precedence(self, tmp_path, family):
        # the market is checked before the family, whatever is wrong with it
        code, _, err = run("asr-scan", "--family", family, "--schedule", "10,31,100",
                           "--alpha", "0.5", "--out", str(tmp_path))
        assert (code, err) == (1, f"error: {ALPHA_BELOW_PRICE}\n")


class TestAssumptionFailures:
    def test_spectral_violation_exits_two(self, tmp_path):
        # --out is made after the bundle's solve admits the graph
        code, _, err = run("nash", "--generate", "core-periphery:chi=3,m=4,g=1.5",
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert "assumption" in err.lower()
        assert not (tmp_path / "out").exists()

    def test_force_writes_diagnostics(self, tmp_path):
        code, _, err = run("nash", "--generate", "core-periphery:chi=3,m=4,g=1.5",
                           "--force", "--out", str(tmp_path))
        assert code == 2
        report = read_json(tmp_path / "validation.json")
        assert report["passed"] is False
        assert report["rho"] == pytest.approx(1.5, abs=1e-9)
        assert report["bound"] <= report["lower"] <= report["rho"] <= report["upper"]
        assert report["margin"] < 0

    @pytest.mark.parametrize("argv", [
        ("centrality", "--generate", HOT),
        ("nash", "--generate", HOT),
        ("epsilon", "--generate", HOT, "--sets", "1"),
        ("sparsify", "--generate", HOT, "--epsilon-target", "0.5"),
        ("simulate", "--generate", HOT),
        ("verify", "--generate", HOT),
        ("asr-scan", "--family", "core-periphery:chi=3,g=1.5", "--schedule", "4,8,16"),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("force", [True, False], ids=["force", "no-force"])
    def test_every_refusal_reports_its_bracket(self, tmp_path, argv, force):
        # rho = 1.5 against the bound 4 / 3: one failure line, and with
        # --force the bracket it was decided on in validation.json
        path = tmp_path / "validation.json"
        code, out, err = run(*argv, *(("--force",) if force else ()), "--out", str(tmp_path))
        assert (code, out) == (2, "")
        failure = ("assumption failure: spectral radius 1.5 in [1.5, 1.5] is not below the "
                   "bound 1.33333333333 (margin -0.166666666667)"
                   + (" at family size 4" if argv[0] == "asr-scan" else "") + "\n")
        if not force:
            assert err == failure and not path.exists()
            return
        assert err == f"assumption failure; diagnostics written to {path}\n" + failure
        report = read_json(path)
        assert list(report)[2:] == ["passed", "rho", "lower", "upper", "bound", "margin"]
        assert report["passed"] is False
        assert report["lower"] <= report["rho"] <= report["upper"]
        assert report["rho"] == pytest.approx(1.5, rel=1e-12)
        assert report["bound"] == pytest.approx(4 / 3, rel=1e-15)
        assert report["margin"] < 0

    def test_alpha_below_price_exits_one(self, tmp_path):
        # a range error of the market, as a bad --beta or --delta is
        code, _, err = run("nash", "--generate", CP_SPEC, "--alpha", "0.5",
                           "--out", str(tmp_path))
        assert (code, err) == (1, f"error: {ALPHA_BELOW_PRICE}\n")


NO_SETS = "provide --sets, or both --sets-bar and --sets-under"
SETS_NEED_RESTRICTED = "--sets, --sets-bar and --sets-under need --seeding restricted"


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=name) for name, argv, message in [
        ("generate-alpha", ("generate", "--generate", CP_SPEC, "--alpha", "0.5"),
         ALPHA_BELOW_PRICE),
        ("centrality-tol", ("centrality", "--generate", CP_SPEC, "--tol", "0"),
         "--tol must be positive, got 0.0"),
        ("nash-alpha", ("nash", "--generate", CP_SPEC, "--alpha", "0.5"), ALPHA_BELOW_PRICE),
        ("nash-alpha-force", ("nash", "--generate", CP_SPEC, "--alpha", "0.5", "--force"),
         ALPHA_BELOW_PRICE),
        ("epsilon-no-sets", ("epsilon", "--generate", CP_SPEC), NO_SETS),
        ("epsilon-no-sets-inadmissible", ("epsilon", "--generate", HOT), NO_SETS),
        ("epsilon-sets-bar-alone", ("epsilon", "--generate", CP_SPEC, "--sets-bar", "4"),
         NO_SETS),
        ("epsilon-sets-and-sets-bar",
         ("epsilon", "--generate", CP_SPEC, "--sets", "4", "--sets-bar", "8"),
         "--sets is exclusive with --sets-bar/--sets-under"),
        *[(f"sparsify-target-{value}",
           ("sparsify", "--generate", CP_SPEC, "--epsilon-target", value),
           f"epsilon_target must be a nonnegative real, got {float(value)}")
          for value in ("nan", "inf", "-0.5")],
        *[(f"simulate-{name}", ("simulate", "--generate", CP_SPEC, *argv), message)
          for name, argv, message in [
              ("horizon-0", ("--horizon", "0"), "horizon must lie in [1, 10000000], got 0"),
              ("horizon-above-cap", ("--horizon", "10000001"),
               "horizon must lie in [1, 10000000], got 10000001"),
              ("unknown-seeding", ("--seeding", "waves"),
               "unknown --seeding 'waves' (expected zero, nash, or restricted)"),
              ("nash-sets", ("--seeding", "nash", "--sets", "4,8,12"), SETS_NEED_RESTRICTED),
              ("sets-bar-alone", ("--sets-bar", "4"), SETS_NEED_RESTRICTED),
              ("restricted-no-sets", ("--seeding", "restricted"), NO_SETS),
              ("restricted-sets-under-alone",
               ("--seeding", "restricted", "--sets-under", "4"), NO_SETS),
              ("restricted-sets-and-sets-bar",
               ("--seeding", "restricted", "--sets", "4", "--sets-bar", "8"),
               "--sets is exclusive with --sets-bar/--sets-under"),
          ]],
        ("asr-scan-alpha", ("asr-scan", "--family", "core-periphery:chi=3,g=0.5",
                            "--schedule", "10,31,100", "--alpha", "0.5"), ALPHA_BELOW_PRICE),
        ("asr-scan-schedule", ("asr-scan", "--family", "core-periphery:chi=3,g=0.5",
                               "--schedule", "10,x,100"), "bad --schedule '10,x,100'"),
        ("verify-samples-0", ("verify", "--generate", CP_SPEC, "--samples", "0"),
         "--samples must be at least 1, got 0"),
        ("verify-seed-negative", ("verify", "--seed", "-1"), "--seed must be at least 0, got -1"),
    ]
])
def test_bad_flag_refused_before_any_work(tmp_path, monkeypatch, argv, message):
    # one exit-1 line, and no graph loaded or made, no solve and no --out
    def work(*args, **kwargs):
        raise AssertionError("a graph was loaded or made before the refusal")
    for name in ("_load_graph", "_generated", "_verify_graphs"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setattr(cli.FamilySpec, "build", work)
    out_dir = tmp_path / "out"
    code, out, err = run(*argv, "--out", str(out_dir))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not out_dir.exists()


def write_cycle(path, weights):
    """Directed cycle in which agent i listens to agent i % n + 1."""
    n = len(weights)
    lines = [f"n={n}"] + [f"{i} {i % n + 1} {float(w)!r}"
                          for i, w in enumerate(weights, start=1)]
    path.write_text("\n".join(lines) + "\n")
    return path


def weighted_cycle(n, low, high, seed):
    return low + (high - low) * np.random.default_rng(seed).random(n)


def consumption_by_spsolve(graph, params, seeding):
    """Discounted sums (y_bar, y_under) from one sparse solve of the 2n system
    (I - delta M) y = r 1 + delta M s, M = [[G, beta G], [beta G, G]],
    r = delta (alpha - price) / (1 - delta)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    m = sp.kron(np.array([[1.0, params.beta], [params.beta, 1.0]]), graph.matrix,
                format="csc")
    r = params.delta * (params.alpha - params.price) / (1.0 - params.delta)
    s = np.concatenate([seeding.s_bar, seeding.s_under])
    y = spla.spsolve(sp.identity(2 * graph.n, format="csc") - params.delta * m,
                     r + params.delta * (m @ s))
    return y[:graph.n], y[graph.n:]


class TestWeightedCycles:
    """Admissible weighted cycles, on which the power iteration does not
    converge in its budget, answer: the Katz solve certifies them."""

    CYCLES = {"cycle200": (200, 0.5, 1.1, 0),     # rho ~ 0.80
              "cycle3000": (3000, 0.3, 0.9, 200)}  # rho ~ 0.57

    @pytest.fixture(params=sorted(CYCLES))
    def cycle(self, request, tmp_path):
        return write_cycle(tmp_path / "cycle.edges", weighted_cycle(*self.CYCLES[request.param]))

    def test_centrality_matches_spsolve(self, cycle, tmp_path):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        code, _, err = run("centrality", "--graph", str(cycle), "--out", str(tmp_path))
        assert code == 0, err
        report = read_json(tmp_path / "centrality.json")
        transpose = load_edge_list(cycle).matrix.T.tocsc()
        for key, att in zip("ab", report["attenuations"]):
            system = sp.identity(transpose.shape[0], format="csc") - att * transpose
            direct = spla.spsolve(system, np.ones(transpose.shape[0]))
            assert np.allclose(report[key], direct, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("argv", [
        ("nash",), ("epsilon", "--sets", "1,2"), ("sparsify", "--epsilon-target", "0.5"),
    ])
    def test_commands_answer(self, cycle, tmp_path, argv):
        code, _, err = run(*argv, "--graph", str(cycle), "--out", str(tmp_path))
        assert code == 0, err

    @pytest.mark.parametrize("entry", ["simulate", "DiscountedSolver",
                                       "discounted_consumption"])
    def test_library_calls_answer_on_a_fresh_graph(self, cycle, entry):
        graph = load_edge_list(cycle)  # no centrality solve has run on it
        seeding = SeedingPair(np.linspace(0.0, 1.0, graph.n), np.full(graph.n, 0.5))
        slack = 0.0
        if entry == "simulate":
            trajectory = simulate(graph, MARKET, seeding)
            sums = (trajectory.discounted_bar, trajectory.discounted_under)
            slack = trajectory.tail_bound
        elif entry == "DiscountedSolver":
            sums = DiscountedSolver(graph, MARKET).consumption(seeding)
        else:
            sums = discounted_consumption(graph, MARKET, seeding)
        for got, want in zip(sums, consumption_by_spsolve(graph, MARKET, seeding)):
            assert np.allclose(got, want, rtol=1e-8, atol=slack)


class TestRefusals:
    """Inadmissible graphs, and admissible graphs the program cannot answer
    yet, get a typed refusal (exit 2, one error line), not a traceback."""

    def test_overflow_prints_only_the_error_line(self, tmp_path):
        # the near-critical 2-cycle, c * rho = 0.999: its states overflow
        two = tmp_path / "two.edges"
        two.write_text(f"n=2\n1 2 {0.999 / 0.75!r}\n2 1 {0.999 / 0.75!r}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run("simulate", "--graph", str(two), "--seeding", "nash",
                               "--out", str(tmp_path))
        assert code == 2
        assert err == "error: consumption overflows within horizon 36133\n"

    @pytest.mark.parametrize("error,line", [
        (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000001,) "
                     "and data type int64"),
         "error: Unable to allocate 745. GiB for an array with shape (100000000001,) "
         "and data type int64\n"),
        (MemoryError(), "error: out of memory\n")], ids=["numpy", "bare"])
    def test_a_failed_allocation_is_one_error_line(self, tmp_path, monkeypatch, error, line):
        # the header n=100000000000 fails in the loader's CSR build; the
        # loader is patched to raise, since on a machine that overcommits a
        # real allocation may be granted and the process killed later
        path = tmp_path / "huge.edges"
        path.write_text("n=100000000000\n1 2 0.5\n")

        def load(_):
            raise error

        monkeypatch.setattr(cli, "load_edge_list", load)
        code, out, err = run("centrality", "--graph", str(path), "--out", str(tmp_path))
        assert (code, out, err) == (1, "", line)

    def test_uncertified_tail_exits_two(self, tmp_path):
        dag = tmp_path / "dag.edges"  # rho = 0
        dag.write_text("n=3\n1 2 1.0\n1 3 1.0\n")
        code, _, err = run("simulate", "--graph", str(dag), "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(TestWeightedCycles.CYCLES))
    def test_inadmissible_cycle_is_an_assumption_failure(self, tmp_path, name):
        # the cycles above scaled to delta * (1 + beta) * rho = 1.2: the power
        # iteration is far from converged when its bracket's lower end passes
        # the bound, and refuses there
        weights = weighted_cycle(*TestWeightedCycles.CYCLES[name])
        weights *= 1.2 / (0.75 * np.exp(np.log(weights).mean()))
        cycle = write_cycle(tmp_path / "cycle.edges", weights)
        code, _, err = run("centrality", "--graph", str(cycle), "--force",
                           "--out", str(tmp_path))
        assert code == 2
        assert any(line.startswith("assumption failure: ") for line in err.splitlines())
        report = read_json(tmp_path / "validation.json")
        assert report["passed"] is False
        lower, upper = report["lower"], report["upper"]
        assert 4 / 3 <= lower == report["rho"]
        assert lower <= 1.6 <= upper and report["margin"] < 0

    @pytest.mark.parametrize("name, steps", [("cycle200", 100), ("cycle3000", 1000)])
    def test_a_refusal_stops_once_the_bracket_decides(self, name, steps):
        # the same cycles: with a budget of steps (90 and 925 needed) the
        # bracket's lower end passes the bound, where spectral_radius takes
        # more than 100,000 steps to close the bracket to 2e-10
        weights = weighted_cycle(*TestWeightedCycles.CYCLES[name])
        weights *= 1.2 / (0.75 * np.exp(np.log(weights).mean()))
        graph = WeightedDigraph(weights.size, [(i + 1, (i + 1) % weights.size + 1, float(w))
                                               for i, w in enumerate(weights)])
        rho, lower, upper = graph_mod._power_iteration(graph, 1e-10, 1 / 0.75, max_iter=steps)
        assert 1 / 0.75 <= rho == lower <= 1.6 <= upper

    @pytest.mark.parametrize("entry", [
        lambda g: katz_bonacich(g, 0.75),
        lambda g: biproduct_centrality(g, MARKET),
    ], ids=["katz_bonacich", "biproduct_centrality"])
    def test_a_straddling_bracket_is_a_power_iteration_error(self, entry):
        # the 200-cycle at delta * (1 + beta) * rho = 1 - 1e-7: the Katz solve
        # does not certify it, and the bracket left by the step budget holds 1 / 0.75
        weights = weighted_cycle(*TestWeightedCycles.CYCLES["cycle200"])
        weights *= (1 - 1e-7) / (0.75 * np.exp(np.log(weights).mean()))
        graph = WeightedDigraph(200, [(i + 1, (i + 1) % 200 + 1, float(w))
                                      for i, w in enumerate(weights)])
        with pytest.raises(PowerIterationError) as info:
            entry(graph)
        assert info.value.lower < 1 / 0.75 < info.value.upper

    def test_katz_on_an_inadmissible_cycle_is_an_assumption_failure(self):
        # the power iteration stops once its bracket's lower end passes 1 / 0.75
        weights = weighted_cycle(*TestWeightedCycles.CYCLES["cycle200"])
        weights *= 1.2 / (0.75 * np.exp(np.log(weights).mean()))
        graph = WeightedDigraph(200, [(i + 1, (i + 1) % 200 + 1, float(w))
                                      for i, w in enumerate(weights)])
        with pytest.raises(AssumptionError) as info:
            katz_bonacich(graph, 0.75)
        report = info.value.report
        assert str(info.value) == report.summary()
        assert report.bound == info.value.bound == 1 / 0.75 and not report.passed
        lower, upper = report.lower, report.upper
        assert 4 / 3 <= lower == info.value.rho
        assert lower <= 1.6 <= upper


class TestNearCritical:
    """12-cycle at delta * (1 + beta) * rho = 0.9999, where payoffs near 1e8
    rule out an absolute 1e-10 residual on the full consumption solve."""

    WEIGHT = 0.9999 / 0.75

    @pytest.fixture
    def cycle(self, tmp_path):
        return write_cycle(tmp_path / "cycle.edges", [self.WEIGHT] * 12)

    @pytest.mark.parametrize("argv", [
        ("nash",), ("epsilon", "--sets", "1,2"), ("sparsify", "--epsilon-target", "0.5"),
    ])
    def test_commands_answer(self, cycle, tmp_path, argv):
        code, _, err = run(*argv, "--graph", str(cycle), "--out", str(tmp_path))
        assert code == 0, err

    def test_nash_payoff_matches_cycle_closed_form(self, cycle, tmp_path):
        run("nash", "--graph", str(cycle), "--out", str(tmp_path))
        report = read_json(tmp_path / "equilibrium.json")
        n, alpha, p, beta, delta = 12, 2.0, 1.0, 0.5, 0.5
        a = 1.0 / (1.0 - delta * (1.0 - beta) * self.WEIGHT)
        b = 1.0 / (1.0 - delta * (1.0 + beta) * self.WEIGHT)
        c, x = (a + b) / 2, (b - a) / 2
        r = delta * (alpha - p) / (1.0 - delta)
        net = n * (p * r * b + p ** 2 * c ** 2 / 2 + p ** 2 * c * x)
        for firm in ("firm_a", "firm_b"):
            assert report["utilities"][firm]["net"] == pytest.approx(net, rel=1e-9)


class TestCallCounts:
    """Each graph command validates once, by the certificate of its one
    centrality bundle (no spectral radius), and prices payoffs without the
    full-solve oracle."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from seedgame import DiscountedSolver, biproduct_centrality
        tally = collections.Counter()

        def counting(name, func):
            def wrapper(*args, **kwargs):
                tally[name] += 1
                return func(*args, **kwargs)
            return wrapper

        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "seedgame"]
        for name, func in (("validate", graph_mod._power_iteration),
                           ("spectral_radius", graph_mod.spectral_radius),
                           ("bundle", biproduct_centrality)):
            wrapper = counting(name, func)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        monkeypatch.setattr(module, key, wrapper)
        monkeypatch.setattr(DiscountedSolver, "__init__",
                            counting("solver", DiscountedSolver.__init__))
        return tally

    @pytest.mark.parametrize("argv", [
        ("centrality",), ("nash",), ("epsilon", "--sets", "4,8,12"),
        ("sparsify", "--epsilon-target", "0.32"),
    ])
    def test_one_validation_one_bundle_no_solver(self, counts, tmp_path, argv):
        code, _, _ = run(*argv, "--generate", CP_SPEC, "--out", str(tmp_path))
        assert code == 0
        assert (counts["spectral_radius"], counts["bundle"], counts["solver"]) == (0, 1, 0)

    @pytest.mark.parametrize("argv", [
        ("simulate", "--seeding", "nash"), ("verify", "--samples", "200"),
    ])
    def test_no_spectral_radius(self, counts, tmp_path, argv):
        code, _, _ = run(*argv, "--generate", CP_SPEC, "--out", str(tmp_path))
        assert code == 0
        assert counts["spectral_radius"] == 0

    def test_simulate_validates_at_most_twice(self, counts, tmp_path):
        code, _, _ = run("simulate", "--generate", CP_SPEC, "--seeding", "nash",
                         "--out", str(tmp_path))
        assert code == 0
        assert counts["validate"] <= 2

    @staticmethod
    def power_iterations_per_tol(monkeypatch, tmp_path, *argv) -> list[int]:
        """_power_iteration calls of one command at --tol 1e-10 and 1e-6."""
        calls = []
        power_iteration = graph_mod._power_iteration
        monkeypatch.setattr(graph_mod, "_power_iteration",
                            lambda *args: calls.append(1) or power_iteration(*args))
        counts = []
        for tol in ("1e-10", "1e-6"):
            calls.clear()
            code, _, _ = run(*argv, "--generate", "bounded-outdegree:n=300,d=3,weight=0.2",
                             "--tol", tol, "--out", str(tmp_path / tol))
            assert code == 0
            counts.append(len(calls))
        return counts

    def test_spectral_radius_is_not_recomputed_at_a_loose_tol(self, tmp_path,
                                                               monkeypatch):
        counts = self.power_iterations_per_tol(monkeypatch, tmp_path, "centrality")
        assert counts[0] == counts[1]

    def test_simulate_validates_at_the_callers_tol(self, tmp_path, monkeypatch):
        counts = self.power_iterations_per_tol(monkeypatch, tmp_path,
                                               "simulate", "--seeding", "nash")
        assert counts[0] == counts[1]

    def test_verify_runs_one_walk_series_per_attenuation(self, tmp_path, monkeypatch):
        import seedgame.centrality as centrality
        calls = []
        walk_series = centrality._walk_series
        monkeypatch.setattr(centrality, "_walk_series", lambda graph, attenuation, *rest:
                            calls.append(attenuation) or walk_series(graph, attenuation, *rest))
        code, _, _ = run("verify", "--generate", "core-periphery:chi=10,m=30,g=0.5",
                         "--samples", "200", "--out", str(tmp_path))
        assert code == 0
        assert calls == [0.25, 0.75]

    def test_verify_prices_the_gradient_in_blocks(self, tmp_path, monkeypatch):
        from seedgame import DiscountedSolver
        calls = []
        gross_revenues = DiscountedSolver.gross_revenues
        monkeypatch.setattr(DiscountedSolver, "gross_revenues", lambda self, seeding:
                            calls.append(seeding) or gross_revenues(self, seeding))
        code, _, _ = run("verify", "--generate", "core-periphery:chi=10,m=30,g=0.5",
                         "--samples", "200", "--out", str(tmp_path))
        assert code == 0
        # the one single-seeding solve prices the deviation check's Nash
        # reference; the 600 bumped seedings of the gradient go in blocks
        assert len(calls) == 1

    def test_verify_builds_one_solver_per_graph(self, counts, tmp_path):
        code, _, _ = run("verify", "--generate", CP_SPEC, "--samples", "200",
                         "--out", str(tmp_path))
        assert code == 0
        assert counts["solver"] == 1


class TestVerify:
    def test_default_suite_passes(self, tmp_path):
        code, out, _ = run("verify", "--samples", "300", "--out", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "verify.json")
        assert report["passed"] is True
        graphs = {c["graph"] for c in report["checks"]}
        assert graphs == {"two-agent-chain", "core-periphery-3x4",
                          "bounded-outdegree-30", "isolated-3"}
        assert "all checks passed" in out

    def test_explicit_graph(self, tmp_path):
        run("generate", "--generate", CP_SPEC, "--out", str(tmp_path))
        code, _, _ = run("verify", "--graph", str(tmp_path / "graph.edges"),
                         "--samples", "200", "--out", str(tmp_path / "v"))
        assert code == 0

    @pytest.mark.parametrize("spec", [
        CP_SPEC, "CORE-PERIPHERY:chi=3,m=4,g=0.5", " core-periphery:chi=3,m=4,g=0.5",
    ])
    def test_generated_core_periphery_gets_closed_form_check(self, tmp_path, spec):
        code, _, _ = run("verify", "--generate", spec, "--samples", "200",
                         "--out", str(tmp_path))
        assert code == 0
        checks = {c["check"]: c["passed"]
                  for c in read_json(tmp_path / "verify.json")["checks"]}
        assert len(checks) == 6
        assert checks["analytic_core_periphery_matches_solve"] is True

    def test_benchmark_spec_prints_its_pinned_lines(self, tmp_path):
        # the fixed suite's verify-cp30 entry, byte for byte
        code, out, err = run("verify", "--generate", "core-periphery:chi=10,m=30,g=0.5",
                             "--samples", "2000", "--seed", "101", "--out", str(tmp_path))
        assert (code, err) == (0, "")
        assert out == (
            "PASS  input: simulation_matches_closed_form "
            "(max gap 5.821e-11, tail bound 5.821e-11)\n"
            "PASS  input: gradient_matches_finite_differences "
            "(worst relative gap 2.785e-09 at h=0.0001)\n"
            "PASS  input: nash_deviations_never_gain "
            "(best sampled gain -5.345e+02 over 2000 deviations)\n"
            "PASS  input: centrality_matches_walk_series (max gap 1.126e-12)\n"
            "PASS  input: edge_list_round_trip (300 edges)\n"
            "PASS  input: analytic_core_periphery_matches_solve "
            "(worst relative gap 0.000e+00)\n"
            "all checks passed (6/6)\n")

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_needs_at_least_one_sample(self, tmp_path, samples):
        code, out, err = run("verify", "--samples", samples, "--out", str(tmp_path))
        assert code == 1
        assert f"--samples must be at least 1, got {samples}" in err
        assert out == "" and not (tmp_path / "verify.json").exists()

    def test_nan_tail_tol_exits_one(self, tmp_path):
        code, out, err = run("verify", "--tail-tol", "nan", "--out", str(tmp_path))
        assert code == 1 and "--tail-tol must be positive" in err
        assert out == ""

    def test_failure_exits_three(self, tmp_path, monkeypatch):
        import seedgame.cli as cli_mod
        monkeypatch.setattr(cli_mod, "nash_deviation_check",
                            lambda *a, **k: 1.0)
        code, _, err = run("verify", "--samples", "200", "--out", str(tmp_path))
        assert code == 3
        assert read_json(tmp_path / "verify.json")["passed"] is False


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        args = ("nash", "--generate", CP_SPEC, "--out", str(tmp_path))
        run(*args)
        first = (tmp_path / "equilibrium.json").read_bytes()
        run(*args)
        assert (tmp_path / "equilibrium.json").read_bytes() == first

    def test_full_precision_round_trip(self, tmp_path):
        run("centrality", "--generate", CP_SPEC, "--out", str(tmp_path))
        report = read_json(tmp_path / "centrality.json")
        assert report["a"][3] == 11.0 / 7.0  # 17 significant digits survive json


class TestParser:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as info:
            run("--version")
        assert info.value.code == 0

    def test_unknown_command_exits_one(self):
        code, _, err = run("explode")
        assert code == 1

    @pytest.mark.parametrize("argv, flags", [
        (("generate",), "--generate"),
        (("asr-scan",), "--family, --schedule"),
        (("asr-scan", "--family", "core-periphery:chi=3,g=0.5"), "--schedule"),
    ])
    def test_a_missing_required_flag_exits_one(self, tmp_path, argv, flags):
        code, out, err = run(*argv, "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"error: the following arguments are required: {flags}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flags, report", [
        ("generate", {"generate": CP_SPEC}, "generate.json"),
        ("centrality", {"generate": CP_SPEC}, "centrality.json"),
        ("nash", {"generate": CP_SPEC}, "equilibrium.json"),
        ("epsilon", {"generate": CP_SPEC, "sets": "4,8,12"}, "equilibrium.json"),
        ("sparsify", {"generate": CP_SPEC, "epsilon_target": 0.32}, "sparsify.json"),
        ("simulate", {"generate": CP_SPEC}, "trajectory.json"),
        ("asr-scan", {"family": "core-periphery:chi=3,g=0.5", "schedule": "10,31,100"},
         "asr_verdict.json"),
        ("verify", {}, "verify.json"),
    ])
    def test_every_default_is_run_config_s(self, tmp_path, monkeypatch, command, flags,
                                           report):
        # each command with only the flags it needs, run where it writes
        monkeypatch.chdir(tmp_path)
        argv = [command]
        for field, value in flags.items():
            argv += ["--" + field.replace("_", "-"), str(value)]
        code, _, err = run(*argv)
        assert (code, err) == (0, "")
        expected = RunConfig(command=command, **flags)
        assert read_json(tmp_path / report)["config"] == dataclasses.asdict(expected)

    def test_the_parser_holds_no_default(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        defaults = {(command, action.dest): action.default
                    for command, parser in subparsers.items()
                    for action in parser._actions
                    if action.default is not argparse.SUPPRESS}
        assert defaults == {}

    def test_main_reuses_one_parser(self):
        assert cli._main_parser() is cli._main_parser()
        assert build_parser() is not build_parser()

    def test_consecutive_calls_share_no_values(self, tmp_path):
        code, _, _ = run("epsilon", "--generate", CP_SPEC, "--sets", "4,8,12",
                         "--alpha", "3.0", "--seed", "5", "--out", str(tmp_path / "eps"))
        assert code == 0
        code, _, _ = run("nash", "--generate", CP_SPEC, "--out", str(tmp_path / "nash"))
        assert code == 0
        config = read_json(tmp_path / "nash" / "equilibrium.json")["config"]
        assert config["command"] == "nash"
        assert (config["sets"], config["alpha"], config["seed"]) == (None, 2.0, 0)
        # a --sets left over from the epsilon call would let this run
        code, _, err = run("simulate", "--generate", CP_SPEC, "--seeding", "restricted",
                           "--out", str(tmp_path / "sim"))
        assert code == 1 and "provide --sets" in err
        code, _, _ = run("epsilon", "--generate", CP_SPEC, "--sets-bar", "4",
                         "--sets-under", "8", "--out", str(tmp_path / "eps2"))
        assert code == 0
        config = read_json(tmp_path / "eps2" / "equilibrium.json")["config"]
        assert (config["sets"], config["sets_bar"], config["sets_under"]) == (None, "4", "8")


def _module_imports(path):
    """The names a module's top-level import statements bind (``__future__``
    features left out), and the module's syntax tree."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names, tree


class TestImports:
    PACKAGE = Path(cli.__file__).parent

    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                              if p.name != "__init__.py"))
    def test_every_imported_name_is_used(self, module):
        names, tree = _module_imports(self.PACKAGE / module)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert names - used == set()

    def test_all_is_what_the_package_imports(self):
        import seedgame
        names, _ = _module_imports(self.PACKAGE / "__init__.py")
        assert len(set(seedgame.__all__)) == len(seedgame.__all__)
        assert set(seedgame.__all__) == names | {"__version__"}
        for name in seedgame.__all__:
            assert hasattr(seedgame, name), name

    def test_cli_import_leaves_out_the_lu_and_component_modules(self):
        # scipy.sparse.linalg (the LU fallback) and scipy.sparse.csgraph (a
        # refusal's spectral radius) load when a command first needs them;
        # the report writer's tables of powers of ten are built on first use
        import seedgame
        probe = ("import sys, seedgame.cli; print(sorted(m for m in "
                 "('scipy.sparse.linalg', 'scipy.sparse.csgraph', 'fractions') "
                 "if m in sys.modules), [f.cache_info().currsize for f in "
                 "(seedgame.reportio._pow10, seedgame.reportio._layouts)])")
        env = {**os.environ, "PYTHONPATH": str(Path(seedgame.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[] [0, 0]"
