import numpy as np
import pytest

from seedgame import (AssumptionError, CorePeripheryParams, FamilySpec,
                      SeedSet, analytic_core_periphery, biproduct_centrality,
                      check_necessary_condition,
                      generate_bounded_outdegree_family,
                      generate_core_periphery, scan_family, sparsity_residual,
                      write_scan_csv)

from conftest import MARKET

# frozen: role-model residual on core-periphery(3, 4, 0.5) is 1225/3748
CP_ROLE_RESIDUAL = 0.3268409818569904


class TestSparsityResidual:
    def test_frozen_value(self, cp_graph, cp_params):
        bundle = biproduct_centrality(cp_graph, MARKET)
        role = SeedSet.of(cp_params.role_models(), 12)
        assert sparsity_residual(bundle, role) == pytest.approx(
            CP_ROLE_RESIDUAL, rel=1e-12)

    def test_extremes(self, cp_graph):
        bundle = biproduct_centrality(cp_graph, MARKET)
        assert sparsity_residual(bundle, SeedSet.empty(12)) == 1.0
        assert sparsity_residual(bundle, SeedSet.full(12)) == 0.0

    def test_monotone_in_set(self, cp_graph):
        bundle = biproduct_centrality(cp_graph, MARKET)
        values = [sparsity_residual(bundle, SeedSet.of(range(1, k + 1), 12))
                  for k in range(1, 13)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestAnalyticCorePeriphery:
    def test_frozen_values(self, cp_params):
        closed = analytic_core_periphery(cp_params, MARKET)
        assert closed.a_periphery == 1.0
        assert closed.b_periphery == 1.0
        assert closed.a_role == pytest.approx(11.0 / 7.0, rel=1e-15)
        assert closed.b_role == pytest.approx(3.4, rel=1e-15)
        assert closed.c_role == pytest.approx(87.0 / 35.0, rel=1e-15)
        assert closed.s_star_role == pytest.approx(87.0 / 35.0, rel=1e-15)
        assert closed.s_star_periphery == 1.0
        assert closed.c_periphery == 1.0

    def test_matches_numeric_solve_grid(self):
        for chi in (2, 3, 5):
            for m in (2, 4, 10):
                for g in (0.1, 0.5):
                    params = CorePeripheryParams(chi=chi, m=m, g=g)
                    closed = analytic_core_periphery(params, MARKET)
                    bundle = biproduct_centrality(
                        generate_core_periphery(params), MARKET)
                    role = np.asarray(params.role_models()) - 1
                    assert np.allclose(bundle.a[role], closed.a_role, rtol=1e-10)
                    assert np.allclose(bundle.b[role], closed.b_role, rtol=1e-10)
                    assert np.allclose(bundle.c_new[role], closed.c_role, rtol=1e-10)

    def test_role_value_affine_in_community_size(self):
        # c_role(m) has exact slope (q/(1-q) + r/(1-r)) / 2 in m
        g = 0.5
        q = 0.5 * 0.5 * g
        r = 0.5 * 1.5 * g
        slope = 0.5 * (q / (1 - q) + r / (1 - r))
        values = {m: analytic_core_periphery(
            CorePeripheryParams(chi=3, m=m, g=g), MARKET).c_role
            for m in (2, 3, 7, 20)}
        for m1, m2 in ((2, 3), (3, 7), (7, 20)):
            observed = (values[m2] - values[m1]) / (m2 - m1)
            assert observed == pytest.approx(slope, rel=1e-12)

    def test_refuses_explosive_attenuation(self):
        # delta (1 + beta) g = 0.75 * 1.5 >= 1
        with pytest.raises(AssumptionError):
            analytic_core_periphery(CorePeripheryParams(chi=3, m=4, g=1.5), MARKET)


class TestFamilySpec:
    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            FamilySpec(kind="core_periphery", schedule=(4, 4, 10), market=MARKET)
        with pytest.raises(ValueError):
            FamilySpec(kind="core_periphery", schedule=(4, 10), market=MARKET)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FamilySpec(kind="mystery", schedule=(1, 2, 3), market=MARKET)

    def test_build_core_periphery(self):
        spec = FamilySpec(kind="core_periphery", schedule=(2, 4, 8),
                          market=MARKET, chi=3, g=0.5)
        assert spec.build(4).n == 12

    def test_build_bounded_outdegree_varies_with_size(self):
        spec = FamilySpec(kind="bounded_outdegree", schedule=(10, 20, 40),
                          market=MARKET, d=2, weight=0.1, seed=5)
        g10, g20 = spec.build(10), spec.build(20)
        assert g10.n == 10 and g20.n == 20
        assert spec.build(10) == g10  # deterministic per size


class TestScanFamily:
    def test_core_periphery_role_models_decreasing(self):
        spec = FamilySpec(kind="core_periphery", schedule=(10, 100, 1000),
                          market=MARKET, chi=3, g=0.5)
        result = scan_family(spec, rule="role_models")
        eps = [r.epsilon_paper for r in result.records]
        assert eps[0] == pytest.approx(0.2977717758271438, abs=1e-12)
        assert eps[1] == pytest.approx(0.06450025927748008, abs=1e-12)
        assert eps[0] > eps[1] > eps[2]
        assert result.verdict == "decreasing-toward-zero"
        assert result.decay_exponent <= -0.5
        assert all(r.set_size_bar == 3 for r in result.records)

    def test_top_k_rule(self):
        spec = FamilySpec(kind="core_periphery", schedule=(4, 8, 16),
                          market=MARKET, chi=3, g=0.5)
        result = scan_family(spec, rule=("top_k", 3))
        assert result.rule == "top_k:3"
        # the 3 highest-centrality agents are exactly the role models
        role_result = scan_family(spec, rule="role_models")
        for a, b in zip(result.records, role_result.records):
            assert a.residual_bar == pytest.approx(b.residual_bar, rel=1e-12)

    def test_bounded_outdegree_never_sparse(self):
        spec = FamilySpec(kind="bounded_outdegree", schedule=(50, 100, 200),
                          market=MARKET, d=2, weight=0.1, seed=3)
        result = scan_family(spec, rule=("top_k", 5))
        residuals = [r.residual_bar for r in result.records]
        assert all(b > a for a, b in zip(residuals, residuals[1:]))
        assert result.verdict in ("bounded-away", "inconclusive")

    def test_assumption_failure_names_size(self):
        spec = FamilySpec(kind="core_periphery", schedule=(2, 4, 8),
                          market=MARKET, chi=3, g=1.5)
        with pytest.raises(AssumptionError, match="size 2"):
            scan_family(spec)

    @pytest.mark.parametrize("kind, rule, message", [
        ("bounded_outdegree", "role_models", "role_models rule needs a core_periphery family"),
        ("core_periphery", ("top_k", 13), "top_k size 13 outside 0..12"),
        ("core_periphery", ("top_k", -1), "top_k size -1 outside 0..12"),
        ("bounded_outdegree", ("top_k", 5), "top_k size 5 outside 0..4"),
        ("core_periphery", ("bottom_k", 1), "unknown seeding rule"),
    ])
    def test_rule_refused_before_any_graph_is_built(self, monkeypatch, kind, rule, message):
        # n = chi * m = 3 * 4, or the size itself, at the first size
        def build(self, size):
            raise AssertionError(f"built size {size}")

        monkeypatch.setattr(FamilySpec, "build", build)
        spec = FamilySpec(kind=kind, schedule=(4, 400000, 800000), market=MARKET, chi=3, d=2)
        with pytest.raises(ValueError, match=f"^{message}"):
            scan_family(spec, rule=rule)

    def test_top_k_of_the_first_size_scans(self):
        spec = FamilySpec(kind="bounded_outdegree", schedule=(5, 10, 20), market=MARKET, d=2)
        assert [r.set_size_bar for r in scan_family(spec, rule=("top_k", 5)).records] == [5] * 3


class TestScanCsv:
    def test_layout(self, tmp_path):
        spec = FamilySpec(kind="core_periphery", schedule=(4, 10, 20),
                          market=MARKET, chi=3, g=0.5)
        result = scan_family(spec)
        path = tmp_path / "scan.csv"
        write_scan_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("size,n,set_size,residual_bar,residual_under,"
                            "epsilon_paper,epsilon_exact_a,epsilon_exact_b")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "4" and first[1] == "12" and first[2] == "3"
        assert float(first[5]) == result.records[0].epsilon_paper

    def test_none_fields_render_empty(self, tmp_path):
        from seedgame.asr import ASRScanResult, ScanRecord
        record = ScanRecord(size=4, n=12, set_size_bar=3, set_size_under=3,
                            residual_bar=0.5, residual_under=0.5,
                            epsilon_paper=0.1, epsilon_exact_a=None,
                            epsilon_exact_b=None)
        result = ASRScanResult(records=(record,), verdict="inconclusive",
                               decay_exponent=float("nan"), rule="role_models")
        path = tmp_path / "scan.csv"
        write_scan_csv(result, path)
        assert path.read_text().splitlines()[1].endswith(",,")


class TestNecessaryCondition:
    def test_bounded_outdegree_blocks(self):
        graph = generate_bounded_outdegree_family(300, 2, 0.1, seed=1)
        report = check_necessary_condition(graph, MARKET)
        assert report.threshold == pytest.approx(1 / 0.75)
        assert report.d_max_out <= 0.2 + 1e-12
        assert report.blocks_sparse_seeding
        assert report.lower_bounds_hold
        assert report.upper_bounds_hold
        assert report.upper_bound is not None

    def test_core_periphery_not_blocked(self, cp_graph):
        # role models reach weighted out-degree m * g = 2, past the threshold
        report = check_necessary_condition(cp_graph, MARKET)
        assert not report.blocks_sparse_seeding
        assert report.upper_bound is None
        assert report.lower_bounds_hold  # the lower bound holds regardless

    def test_lower_bound_formula(self, two_node):
        bundle = biproduct_centrality(two_node, MARKET)
        lower = 1 + 0.5 * 0.5 * two_node.out_degrees
        assert np.all(bundle.c_new >= lower - 1e-12)
