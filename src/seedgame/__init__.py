"""Two-firm product seeding on weighted influence networks.

Agents consume under linear best responses with complementarity from
in-neighbors; firms compete once, up front, by giving the product away.
The package exposes the graph model, the discounted-walk centralities that
price the equilibrium, the dynamics with certified truncation error, the
seeding game itself, and scans that measure how well a few central agents
approximate the full equilibrium.
"""

from .asr import (ASRScanResult, CorePeripheryAnalytics, FamilySpec,
                  NecessaryConditionReport, ScanRecord, analytic_core_periphery,
                  check_necessary_condition, scan_family, sparsity_residual,
                  write_scan_csv)
from .centrality import (CentralityBundle, SolverError, biproduct_centrality,
                         katz_bonacich, neumann_oracle, neumann_tail_bound)
from .dynamics import (ConsumptionOverflowError, NegativeStateError,
                       SeedingPair, TailCertificationError, Trajectory, auto_horizon,
                       simulate, write_trajectory_csv)
from .game import (DiscountedSolver, EpsilonReport, SeedSet, UtilityBreakdown,
                   best_response_gain, discounted_consumption,
                   epsilon_for_sets, firm_utility, nash_deviation_check,
                   nash_seeding, restricted_nash_seeding, sparsify,
                   utility_gradient)
from .graph import (AssumptionError, CorePeripheryParams, DuplicateEdgeError,
                    EdgeListError, GraphError, MalformedLineError,
                    MarketParams, NegativeWeightError, PowerIterationError,
                    SelfLoopError, ValidationReport, WeightedDigraph,
                    generate_bounded_outdegree_family, generate_core_periphery,
                    load_edge_list, save_edge_list, spectral_radius,
                    validate_assumptions)
from .reportio import dumps_report, format_real, write_report

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graph
    "WeightedDigraph", "MarketParams", "CorePeripheryParams",
    "GraphError", "EdgeListError", "MalformedLineError", "DuplicateEdgeError",
    "NegativeWeightError", "SelfLoopError", "AssumptionError",
    "PowerIterationError", "ValidationReport",
    "spectral_radius", "validate_assumptions",
    "generate_core_periphery", "generate_bounded_outdegree_family",
    "load_edge_list", "save_edge_list",
    # centrality
    "CentralityBundle", "SolverError", "katz_bonacich", "biproduct_centrality",
    "neumann_oracle", "neumann_tail_bound",
    # dynamics
    "SeedingPair", "Trajectory", "NegativeStateError",
    "ConsumptionOverflowError", "TailCertificationError", "auto_horizon",
    "simulate", "write_trajectory_csv",
    # game
    "SeedSet", "UtilityBreakdown", "EpsilonReport", "DiscountedSolver",
    "firm_utility", "utility_gradient", "nash_seeding",
    "restricted_nash_seeding", "best_response_gain", "discounted_consumption",
    "epsilon_for_sets", "sparsify", "nash_deviation_check",
    # asr
    "FamilySpec", "ScanRecord", "ASRScanResult", "CorePeripheryAnalytics",
    "NecessaryConditionReport", "sparsity_residual", "analytic_core_periphery",
    "scan_family", "write_scan_csv", "check_necessary_condition",
    # report IO
    "format_real", "dumps_report", "write_report",
]
