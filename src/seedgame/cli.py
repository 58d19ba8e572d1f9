"""Command-line interface.

Subcommands: generate, centrality, nash, epsilon, sparsify, simulate,
asr-scan, verify.  Exit codes: 0 success, 1 usage or I/O error, 2 model
assumption failure or a spectral radius, solve or tail bound that could not
be certified, 3 verification failure.  All reports embed the resolved
configuration and tool version and are byte-identical across repeated runs.
"""
from __future__ import annotations

import argparse
import functools
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .asr import FamilySpec, analytic_core_periphery, scan_family, write_scan_csv
from .centrality import (CentralityBundle, SolverError, biproduct_centrality,
                         certified_neumann_series)
from .dynamics import (ConsumptionOverflowError, SeedingPair, TailCertificationError,
                       simulate, write_trajectory_csv)
from .game import (DiscountedSolver, SeedSet, check_epsilon_target,
                   epsilon_for_sets, firm_utility, nash_deviation_check, nash_seeding,
                   restricted_nash_seeding, sparsify, utility_gradient)
from .graph import (AssumptionError, CorePeripheryParams, EdgeListError,
                    MarketParams, PowerIterationError, WeightedDigraph,
                    generate_bounded_outdegree_family, generate_core_periphery,
                    load_edge_list, save_edge_list)
from .reportio import write_report


class UsageError(Exception):
    """Bad flags, specs, or input files."""


class VerificationFailure(Exception):
    """One or more cross-checks failed."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved options for a single CLI run, echoed into every report."""

    command: str
    graph: str | None = None
    generate: str | None = None
    family: str | None = None
    schedule: str | None = None
    rule: str = "role_models"
    alpha: float = 2.0
    price: float = 1.0
    beta: float = 0.5
    delta: float = 0.5
    tol: float = 1e-10
    tail_tol: float = 1e-10
    horizon: int | None = None
    epsilon_target: float | None = None
    sets: str | None = None
    sets_bar: str | None = None
    sets_under: str | None = None
    seeding: str = "zero"
    samples: int = 2000
    out: str = "."
    seed: int = 0
    force: bool = False

    def market(self) -> MarketParams:
        return MarketParams(alpha=self.alpha, price=self.price,
                            beta=self.beta, delta=self.delta)


# kind -> (size key, {key: type}); a family spec is a generator spec
# without its size key
_SPECS = {
    "core-periphery": ("m", {"chi": int, "m": int, "g": float}),
    "bounded-outdegree": ("n", {"n": int, "d": int, "weight": float}),
}


def _split_spec(spec: str, label: str) -> tuple[str, dict[str, str]]:
    """`kind:key=value,...` as its lower-cased kind and raw values; the
    whitespace around the kind, keys and values is dropped."""
    kind, _, rest = spec.partition(":")
    fields: dict[str, str] = {}
    for item in rest.split(",") if rest.strip() else ():
        key, sep, value = item.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise UsageError(f"bad {label} entry {item!r} in {spec!r} "
                             f"(expected key=value)")
        fields[key.strip()] = value.strip()
    return kind.strip().lower(), fields


def _parse_spec(spec: str, family: bool = False) -> tuple[str, dict]:
    """Kind and typed values of a generator spec, or of a family spec."""
    label = "family" if family else "generator"
    kind, fields = _split_spec(spec, label)
    if kind not in _SPECS:
        raise UsageError(f"unknown {label} kind {kind!r} "
                         f"(expected core-periphery or bounded-outdegree)")
    size_key, types = _SPECS[kind]
    types = {key: t for key, t in types.items() if not (family and key == size_key)}
    values = {}
    for key, convert in types.items():
        if key not in fields:
            raise UsageError(f"{label} spec {spec!r} is missing {key}=")
        try:
            values[key] = convert(fields[key])
        except ValueError as exc:
            raise UsageError(f"bad value for {key} in {spec!r}: {exc}") from None
    unknown = sorted(fields.keys() - types.keys())
    if unknown:
        raise UsageError(f"unknown {label} keys {unknown} in {spec!r}")
    return kind, values


def _generated(spec: str, seed: int) -> tuple[WeightedDigraph, CorePeripheryParams | None]:
    """The graph a generator spec makes, with its core-periphery parameters
    (None for a bounded-out-degree spec)."""
    kind, values = _parse_spec(spec)
    try:
        if kind == "core-periphery":
            cp = CorePeripheryParams(**values)
            return generate_core_periphery(cp), cp
        return generate_bounded_outdegree_family(**values, seed=seed), None
    except ValueError as exc:
        raise UsageError(f"invalid generator parameters in {spec!r}: {exc}") from None


def _load_graph(config: RunConfig) -> tuple[WeightedDigraph, CorePeripheryParams | None]:
    """The run's graph from --graph or --generate, as _generated gives it."""
    if (config.graph is None) == (config.generate is None):
        raise UsageError("exactly one graph source is required: --graph or --generate")
    if config.generate is not None:
        return _generated(config.generate, config.seed)
    path = Path(config.graph)
    if not path.exists():
        raise UsageError(f"graph file not found: {path}")
    try:
        return load_edge_list(path), None
    except EdgeListError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_id_list(text: str, n: int, label: str) -> SeedSet:
    raw = text.strip()
    if raw.startswith("@"):
        path = Path(raw[1:])
        if not path.exists():
            raise UsageError(f"{label}: id file not found: {path}")
        raw = path.read_text(encoding="utf-8")
    tokens = raw.replace(",", " ").split()
    try:
        ids = tuple(int(t) for t in tokens)
    except ValueError:
        raise UsageError(f"{label}: ids must be integers, got {text!r}") from None
    try:
        return SeedSet.of(ids, n)
    except ValueError as exc:
        raise UsageError(f"{label}: {exc}") from None


def _resolve_sets(config: RunConfig, n: int) -> tuple[SeedSet, SeedSet]:
    if config.sets is not None:
        if config.sets_bar is not None or config.sets_under is not None:
            raise UsageError("--sets is exclusive with --sets-bar/--sets-under")
        shared = _parse_id_list(config.sets, n, "--sets")
        return shared, shared
    if config.sets_bar is None or config.sets_under is None:
        raise UsageError("provide --sets, or both --sets-bar and --sets-under")
    return (_parse_id_list(config.sets_bar, n, "--sets-bar"),
            _parse_id_list(config.sets_under, n, "--sets-under"))


def _ensure_out(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report(config: RunConfig, path: Path, body: dict,
            params: MarketParams | None = None) -> None:
    """Write a report: version, config, the market when given, then body."""
    head = {"version": __version__, "config": asdict(config)}
    if params is not None:
        head["params"] = asdict(params)
    write_report(head | body, path)


def _checked_market(config: RunConfig) -> MarketParams:
    try:
        return config.market()
    except ValueError as exc:
        if "alpha must be at least price" in str(exc):
            raise AssumptionError(str(exc)) from None
        raise UsageError(str(exc)) from None


def _bundle(graph: WeightedDigraph, params: MarketParams, config: RunConfig,
            out: Path) -> CentralityBundle:
    """The run's one centrality bundle, which also validates the model
    assumptions.  With --force an assumption failure first writes its
    validation report to validation.json."""
    try:
        return biproduct_centrality(graph, params, config.tol)
    except AssumptionError as exc:
        report = exc.report
        if config.force and report is not None:
            _report(config, out / "validation.json", {
                "passed": False,
                "rho": report.rho,
                "bound": report.bound,
                "margin": report.margin,
                "checks": [asdict(c) for c in report.checks],
            })
            print(f"assumption failure; diagnostics written to {out / 'validation.json'}",
                  file=sys.stderr)
        raise


def _load_bundle(config: RunConfig) -> tuple[WeightedDigraph, MarketParams, Path,
                                             CentralityBundle]:
    """Shared front of the graph commands: load the graph, check the market,
    create --out and compute the bundle."""
    graph, _ = _load_graph(config)
    params = _checked_market(config)
    out = _ensure_out(config)
    return graph, params, out, _bundle(graph, params, config, out)


def _seeding_summary(graph: WeightedDigraph, c_new: np.ndarray,
                     seeding: SeedingPair | None) -> str:
    # the top 10 by c_new, ties by ascending id: only the agents not behind
    # the 10th value are sorted (a NaN stays one, as in a full sort)
    keys = -c_new
    candidates = np.arange(graph.n)
    if graph.n > 10:
        candidates = np.flatnonzero(~(keys > np.partition(keys, 9)[9]))
    order = candidates[np.lexsort((candidates, keys[candidates]))[:10]]
    lines = ["top agents by bi-product centrality:"]
    for idx in order:
        line = f"  agent {idx + 1}: c_new={c_new[idx]:.6g}"
        if seeding is not None:
            line += f"  seed_bar={seeding.s_bar[idx]:.6g}  seed_under={seeding.s_under[idx]:.6g}"
        lines.append(line)
    return "\n".join(lines)


def cmd_generate(config: RunConfig) -> int:
    graph, _ = _generated(config.generate, config.seed)
    out = _ensure_out(config)
    path = out / "graph.edges"
    save_edge_list(graph, path)
    _report(config, out / "generate.json", {
        "spec": config.generate,
        "n": graph.n,
        "edge_count": graph.edge_count,
        "path": path.name,
    })
    print(f"wrote {path} ({graph.n} agents, {graph.edge_count} edges)")
    return 0


def cmd_centrality(config: RunConfig) -> int:
    graph, params, out, bundle = _load_bundle(config)
    _report(config, out / "centrality.json", {
        "n": graph.n,
        "attenuations": list(bundle.attenuations),
        "a": bundle.a,
        "b": bundle.b,
        "c_new": bundle.c_new,
        "c_cross": bundle.c_cross,
        "residuals": list(bundle.residuals),
    })
    print(_seeding_summary(graph, bundle.c_new, None))
    print(f"wrote {out / 'centrality.json'}")
    return 0


def _epsilon_dict(report) -> dict:
    return {
        "sets": {"bar": list(report.set_bar.members),
                 "under": list(report.set_under.members)},
        "set_sizes": [report.set_bar.size, report.set_under.size],
        "tau_bar": report.tau_bar,
        "tau_under": report.tau_under,
        "epsilon_paper": report.epsilon_paper,
        "epsilon_exact": [report.epsilon_exact_a, report.epsilon_exact_b],
        "exact_defined": [report.epsilon_exact_a is not None,
                          report.epsilon_exact_b is not None],
        "residuals": [report.residual_bar, report.residual_under],
    }


def cmd_nash(config: RunConfig, sets: bool = False) -> int:
    """The Nash seeding and payoffs; with sets (the epsilon command) the
    payoffs of the restricted equilibrium on --sets and its epsilon."""
    graph, params, out, bundle = _load_bundle(config)
    nash = seeding = nash_seeding(graph, params, bundle=bundle)
    epsilon = None
    if sets:
        set_bar, set_under = _resolve_sets(config, graph.n)
        eps = epsilon_for_sets(graph, params, set_bar, set_under, bundle=bundle)
        seeding = restricted_nash_seeding(params, bundle, set_bar, set_under)
        epsilon = _epsilon_dict(eps)
    firm_a, firm_b = firm_utility(graph, params, seeding, bundle=bundle)
    _report(config, out / "equilibrium.json", {
        "nash": asdict(nash),
        "seeding": asdict(seeding),
        "utilities": {"firm_a": asdict(firm_a), "firm_b": asdict(firm_b)},
        "epsilon": epsilon,
    }, params)
    print(_seeding_summary(graph, bundle.c_new, seeding))
    if sets:
        print(f"epsilon_paper={eps.epsilon_paper:.6g} "
              f"(tau_bar={eps.tau_bar:.6g}, tau_under={eps.tau_under:.6g})")
    print(f"wrote {out / 'equilibrium.json'}")
    return 0


def cmd_sparsify(config: RunConfig) -> int:
    check_epsilon_target(config.epsilon_target)
    graph, params, out, bundle = _load_bundle(config)
    set_bar, set_under, eps = sparsify(graph, params, config.epsilon_target, bundle=bundle)
    seeding = restricted_nash_seeding(params, bundle, set_bar, set_under)
    _report(config, out / "sparsify.json", {
        "epsilon_target": config.epsilon_target,
        "sets": {"bar": list(set_bar.members), "under": list(set_under.members)},
        "set_size": set_bar.size,
        "seeding": asdict(seeding),
        "epsilon": _epsilon_dict(eps),
    }, params)
    print(_seeding_summary(graph, bundle.c_new, seeding))
    print(f"selected {set_bar.size} agents; epsilon_paper={eps.epsilon_paper:.6g} "
          f"<= target {config.epsilon_target:.6g}")
    print(f"wrote {out / 'sparsify.json'}")
    return 0


def cmd_simulate(config: RunConfig) -> int:
    graph, params, out, bundle = _load_bundle(config)
    if config.seeding == "zero":
        seeding = SeedingPair.zeros(graph.n)
    elif config.seeding == "nash":
        seeding = nash_seeding(graph, params, bundle=bundle)
    elif config.seeding == "restricted":
        set_bar, set_under = _resolve_sets(config, graph.n)
        seeding = restricted_nash_seeding(params, bundle, set_bar, set_under)
    else:
        raise UsageError(f"unknown --seeding {config.seeding!r} "
                         f"(expected zero, nash, or restricted)")
    trajectory = simulate(graph, params, seeding, horizon=config.horizon,
                          tail_tol=config.tail_tol, tol=config.tol)
    csv_path = out / "trajectory.csv"
    write_trajectory_csv(trajectory, csv_path)
    _report(config, out / "trajectory.json", {
        "horizon": trajectory.horizon,
        "tail_bound": trajectory.tail_bound,
        "seeding": asdict(seeding),
        "discounted_bar": trajectory.discounted_bar,
        "discounted_under": trajectory.discounted_under,
    }, params)
    print(f"simulated {trajectory.horizon} periods "
          f"(certified tail bound {trajectory.tail_bound:.3g})")
    print(f"wrote {csv_path} and {out / 'trajectory.json'}")
    return 0


def _parse_rule(text: str):
    if text in ("role-models", "role_models"):
        return "role_models"
    if text.startswith(("top-k:", "top_k:")):
        try:
            return ("top_k", int(text.split(":", 1)[1]))
        except ValueError:
            raise UsageError(f"bad top-k rule {text!r} (expected top-k:<int>)") from None
    raise UsageError(f"unknown rule {text!r} (expected role-models or top-k:<int>)")


def cmd_asr_scan(config: RunConfig) -> int:
    # the family's entry syntax is checked first, its kind and keys after
    # the schedule and the market, so a bad market wins over a bad kind
    _split_spec(config.family, "family")
    try:
        schedule = tuple(int(t) for t in config.schedule.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"bad --schedule {config.schedule!r}") from None
    params = _checked_market(config)
    kind, values = _parse_spec(config.family, family=True)
    spec = FamilySpec(kind=kind.replace("-", "_"), schedule=schedule,
                      market=params, seed=config.seed, **values)
    result = scan_family(spec, rule=_parse_rule(config.rule), tol=config.tol)
    out = _ensure_out(config)
    write_scan_csv(result, out / "asr_scan.csv")
    _report(config, out / "asr_verdict.json", {
        "family": config.family,
        "schedule": list(schedule),
        "rule": result.rule,
        "verdict": result.verdict,
        "decay_exponent": result.decay_exponent,
        "records": [{
            "size": r.size, "n": r.n,
            "set_size": r.set_size_bar,
            "residual_bar": r.residual_bar,
            "residual_under": r.residual_under,
            "epsilon_paper": r.epsilon_paper,
            "epsilon_exact": [r.epsilon_exact_a, r.epsilon_exact_b],
        } for r in result.records],
    }, params)
    print(f"verdict: {result.verdict} (decay exponent {result.decay_exponent:.4g})")
    print(f"wrote {out / 'asr_scan.csv'} and {out / 'asr_verdict.json'}")
    return 0


def _verify_graphs(config: RunConfig) -> list[tuple[str, WeightedDigraph, CorePeripheryParams | None]]:
    if config.graph is not None or config.generate is not None:
        return [("input", *_load_graph(config))]
    cp_params = CorePeripheryParams(chi=3, m=4, g=0.5)
    return [
        ("two-agent-chain", WeightedDigraph(2, [(1, 2, 0.5)]), None),
        ("core-periphery-3x4", generate_core_periphery(cp_params), cp_params),
        ("bounded-outdegree-30", generate_bounded_outdegree_family(30, 2, 0.1, seed=1), None),
        ("isolated-3", WeightedDigraph.empty(3), None),
    ]


def _check(checks: list, graph_name: str, name: str, passed: bool, detail: str) -> None:
    checks.append({"graph": graph_name, "check": name,
                   "passed": bool(passed), "detail": detail})
    print(f"{'PASS' if passed else 'FAIL'}  {graph_name}: {name} ({detail})")


def _verify_one(checks: list, name: str, graph: WeightedDigraph,
                cp: CorePeripheryParams | None, params: MarketParams,
                bundle: CentralityBundle, config: RunConfig,
                rng: np.random.Generator) -> None:
    solver = DiscountedSolver(graph, params, config.tol)

    # strictly positive so central differences below stay inside the domain
    seeding = SeedingPair(s_bar=params.price * bundle.c_new * (0.25 + rng.random(graph.n)),
                          s_under=params.price * (0.25 + rng.random(graph.n)))
    trajectory = simulate(graph, params, seeding, tail_tol=config.tail_tol,
                          store_states=False, tol=config.tol)
    y_bar, y_under = solver.consumption(seeding)
    gap = max(float(np.abs(trajectory.discounted_bar - y_bar).max()),
              float(np.abs(trajectory.discounted_under - y_under).max()))
    _check(checks, name, "simulation_matches_closed_form", gap <= 1e-8,
           f"max gap {gap:.3e}, tail bound {trajectory.tail_bound:.3e}")

    # the closed-form gradient against central differences of the full
    # solve: the +h and -h bumps of a run of agents form one block of seedings
    h = 1e-4
    grad = utility_gradient(graph, params, seeding, firm="a", bundle=bundle)
    worst_rel = 0.0
    for start in range(0, graph.n, solver.block_columns // 2):
        idx = np.arange(start, min(start + solver.block_columns // 2, graph.n))
        cols = np.arange(idx.size)
        block = np.repeat(seeding.s_bar[:, None], 2 * idx.size, axis=1)
        block[idx, cols] += h
        block[idx, cols + idx.size] -= h
        net = solver.net_payoffs_a(block, seeding.s_under)
        fd = (net[:idx.size] - net[idx.size:]) / (2 * h)
        rel = np.abs(fd - grad[idx]) / np.maximum(1.0, np.abs(grad[idx]))
        worst_rel = max(worst_rel, float(rel.max()))
    _check(checks, name, "gradient_matches_finite_differences", worst_rel <= 1e-5,
           f"worst relative gap {worst_rel:.3e} at h={h:g}")

    worst_gain = nash_deviation_check(graph, params, samples=config.samples,
                                      seed=config.seed, bundle=bundle, tol=config.tol,
                                      solver=solver)
    _check(checks, name, "nash_deviations_never_gain", worst_gain <= 1e-9,
           f"best sampled gain {worst_gain:.3e} over {config.samples} deviations")

    worst_oracle = 0.0
    for att, katz in zip(bundle.attenuations, (bundle.a, bundle.b)):
        series = certified_neumann_series(graph, att)
        if series is None:
            raise VerificationFailure("walk-series tail bound will not certify")
        worst_oracle = max(worst_oracle, float(np.abs(series - katz).max()))
    _check(checks, name, "centrality_matches_walk_series", worst_oracle <= 1e-8,
           f"max gap {worst_oracle:.3e}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.edges"
        save_edge_list(graph, path)
        reloaded = load_edge_list(path)
    _check(checks, name, "edge_list_round_trip", reloaded == graph,
           f"{graph.edge_count} edges")

    if cp is not None:
        closed = analytic_core_periphery(cp, params)
        role_idx = np.asarray(cp.role_models()) - 1
        periph_mask = np.ones(graph.n, bool)
        periph_mask[role_idx] = False
        worst = 0.0
        for value, expected in (
                (bundle.a[role_idx], closed.a_role),
                (bundle.b[role_idx], closed.b_role),
                (bundle.c_new[role_idx], closed.c_role),
                (bundle.a[periph_mask], closed.a_periphery),
                (bundle.b[periph_mask], closed.b_periphery)):
            worst = max(worst, float(np.abs(value - expected).max()) / abs(expected))
        _check(checks, name, "analytic_core_periphery_matches_solve", worst <= 1e-10,
               f"worst relative gap {worst:.3e}")


def cmd_verify(config: RunConfig) -> int:
    if config.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {config.samples}")
    params = _checked_market(config)
    out = _ensure_out(config)
    checks: list[dict] = []
    rng = np.random.default_rng(config.seed)
    for name, graph, cp in _verify_graphs(config):
        bundle = _bundle(graph, params, config, out)
        _verify_one(checks, name, graph, cp, params, bundle, config, rng)
    passed = all(c["passed"] for c in checks)
    _report(config, out / "verify.json", {"checks": checks, "passed": passed}, params)
    print(f"{'all checks passed' if passed else 'VERIFICATION FAILED'} "
          f"({sum(c['passed'] for c in checks)}/{len(checks)})")
    if not passed:
        raise VerificationFailure("see verify.json")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# each flag once, with its argparse keywords; every default but asr-scan's
# --rule spelling is RunConfig's
_FLAGS = {
    "--graph": {"help": "edge-list file"},
    "--generate": {"help": "generator spec, e.g. core-periphery:chi=3,m=4,g=0.5 "
                           "or bounded-outdegree:n=10,d=2,weight=0.1"},
    "--alpha": {"type": float},
    "--price": {"type": float},
    "--beta": {"type": float},
    "--delta": {"type": float},
    "--tol": {"type": float, "help": "linear-solve residual tolerance"},
    "--out": {"help": "output directory"},
    "--seed": {"type": int},
    "--force": {"action": "store_true",
                "help": "on assumption failure, still write diagnostics"},
    "--sets": {"help": "shared 1-based ids, e.g. 4,8,12 or @file"},
    "--sets-bar": {"help": "ids for the first firm"},
    "--sets-under": {"help": "ids for the second firm"},
    "--epsilon-target": {"type": float},
    "--horizon": {"type": int, "help": "periods to simulate (default: auto)"},
    "--tail-tol": {"type": float,
                   "help": "target certified tail bound for the auto horizon"},
    "--seeding": {"help": "zero, nash, or restricted (with --sets)"},
    "--family": {"help": "core-periphery:chi=3,g=0.5 or bounded-outdegree:d=2,weight=0.1"},
    "--schedule": {"help": "sizes, e.g. 10,31,100"},
    "--rule": {"default": "role-models", "help": "role-models or top-k:<int>"},
    "--samples": {"type": int, "help": "deviation samples per graph"},
}
_MARKET = ("--alpha", "--price", "--beta", "--delta", "--tol", "--out", "--seed", "--force")
_INPUT = ("--graph", "--generate", *_MARKET)
_SETS = ("--sets", "--sets-bar", "--sets-under")

# subcommand -> (handler, help, its flags in order); a flag ending in "!" is required
_COMMANDS = {
    "generate": (cmd_generate, "write a generated graph as an edge list",
                 (*_MARKET, "--generate!")),
    "centrality": (cmd_centrality, "emit the centrality bundle", _INPUT),
    "nash": (cmd_nash, "emit the Nash seeding and payoffs", _INPUT),
    "epsilon": (functools.partial(cmd_nash, sets=True),
                "epsilon certificate for given seed sets", (*_INPUT, *_SETS)),
    "sparsify": (cmd_sparsify, "smallest greedy set meeting a target epsilon",
                 (*_INPUT, "--epsilon-target!")),
    "simulate": (cmd_simulate, "run the consumption dynamics",
                 (*_INPUT, "--horizon", "--tail-tol", "--seeding", *_SETS)),
    "asr-scan": (cmd_asr_scan, "scan a family for sparse-seeding decay",
                 (*_MARKET, "--family!", "--schedule!", "--rule")),
    "verify": (cmd_verify, "run the cross-check suite", (*_INPUT, "--samples", "--tail-tol")),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser; a flag not given stays out of the namespace (RunConfig's default)."""
    parser = _Parser(prog="seedgame",
                     description="Two-firm seeding competition on influence networks.")
    parser.add_argument("--version", action="version", version=f"seedgame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, argument_default=argparse.SUPPRESS)
        for flag in flags:
            name = flag.rstrip("!")
            p.add_argument(name, required=flag != name, **_FLAGS[name])
    return parser


# main's parser, built on its first call: each add_argument makes a help
# formatter that asks for the terminal size, so a build costs milliseconds
_main_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        config = RunConfig(**vars(_main_parser().parse_args(argv)))
        # written as "not > 0" so that NaN, which certifies nothing, is refused too
        for flag, value in (("--tol", config.tol), ("--tail-tol", config.tail_tol)):
            if not value > 0:
                raise UsageError(f"{flag} must be positive, got {value}")
        return _COMMANDS[config.command][0](config)
    except AssumptionError as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return 2
    except (PowerIterationError, SolverError, TailCertificationError,
            ConsumptionOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
