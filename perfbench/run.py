"""Benchmark of the seedgame command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src/`` and nothing is installed.  The run builds the workload's
graph from the seed, times the set-up, makes one untimed warm-up pass whose
outputs are checked, then repeats passes over the workload's CLI calls
(``seedgame.cli.main(argv)`` in this process, edge list read from disk,
report written to disk) for about S seconds.  Every measured call is checked
to write byte-identical outputs to its warm-up call, and is bracketed by
timings of a fixed unit of reference work (``reference.py``) that give the
machine's speed during the call.  With ``--trace 1`` passes alternate
untraced and traced, and the traced ones give the per-layer self times.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files and the
full result go to ``.perfbench/<workload>/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from oracle import Oracle
from reference import Reference
from spans import ROOT_SPAN, Tracer
from workloads import ATTENUATION_HIGH, MARKET, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

LAYER_SECONDS = ("graph.load_edge_list", "graph.construct", "graph.validate",
                 "graph.spectral_radius", "graph.generate", "graph.save_edge_list",
                 "centrality.katz_low", "centrality.katz_high", "centrality.bundle",
                 "game.solver_init", "game.firm_utility", "game.epsilon_for_sets",
                 "game.sparsify", "game.deviation_check", "dynamics.simulate",
                 "dynamics.trajectory_csv", "asr.scan_family", "reportio.dumps")
LAYER_CALLS = {"graph.validate_calls": "graph.validate",
               "centrality.bundle_calls": "centrality.bundle",
               "game.solver_init_calls": "game.solver_init"}
LAYER_TOTALS = {"dynamics.horizon": ("dynamics.simulate.horizon", "count"),
                "dynamics.trajectory_csv_bytes": ("dynamics.trajectory_csv.bytes", "bytes"),
                "reportio.report_bytes": ("reportio.dumps.bytes", "bytes")}


def market_flags() -> list[str]:
    return [item for key in ("alpha", "price", "beta", "delta", "tol")
            for item in (f"--{key}", repr(MARKET[key]))]


def import_package():
    """Import seedgame.cli from this checkout's src/, or exit nonzero."""
    if not (SRC / "seedgame" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'seedgame'}")
    sys.path.insert(0, str(SRC))
    import seedgame.cli
    if not Path(seedgame.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported seedgame from {seedgame.cli.__file__}, not {SRC}")
    return seedgame.cli


def time_fresh_import() -> float:
    """Wall time of a fresh interpreter that imports the CLI module."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import seedgame.cli"], check=True, cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def digest(directory: Path) -> str:
    h = hashlib.blake2b()
    for path in sorted(directory.glob("*")):  # a missing directory digests as empty
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """Interpreter, library and BLAS versions and BLAS thread counts."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                function = getattr(handle, symbol)
                function.restype = ctypes.c_int
                threads[Path(library).name] = function()
                break
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads, "processes": 1}


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


class Runner:
    """Makes the CLI calls of one workload and judges each one."""

    def __init__(self, cli, seed: int, graph_path: Path, out_root: Path,
                 oracle: Oracle, tracer: Tracer, unit: Reference, sink):
        self.cli = cli
        self.seed = seed
        self.graph_path = graph_path
        self.out_root = out_root
        self.oracle = oracle
        self.tracer = tracer
        self.unit = unit
        self.last_unit_s = 0.0
        self.sink = sink
        self.reference: dict[str, tuple[str | None, str | None]] = {}

    def call(self, label: str, op: Op, traced: bool) -> tuple[float, Path, str | None]:
        """One timed cli.main call; returns seconds, its output directory
        and an error (exception or nonzero exit) or None.  The mean seconds
        of the reference units timed just before and just after it are in
        ``self.last_unit_s``."""
        out = self.out_root / label
        shutil.rmtree(out, ignore_errors=True)
        argv = [op.command, *op.args,
                *(["--graph", str(self.graph_path)] if op.reads_graph else []),
                *market_flags(), "--seed", str(self.seed), "--out", str(out)]
        error = None
        unit_before = self.unit.seconds()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            start = time.perf_counter()
            try:
                if traced:
                    code = self.tracer.call(ROOT_SPAN, self.cli.main, argv)
                else:
                    code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed op, not a failed benchmark
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        self.last_unit_s = (unit_before + self.unit.seconds()) / 2
        if error is None and code != 0:
            error = f"exit code {code}"
        return seconds, out, error

    def first_call(self, label: str, op: Op) -> tuple[float, str | None, str | None]:
        """Warm-up or probe call: run it, check its outputs with the oracle
        and keep their digest as the reference for later calls.  Returns
        seconds, the call's error and the check's problem."""
        seconds, out, error = self.call(label, op, traced=False)
        problem = None if error else self.oracle.check(op.command, op.args, out)
        self.reference[label] = (None if error else digest(out), error or problem)
        return seconds, error, problem

    def measured_call(self, label: str, op: Op, traced: bool) -> tuple[float, float, str | None]:
        """One measured call: its seconds, the seconds of the reference unit
        around it, and its failure or None."""
        seconds, out, error = self.call(label, op, traced)
        unit_s = self.last_unit_s
        if error is not None:
            return seconds, unit_s, error
        ref_digest, ref_problem = self.reference[label]
        if ref_problem is not None:
            return seconds, unit_s, f"warm-up call rejected: {ref_problem}"
        if digest(out) != ref_digest:
            return seconds, unit_s, "outputs differ from the warm-up call's"
        return seconds, unit_s, None


def per_layer(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (spans first..last-1)."""
    seconds, calls, totals = tracer.self_times(first, last)
    values = {f"{name}_s": seconds.get(name, 0.0) for name in LAYER_SECONDS}
    values["cli.self_s"] = seconds.get(ROOT_SPAN, 0.0)
    values.update({metric: calls.get(name, 0) for metric, name in LAYER_CALLS.items()})
    values.update({metric: totals.get(key, 0) for metric, (key, _) in LAYER_TOTALS.items()})
    return values


def layer_unit(metric: str) -> str:
    if metric in LAYER_CALLS:
        return "count"
    if metric in LAYER_TOTALS:
        return LAYER_TOTALS[metric][1]
    return "s"


class Passes:
    """Measured passes: every call's (seconds, reference unit seconds, error,
    traced), the wall time of each pass, the summed call time of traced and
    untraced passes, and the span range of each traced pass."""

    def __init__(self, labels: list[str]):
        self.calls: dict[str, list[tuple[float, float, str | None, bool]]] = {
            k: [] for k in labels}
        self.walls: list[float] = []
        self.call_s: dict[bool, list[float]] = {False: [], True: []}
        self.traced_ranges: list[tuple[int, int]] = []

    def run(self, runner: Runner, ops, seconds: float, trace: bool) -> None:
        """Repeat passes until the next one would end after ``seconds``;
        with tracing, alternate untraced and traced passes, at least one each."""
        tracer = runner.tracer
        start = time.perf_counter()
        while True:
            traced = trace and len(self.walls) % 2 == 1
            wall = time.perf_counter()
            first_span = len(tracer.names)
            total = 0.0
            if traced:
                tracer.install()
            try:
                for label, op in zip(self.calls, ops):
                    call_s, unit_s, error = runner.measured_call(label, op, traced)
                    self.calls[label].append((call_s, unit_s, error, traced))
                    total += call_s
            finally:
                tracer.uninstall()
            self.call_s[traced].append(total)
            if traced:
                self.traced_ranges.append((first_span, len(tracer.names)))
            self.walls.append(time.perf_counter() - wall)
            if trace and len(self.walls) < 2:
                continue
            if time.perf_counter() - start + statistics.median(self.walls) > seconds:
                return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    cli = import_package()
    workload = WORKLOADS[args.workload]

    work = ROOT / ".perfbench" / workload.name
    out_root = work / "out"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    graph_path = work / "graph.edges"

    # set-up: fresh-interpreter import, input generation, warm-up pass
    import_s = [time_fresh_import() for _ in range(SETUP_REPEATS)]
    generate_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        instance = workload.build(args.seed)
        instance.write(graph_path)
        generate_s.append(time.perf_counter() - start)
    tracer = Tracer(low_attenuation=MARKET["delta"] * (1.0 - MARKET["beta"]))
    labels = [f"{k}-{op.command}" for k, op in enumerate(workload.ops)]
    passes = Passes(labels)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        runner = Runner(cli, args.seed, graph_path, out_root,
                        Oracle(instance, MARKET, workload.core_periphery), tracer,
                        Reference(), sink)
        warm = [runner.first_call(label, op) for label, op in zip(labels, workload.ops)]
        setup_s = (statistics.median(import_s) + statistics.median(generate_s)
                   + sum(seconds for seconds, _, _ in warm))
        probes = []
        for k, op in enumerate(workload.probes):
            seconds, error, problem = runner.first_call(f"probe{k}-{op.command}", op)
            probes.append({"command": op.command, "args": list(op.args), "seconds": seconds,
                           "refusal": error, "check_problem": problem})
        passes.run(runner, workload.ops, args.seconds, bool(args.trace))
    shutil.rmtree(out_root, ignore_errors=True)

    attempted = sum(len(v) for v in passes.calls.values())
    failures = {label: [e for _, _, e, _ in v if e is not None]
                for label, v in passes.calls.items()}
    failed = sum(len(v) for v in failures.values())
    # a probe may be refused; if it answers, the answer must pass its check
    correct = failed == 0 and not any(p["check_problem"] for p in probes)
    commands = {}
    for label, op in zip(labels, workload.ops):
        ok = [(s, u) for s, u, e, traced in passes.calls[label] if e is None and not traced]
        seconds = [s for s, _ in ok]
        in_units = [s / u for s, u in ok]
        commands[label] = {"metric": f"{op.command.replace('-', '_')}_s",
                           "median_s": statistics.median(seconds) if ok else None,
                           "mean_s": statistics.mean(seconds) if ok else None,
                           "mean_ref": statistics.mean(in_units) if ok else None,
                           "samples": len(ok), "failed": len(failures[label]),
                           "first_error": failures[label][0] if failures[label] else None,
                           "samples_s": seconds, "samples_ref": in_units,
                           "reference_unit_s": [u for _, u in ok]}

    if args.trace:
        layers = [per_layer(tracer, a, b) for a, b in passes.traced_ranges]
        metrics = {name: {"value": statistics.median(p[name] for p in layers),
                          "unit": layer_unit(name)} for name in layers[0]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(passes.call_s[True]) - statistics.median(passes.call_s[False]),
            "unit": "s"}
        tracer.dump(work / "spans.jsonl")
    else:
        # one pass in reference units: each call's seconds over the seconds of
        # the reference unit timed around it, so the machine's drift cancels;
        # the mean per command, summed over the pass
        metrics = {"pass_ref": {"value": sum(c["mean_ref"] for c in commands.values()
                                             if c["mean_ref"] is not None), "unit": "ref"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024.0, "unit": "MB"}}

    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "passes": len(passes.walls), "measured_wall_s": sum(passes.walls),
        "pass_s": sum(c["mean_s"] for c in commands.values() if c["mean_s"] is not None),
        "commands": commands, "ops_failed_ratio": failed / attempted,
        "warm_up": [{"label": label, "seconds": s, "error": e, "check_problem": p}
                    for label, (s, e, p) in zip(labels, warm)],
        "probes": probes,
        "setup": {"fresh_import_s": import_s, "input_generation_s": generate_s},
        "inputs": instance.stats(ATTENUATION_HIGH, l3_bytes()),
        "environment": environment(),
        "unhooked": sorted(tracer.missing),
    }
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics}, indent=1) + "\n", encoding="utf-8")
    for label, c in commands.items():
        print(f"# {c['metric']:<14} {label:<14} median {c['median_s']!s:<22} "
              f"mean {c['mean_s']!s:<22} mean_ref {c['mean_ref']!s:<22} "
              f"samples {c['samples']:<3} failed {c['failed']}")
    print(f"# pass_s {detail['pass_s']} (sum of the per-command means in seconds)")
    print(f"# ops_failed_ratio {failed}/{attempted}; probes {json.dumps(probes)}")
    print(f"# inputs {json.dumps(detail['inputs'])}")
    print(f"# environment {json.dumps(detail['environment'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
