"""Run the benchmark's four workloads and one large fresh-process command,
and record the results; or time one workload in pairs against another tree.

    python3 scripts/bench.py OUT [--seed N] [--seconds S]
    python3 scripts/bench.py OUT --against TREE --workload W --pairs K [--seed N] [--seconds S]

Each workload runs four times, each time as its own ``perfbench/run.py
--workload W --seed N --seconds S`` process (seed 101 and 25 s by default):
three times (``REPEATS``) with ``--trace 0`` for the end-to-end metrics, each
recorded as the median of the three runs with the three values in run order
(``samples``), and once with ``--trace 1`` for the per-layer metrics, read
from ``.perfbench/<workload>/result-trace1.json``.
Then ``centrality`` and ``sparsify --epsilon-target 0.5`` each run as a
fresh process on the 1,001,163-edge graph
``bounded-outdegree:n=200000,d=10,weight=0.1`` (seed 7), and ``centrality
--force`` on the fixed suite's weighted 200-cycle scaled to delta * (1 +
beta) * rho = 1.2, which it refuses with exit code 2, FRESH_RUNS times each;
each run's wall seconds and peak RSS (the child's own ``ru_maxrss``) are
kept.  The fresh processes run inside their work directory with relative
paths, so the reports, which record --graph and --out, have the same size
wherever the checkout sits.  OUT gets one JSON object: the commit of the
checkout (and whether its tracked files differ from it), the settings, the
environment line perfbench prints, per workload its ``correct`` (true
when all three ``--trace 0`` runs are), its ``attempted`` and ``failed``
counts summed over them, the median, unit and samples of each end-to-end
metric, the per-layer metrics and the hooks the tracer could not install,
and the three fresh-process rows (``fresh_centrality``, ``fresh_sparsify``
and ``fresh_refusal``).  Exits nonzero if a run fails or a workload's
outputs are not correct.

With ``--against TREE`` (another checkout, such as the parent commit's),
workload W runs K pairs of ``--trace 0`` runs, one of TREE's
``perfbench/run.py`` and one of this checkout's in each pair, TREE first
in the first pair and the side that runs first swapped in every pair
after it.  OUT then gets both checkouts' commits, every run in order, and
per end-to-end metric of ``BENCHMARK.json`` each side's median and
quartiles and the number of pairs this checkout wins (is better in).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest-50k", "direct-2000", "near-critical", "core-periphery")
ENVIRONMENT = "# environment "
FRESH_GRAPH = ("bounded-outdegree:n=200000,d=10,weight=0.1", 7)
FRESH_RUNS = 3
REPEATS = 3  # --trace 0 runs per workload in the default mode


def git(*args: str, tree: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=tree, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(tree: Path) -> dict:
    """The commit of a checkout and whether its tracked files differ from it."""
    try:
        return {"commit": git("rev-parse", "HEAD", tree=tree),
                "tracked_changes": bool(git("status", "--porcelain", "--untracked-files=no",
                                            tree=tree))}
    except subprocess.CalledProcessError:  # not a git checkout
        return {"commit": None, "tracked_changes": None}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 tree: Path = ROOT) -> tuple[dict, dict]:
    """One perfbench run of tree: its final JSON line and its environment line."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
    environment = next(json.loads(line[len(ENVIRONMENT):]) for line in lines
                       if line.startswith(ENVIRONMENT))
    return json.loads(lines[-1]), environment


def median_result(results: list[dict]) -> dict:
    """One result from repeated runs of a workload: each end-to-end metric's
    median and its values in run order, the counts summed."""
    return {"correct": all(r["correct"] is True for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {key: {"value": statistics.median(r["metrics"][key]["value"]
                                                         for r in results),
                              "unit": metric["unit"],
                              "samples": [r["metrics"][key]["value"] for r in results]}
                        for key, metric in results[0]["metrics"].items()}}


def seedgame(work: Path, *argv: str, expect: int = 0) -> tuple[float, float]:
    """Run the CLI of this checkout as a fresh process inside work, which
    must exit with code expect: its wall seconds and its peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "seedgame.cli", *argv], cwd=work, env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=None if expect == 0 else subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)  # this child's own rusage
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != expect:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    return seconds, usage.ru_maxrss / 1024.0


def write_scaled_cycle(path: Path) -> None:
    """The weighted 200-cycle of scripts/fixed_suite.sh scaled to delta * (1
    + beta) * rho = 1.2 (cycle/scaled.edges there), byte for byte."""
    weights = 0.5 + 0.6 * np.random.default_rng(0).random(200)
    scaled = weights * (1.2 / (0.75 * np.exp(np.log(weights).mean())))
    path.write_text("n=200\n" + "".join(f"{i} {i % 200 + 1} {float(w)!r}\n"
                                        for i, w in enumerate(scaled, start=1)))


def fresh_row(command: str, runs: list[tuple[float, float]], **fields) -> dict:
    """One fresh-process row: the median wall seconds and the largest peak RSS."""
    return {"command": command, **fields,
            "wall_s": {"value": statistics.median(s for s, _ in runs), "unit": "s",
                       "samples": [s for s, _ in runs]},
            "child_maxrss_mb": {"value": max(m for _, m in runs), "unit": "MB",
                                "samples": [m for _, m in runs]}}


def fresh_rows() -> dict:
    """The fresh-process rows: centrality, and sparsify at epsilon 0.5, on
    the large generated graph, and the refusal of the scaled 200-cycle."""
    spec, seed = FRESH_GRAPH
    work = ROOT / ".perfbench" / "fresh"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seedgame(work, "generate", "--generate", spec, "--seed", str(seed), "--out", ".")
    edges = json.loads((work / "generate.json").read_text(encoding="utf-8"))["edge_count"]
    rows = {}
    for command in (["centrality"], ["sparsify", "--epsilon-target", "0.5"]):
        runs = [seedgame(work, *command, "--graph", "graph.edges", "--out", ".")
                for _ in range(FRESH_RUNS)]
        rows[f"fresh_{command[0]}"] = fresh_row(
            f"{' '.join(command)} --graph <generate {spec} --seed {seed}>", runs,
            edges=edges, report_bytes=(work / f"{command[0]}.json").stat().st_size)
    write_scaled_cycle(work / "scaled.edges")
    runs = [seedgame(work, "centrality", "--graph", "scaled.edges", "--force", "--out", "refuse",
                     expect=2) for _ in range(FRESH_RUNS)]
    rows["fresh_refusal"] = fresh_row(
        "centrality --graph <fixed suite cycle/scaled.edges> --force", runs,
        exit_code=2, report_bytes=(work / "refuse" / "validation.json").stat().st_size)
    shutil.rmtree(work, ignore_errors=True)
    return rows


def paired_runs(against: Path, name: str, pairs: int, seed: int, seconds: float) -> dict:
    """The pairs mode's record: every run, and per end-to-end metric each
    side's median and quartiles and the pairs this checkout wins."""
    trees = {"parent": against, "change": ROOT}
    record = {"mode": "pairs", "workload": name, "pairs": pairs,
              "command": f"perfbench/run.py --workload {name} "
                         f"--seed {seed} --seconds {seconds:g} --trace 0",
              "parent": checkout(against), "change": checkout(ROOT),
              "environment": None, "runs": [], "summary": {}}
    for pair in range(pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            result, record["environment"] = run_workload(name, seed, seconds, trace=0,
                                                         tree=trees[side])
            record["runs"].append({"pair": pair, "side": side, **result})
            print(f"pair {pair} {side}: {json.dumps(result['metrics'])}", flush=True)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in benchmark["end_to_end"]:
        key, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        sides = {side: [run["metrics"][key]["value"] for run in record["runs"]
                        if run["side"] == side] for side in trees}
        record["summary"][key] = {
            **{side: dict(zip(("q1", "median", "q3"),
                              np.percentile(v, [25, 50, 75]).tolist()))
               for side, v in sides.items()},
            "change_wins": sum(sign * c < sign * p
                               for p, c in zip(sides["parent"], sides["change"]))}
        print(f"{key}: {json.dumps(record['summary'][key])}", flush=True)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--against", type=Path, metavar="TREE",
                        help="the other checkout of the pairs mode")
    parser.add_argument("--workload", choices=WORKLOADS, help="the pairs mode's workload")
    parser.add_argument("--pairs", type=int, help="the pairs mode's pair count")
    args = parser.parse_args(argv)
    pairs_mode = (args.against, args.workload, args.pairs)
    if any(v is not None for v in pairs_mode):
        if any(v is None for v in pairs_mode) or args.pairs < 1:
            parser.error("the pairs mode takes --against, --workload and --pairs >= 1")
        record = paired_runs(args.against.resolve(), args.workload, args.pairs,
                             args.seed, args.seconds)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        return 0 if all(run["correct"] is True for run in record["runs"]) else 1
    record = {**checkout(ROOT),
              "command": "perfbench/run.py --workload W "
                         f"--seed {args.seed} --seconds {args.seconds:g} --trace 0|1",
              "repeats": REPEATS, "environment": None, "workloads": {}}
    for name in WORKLOADS:
        runs = [run_workload(name, args.seed, args.seconds, trace=0) for _ in range(REPEATS)]
        result, record["environment"] = median_result([r for r, _ in runs]), runs[-1][1]
        traced_line, _ = run_workload(name, args.seed, args.seconds, trace=1)
        traced = json.loads((ROOT / ".perfbench" / name / "result-trace1.json")
                            .read_text(encoding="utf-8"))
        result.update(traced_correct=traced_line["correct"], per_layer=traced["metrics"],
                      unhooked=traced["detail"]["unhooked"])
        record["workloads"][name] = result
        print(f"{name}: {json.dumps(result['metrics'])}", flush=True)
    for name, row in fresh_rows().items():
        record[name] = row
        print(f"{name}: {json.dumps(row)}", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] is True and r["traced_correct"] is True
                    for r in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
