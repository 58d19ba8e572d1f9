"""Run the benchmark's four workloads once each and record the results.

    python3 scripts/bench.py OUT [--seed N] [--seconds S]

Each workload runs as its own ``perfbench/run.py --workload W --seed N
--seconds S --trace 0`` process (seed 101 and 25 s by default).  OUT gets
one JSON object: the commit of the checkout (and whether its tracked files
differ from it), the settings, the environment line perfbench prints, and
per workload its ``correct``, ``attempted`` and ``failed`` counts and the
value and unit of each end-to-end metric.  Exits nonzero if a run fails or
a workload's outputs are not correct.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest-50k", "direct-2000", "near-critical", "core-periphery")
ENVIRONMENT = "# environment "


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_workload(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run: its final JSON line and its environment line."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
    environment = next(json.loads(line[len(ENVIRONMENT):]) for line in lines
                       if line.startswith(ENVIRONMENT))
    return json.loads(lines[-1]), environment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    record = {"commit": git("rev-parse", "HEAD"),
              "tracked_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
              "command": "perfbench/run.py --workload W "
                         f"--seed {args.seed} --seconds {args.seconds:g} --trace 0",
              "environment": None, "workloads": {}}
    for name in WORKLOADS:
        result, record["environment"] = run_workload(name, args.seed, args.seconds)
        record["workloads"][name] = result
        print(f"{name}: {json.dumps(result)}", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] is True for r in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
