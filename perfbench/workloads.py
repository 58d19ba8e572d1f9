"""The four workloads: an input graph built from the seed, and the CLI calls
one pass makes on it.

Every call uses the market alpha=2, price=1, beta=0.5, delta=0.5 and the
solver tolerance 1e-10.  See README.md for why each workload exists and
which layer it is meant to move.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import inputs

MARKET = {"alpha": 2.0, "price": 1.0, "beta": 0.5, "delta": 0.5, "tol": 1e-10}
ATTENUATION_HIGH = MARKET["delta"] * (1.0 + MARKET["beta"])


@dataclass(frozen=True)
class Op:
    """One CLI call: the command, its own flags, and whether it reads the
    workload's edge list (``--graph``)."""

    command: str
    args: tuple[str, ...] = ()
    reads_graph: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], inputs.Instance]
    ops: tuple[Op, ...]
    # calls run once per run, outside the timings, to record a known refusal
    probes: tuple[Op, ...] = ()
    core_periphery: tuple[int, int, float] | None = None


CP_CHI, CP_M, CP_G = 10, 500, 0.5

WORKLOADS = {w.name: w for w in (
    Workload(
        "ingest-50k",
        lambda seed: inputs.out_degree_graph(seed, n=10_000, max_degree=10, weight=0.1),
        (Op("centrality"),
         Op("epsilon", ("--sets", "1,2,3")),
         Op("sparsify", ("--epsilon-target", "0.5")),
         Op("generate", ("--generate", "bounded-outdegree:n=3000,d=10,weight=0.1"),
            reads_graph=False))),
    Workload(
        "direct-2000",
        lambda seed: inputs.out_degree_graph(seed, n=2000, max_degree=3, weight=1 / 3,
                                             exact_degree=True),
        (Op("centrality"),
         Op("nash"),
         Op("epsilon", ("--sets", "1,2,3")),
         Op("sparsify", ("--epsilon-target", "0.2"))),
        probes=(Op("simulate", ("--seeding", "nash")),)),
    Workload(
        "near-critical",
        lambda seed: inputs.in_degree_graph(seed, n=2500, degree=5, c_rho=0.999,
                                            attenuation_high=ATTENUATION_HIGH),
        (Op("centrality"),
         Op("epsilon", ("--sets", "1,2,3")))),
    Workload(
        "core-periphery",
        lambda seed: inputs.core_periphery_graph(CP_CHI, CP_M, CP_G),
        (Op("generate", ("--generate", f"core-periphery:chi={CP_CHI},m={CP_M},g={CP_G}"),
            reads_graph=False),
         Op("simulate", ("--seeding", "nash")),
         Op("asr-scan", ("--family", f"core-periphery:chi={CP_CHI},g={CP_G}",
                         "--schedule", "100,1000,3000"), reads_graph=False),
         Op("verify", ("--generate", f"core-periphery:chi={CP_CHI},m=30,g={CP_G}",
                       "--samples", "2000"), reads_graph=False)),
        core_periphery=(CP_CHI, CP_M, CP_G)),
)}
