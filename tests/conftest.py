import numpy as np
import pytest

from seedgame import (CorePeripheryParams, MarketParams, WeightedDigraph,
                      generate_core_periphery)

MARKET = MarketParams(alpha=2.0, price=1.0, beta=0.5, delta=0.5)
SUITE_SEED = 20260814


def random_validated_graph(rng: np.random.Generator) -> WeightedDigraph:
    """Random digraph that passes all model checks with certifiable dynamics.

    Rows are rescaled so the largest weighted in-degree stays below 0.9,
    which keeps the spectral radius under the 4/3 admissibility bound and
    the discounted growth factor of the dynamics under 1.
    """
    n = int(rng.integers(2, 51))
    density = rng.uniform(0.05, 0.5)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    weights = rng.random((n, n)) * mask
    top = weights.sum(axis=1).max()
    if top > 0:
        weights *= rng.uniform(0.2, 0.9) / top
    return WeightedDigraph.from_matrix(weights)


def choice_loop_family(n: int, d: int, weight: float, seed: int) -> WeightedDigraph:
    """The bounded-out-degree graph of a per-agent numpy loop: one
    ``integers`` and one ``choice`` call per agent on one stream, agent ``a``
    influencing the picked positions of the ascending list of the others.
    The generator drew these graphs before it took every agent's draws in
    one Floyd pass; tests whose expected figures came from one of them
    build it here."""
    rng = np.random.default_rng(seed)
    picks = []
    for _ in range(n):
        k = int(rng.integers(0, d + 1))
        picks.append(rng.choice(n - 1, size=k, replace=False) if k else np.empty(0, np.int64))
    influencers = np.repeat(np.arange(1, n + 1), [p.size for p in picks])
    idx = np.concatenate(picks)
    return WeightedDigraph(n, np.column_stack(
        (idx + 1 + (idx >= influencers - 1), influencers, np.full(idx.size, weight))))


@pytest.fixture(scope="session")
def market() -> MarketParams:
    return MARKET


@pytest.fixture(scope="session")
def two_node() -> WeightedDigraph:
    # agent 1 is influenced by agent 2 with weight 0.5
    return WeightedDigraph(2, [(1, 2, 0.5)])


@pytest.fixture(scope="session")
def cp_params() -> CorePeripheryParams:
    return CorePeripheryParams(chi=3, m=4, g=0.5)


@pytest.fixture(scope="session")
def cp_graph(cp_params) -> WeightedDigraph:
    return generate_core_periphery(cp_params)


@pytest.fixture(scope="session")
def random_suite() -> list[WeightedDigraph]:
    rng = np.random.default_rng(SUITE_SEED)
    return [random_validated_graph(rng) for _ in range(20)]


@pytest.fixture(scope="session")
def test_suite(two_node, cp_graph, random_suite):
    named = [("two-node", two_node), ("core-periphery-3x4", cp_graph)]
    named.extend((f"random-{i:02d}", g) for i, g in enumerate(random_suite))
    return named
