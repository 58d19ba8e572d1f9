"""Weighted influence digraphs: representation, spectral diagnostics, model
validation, synthetic generators, and edge-list I/O.

Orientation convention: the adjacency entry ``g[i][j]`` is the influence of
agent ``j`` on agent ``i``, so a row sum is an agent's weighted in-degree
(how much it listens) and a column sum its weighted out-degree (how much it
is listened to).  Agent ids are 1-based in every public interface; numpy
vectors elsewhere in the package are 0-based, index ``i`` holding agent
``i + 1``.
"""
from __future__ import annotations

import io
import os
import stat
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .reportio import format_distinct

Edge = tuple[int, int, float]

_DEFAULT_TOL = 1e-10


class GraphError(ValueError):
    """Invalid graph data (ids, weights, duplicates)."""


class EdgeListError(GraphError):
    """Edge-list violation, optionally tied to a file line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedLineError(EdgeListError):
    """Unparsable header or edge record, ids outside 1..n, or a non-finite weight."""


class DuplicateEdgeError(EdgeListError):
    """The same ordered (influenced, influencer) pair appears twice."""


class NegativeWeightError(EdgeListError):
    """Influence weights must be nonnegative."""


class SelfLoopError(EdgeListError):
    """An agent cannot influence itself."""


class AssumptionError(RuntimeError):
    """A model assumption required by the requested operation fails."""

    def __init__(self, message: str, *, rho: float | None = None,
                 bound: float | None = None, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.rho = rho
        self.bound = bound
        self.report = report


class PowerIterationError(RuntimeError):
    """The step budget ran out with the bracket [lower, upper] undecided."""

    def __init__(self, message: str, *, lower: float, upper: float):
        super().__init__(message)
        self.lower, self.upper = lower, upper


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MarketParams:
    """Market primitives shared by both firms.

    alpha is the stand-alone utility coefficient, price the per-unit price,
    beta the cross-product spillover in [0, 1), delta the discount factor in
    (0, 1).  alpha >= price is required so unseeded consumption stays
    nonnegative.
    """

    alpha: float
    price: float
    beta: float
    delta: float

    def __post_init__(self):
        if not np.isfinite([self.alpha, self.price, self.beta, self.delta]).all():
            raise ValueError("market parameters must be finite")
        if self.price <= 0:
            raise ValueError(f"price must be positive, got {self.price}")
        if not 0 <= self.beta < 1:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.alpha < self.price:
            raise ValueError(
                f"alpha must be at least price (alpha={self.alpha}, price={self.price})")

    @property
    def spectral_bound(self) -> float:
        """Largest admissible spectral radius, 1 / (delta * (1 + beta))."""
        return 1.0 / (self.delta * (1.0 + self.beta))


@dataclass(frozen=True)
class CorePeripheryParams:
    """Core-periphery layout: chi communities of m agents, one role model each.

    Community r occupies agents (r-1)*m+1 .. r*m; its role model is agent r*m.
    Every periphery agent has a single in-edge of weight g from its role
    model, and the role models form a directed cycle of weight g.  m = 1
    degenerates to a plain chi-cycle.
    """

    chi: int
    m: int
    g: float

    def __post_init__(self):
        if self.chi < 2:
            raise ValueError(f"chi must be at least 2, got {self.chi}")
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if not (np.isfinite(self.g) and self.g >= 0):
            raise ValueError(f"g must be a nonnegative real, got {self.g}")

    @property
    def n(self) -> int:
        return self.chi * self.m

    def role_models(self) -> tuple[int, ...]:
        """1-based ids of the role models (one per community)."""
        return tuple(r * self.m for r in range(1, self.chi + 1))


class WeightedDigraph:
    """Immutable weighted digraph over agents 1..n with nonnegative weights.

    Edges are (influenced, influencer, weight) triples with 1-based ids, as an
    iterable or an (m, 3) array; self-loops and duplicate ordered pairs are
    rejected.  The CSR matrix is the only store of the edges (zero weights
    dropped)."""

    def __init__(self, n: int, edges: Iterable[Edge] | np.ndarray = (), *,
                 _columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
        # _columns: the influenced, influencer and weight columns as 1-D
        # arrays, ids integer or float, in place of edges (the bulk loader)
        _check_count(n)
        if _columns is not None:
            rows, cols, weights = _columns
        else:
            try:
                triples = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                                     dtype=float)
                if triples.shape[1:] != (3,) and triples.shape != (0,):
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                raise MalformedLineError("edges must be (i, j, weight) triples") from None
            rows, cols, weights = triples.reshape(-1, 3).T
        matrix = _csr_matrix(n, rows, cols, weights)
        transpose = matrix.T.tocsr()  # the walk systems iterate with G^T
        matrix.data.setflags(write=False)
        transpose.data.setflags(write=False)
        for name, value in (("n", int(n)), ("_matrix", matrix),
                            ("_transpose", transpose), ("_rho_cache", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedDigraph is immutable")

    @classmethod
    def empty(cls, n: int) -> "WeightedDigraph":
        return cls(n)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "WeightedDigraph":
        """Build from a dense n x n array; nonzero (i, j) becomes an edge."""
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise GraphError(f"adjacency must be square, got shape {arr.shape}")
        rows, cols = np.nonzero(arr)
        return cls(arr.shape[0], np.column_stack((rows + 1, cols + 1, arr[rows, cols])))

    @property
    def matrix(self) -> sp.csr_matrix:
        """Sparse adjacency (row = influenced, column = influencer). Do not mutate."""
        return self._matrix

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Edge triples sorted by (influenced, influencer), zero weights left out."""
        coo = self._matrix.tocoo()  # keeps the sorted order of the CSR
        return tuple(zip((coo.row + 1).tolist(), (coo.col + 1).tolist(), coo.data.tolist()))

    @property
    def edge_count(self) -> int:
        return self._matrix.nnz

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """Weighted in-degree per agent (row sums), 0-based."""
        return _as_readonly(np.asarray(self._matrix.sum(axis=1)).ravel())

    @cached_property
    def out_degrees(self) -> np.ndarray:
        """Weighted out-degree per agent (column sums), 0-based."""
        return _as_readonly(np.asarray(self._matrix.sum(axis=0)).ravel())

    def to_dense(self) -> np.ndarray:
        return self._matrix.toarray()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return self.n == other.n and (self._matrix != other._matrix).nnz == 0

    def __hash__(self) -> int:
        return hash((self.n, self._matrix.indices.tobytes(), self._matrix.data.tobytes()))

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self.n}, edges={self.edge_count})"


def _csr_matrix(n: int, rows: np.ndarray, cols: np.ndarray,
                weights: np.ndarray) -> sp.csr_matrix:
    """The checked edges as an n x n CSR matrix, zero weights left out.  Its
    own function, so that the edge order is freed before the transpose."""
    order = _check_edges(n, rows, cols, weights)
    kept = weights > 0  # zero weight: no influence
    order = order[kept[order]]
    counts = np.bincount(rows[kept].astype(np.intp, copy=False) - 1, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts)))  # scipy picks the index dtype
    return sp.csr_matrix((weights[order], cols[order].astype(np.intp, copy=False) - 1, indptr),
                         (n, n))


def _check_edges(n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                 lines: list[int] | None = None) -> np.ndarray:
    """The one edge check, shared by WeightedDigraph and load_edge_list: raise
    for the first (influenced, influencer, weight) row that breaks a rule,
    naming ``lines[row]`` when given.  Rules, in order: integral ids in 1..n,
    no self-loop, finite and then nonnegative weight, and no earlier row with
    the same ordered pair (zero weights count).  Returns the stable order of
    the rows by (influenced, influencer), the order of the CSR arrays: the
    identity when the pairs already increase, as in a canonical edge list."""
    ids_ok = (rows >= 1) & (rows <= n) & (cols >= 1) & (cols <= n)
    for ids in (rows, cols):
        if ids.dtype.kind == "f":  # integer columns (the bulk loader's) are integral
            ids_ok &= ids == np.floor(ids)
    # bad ids get the key of the self-loop (1, 1), so a repeat they cause lands
    # on a row that already breaks an earlier rule; int64 keys stay exact
    keys = ((np.where(ids_ok, rows, 1).astype(np.int64, copy=False) - 1) * n
            + np.where(ids_ok, cols, 1).astype(np.int64, copy=False) - 1)
    repeat = np.zeros(keys.size, dtype=bool)  # every occurrence after the first
    if (keys[1:] > keys[:-1]).all():
        order = np.arange(keys.size)
    else:
        order, keys = _stable_order(keys, n)
        repeat[order[1:][keys[1:] == keys[:-1]]] = True
    masks = (~ids_ok, rows == cols, ~np.isfinite(weights), weights < 0, repeat)
    bad = np.flatnonzero(np.logical_or.reduce(masks))
    if bad.size == 0:
        return order
    k = int(bad[0])
    i, j = (int(x) if x.is_integer() else x for x in (float(rows[k]), float(cols[k])))
    w = float(weights[k])
    error, message = (
        (MalformedLineError, f"agent ids ({i}, {j}) outside 1..{n}"),
        (SelfLoopError, f"agent {i} influences itself"),
        (MalformedLineError, f"weight {w!r} is not finite"),
        (NegativeWeightError, f"weight {w!r} is negative"),
        (DuplicateEdgeError, f"duplicate pair ({i}, {j})"),
    )[next(rule for rule, mask in enumerate(masks) if mask[k])]
    raise error(message, line=None if lines is None else lines[k]) from None


def _stable_order(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of int64 keys in [0, n^2), and the keys in it.  One
    sort of key << b | index, with b bits for the index, when that fits in
    int64: the packed values are distinct, so any sort gives the stable order."""
    shift = max(keys.size - 1, 1).bit_length()
    if int(n) ** 2 << shift > 1 << 63:  # n may be a numpy integer
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = keys << shift
    packed |= np.arange(keys.size)
    packed.sort()
    return packed & ((1 << shift) - 1), packed >> shift


def _check_count(n) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise GraphError(f"node count must be a positive integer, got {n!r}")


def _check_id(i, n: int) -> int:
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise GraphError(f"agent id must be an integer, got {i!r}")
    if not 1 <= i <= n:
        raise GraphError(f"agent id {i} outside 1..{n}")
    return int(i)


def _collatz_wielandt(ax: np.ndarray, x: np.ndarray, terms: int) -> tuple[float, float]:
    """min and max of ax / x rounded outward, for ax = A @ x, A nonnegative with at
    most ``terms`` entries a row and x positive: a certified bracket on rho(A)
    (Collatz-Wielandt; Meyer, Matrix Analysis, ch. 8).  Row sums and division
    err by under (terms + 1) / 2 epsilons; nextafter covers the product."""
    ratios = ax / x
    slack = (terms + 1) * np.finfo(float).eps
    return (float(np.nextafter(ratios.min() * (1.0 - slack), -np.inf)),
            float(np.nextafter(ratios.max() * (1.0 + slack), np.inf)))


def _power_iteration(graph: WeightedDigraph, tol: float, bound: float = np.nan,
                     max_iter: int = 100_000) -> tuple[float, float, float]:
    """(rho, lower, upper): a certified bracket on rho(G) and its end that decided
    against bound, so rho < bound exactly when G is admitted.  On each strongly
    connected component with a cycle (G's spectrum is the union of theirs) a
    shifted, so aperiodic, power iteration from all ones runs until its bracket
    is 2 * tol wide (then, if it holds bound, no admission can be certified),
    its upper end is below bound, or its lower end is not; a refusal returns, its
    upper end raised to the row/column-sum cap while components are left."""
    # the row/column-sum cap on rho(G), rounded outward as _collatz_wielandt rounds
    cap = float(np.nextafter(min(graph.in_degrees.max(), graph.out_degrees.max())
                             * (1.0 + (graph.n + 1) * np.finfo(float).eps), np.inf))
    from scipy.sparse.csgraph import connected_components  # off the success path
    _, labels = connected_components(graph.matrix, directed=True, connection="strong")
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.r_[True, np.diff(labels[order]) != 0, True])  # between components
    lower = upper = 0.0
    cyclic = [order[a:b] for a, b in zip(cuts[:-1], cuts[1:]) if b - a >= 2]
    for left, members in enumerate(cyclic, 1 - len(cyclic)):  # left < 0: more to come
        sub = graph.matrix[members][:, members].tocsr()
        shift = 0.05 * max(float(np.asarray(sub.sum(axis=1)).max()), 1e-300)
        terms, x, lo, hi = int(np.diff(sub.indptr).max()), np.ones(members.size), 0.0, np.inf
        for _ in range(max_iter):
            ax = sub @ x
            lo, hi = _collatz_wielandt(ax, x, terms)
            if hi - lo <= 2.0 * tol or lo >= bound or hi < bound:
                break
            y = ax + shift * x
            x = y / y.sum()
        else:
            raise PowerIterationError(
                f"power iteration did not converge in {max_iter} steps "
                f"(bracket [{lo:.6g}, {hi:.6g}], cap {cap:.6g})", lower=lo, upper=hi)
        if hi >= bound:
            return (lo if lo >= bound else hi), lo, max(hi, cap) if left else hi
        lower, upper = max(lower, lo), max(upper, hi)
    return upper, lower, upper


def spectral_radius(graph: WeightedDigraph, tol: float = _DEFAULT_TOL,
                    max_iter: int = 100_000) -> float:
    """Spectral radius of the influence matrix, accurate to tol: the midpoint
    of _power_iteration's certified bracket, at most 2 * tol wide, capped by
    the row/column-sum bound.  Acyclic graphs return exactly 0.  Raises
    PowerIterationError when max_iter steps leave the bracket wider, as on
    weighted cycles of a few hundred agents; admission and refusal never
    call it."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _, lower, upper = _power_iteration(graph, tol, np.nan, max_iter)  # NaN: no bound decides
    return float(min(0.5 * (lower + upper), graph.in_degrees.max(), graph.out_degrees.max()))


@dataclass(frozen=True)
class ValidationReport:
    """The certified bracket [lower, upper] on rho(G) that decided admission
    against bound, and rho, its end that decided (_power_iteration): the graph
    is admitted exactly when rho < bound, so the margin's sign is the decision's."""

    rho: float
    lower: float
    upper: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.rho

    @property
    def passed(self) -> bool:
        return self.rho < self.bound

    def summary(self) -> str:
        return (f"spectral radius {self.rho:.12g} in [{self.lower:.12g}, {self.upper:.12g}] "
                f"{'is' if self.passed else 'is not'} below the bound {self.bound:.12g} "
                f"(margin {self.margin:.12g})")


def validate_assumptions(graph: WeightedDigraph, params: MarketParams,
                         tol: float = _DEFAULT_TOL) -> ValidationReport:
    """The one model assumption a graph can break, rho(G) < 1 / (delta * (1 +
    beta)), decided by a certified bracket.  alpha >= price and nonnegative
    weights are refused before a graph gets here, by MarketParams and the edge
    check."""
    bound = params.spectral_bound
    return ValidationReport(*_power_iteration(graph, tol, bound), bound)


def generate_core_periphery(params: CorePeripheryParams) -> WeightedDigraph:
    """Build the core-periphery graph: every agent ends up with exactly one
    in-edge of weight g, so the spectral radius equals g."""
    m = params.m
    agents = np.arange(1, params.n + 1)
    influencers = (agents - 1) // m * m + m  # each community's role model
    roles = agents % m == 0
    influencers[roles] = np.roll(agents[roles], 1)  # the previous role model
    return WeightedDigraph(params.n, np.column_stack(
        (agents, influencers, np.full(params.n, params.g, dtype=float))))


def generate_bounded_outdegree_family(n: int, d: int, weight: float,
                                      seed: int) -> WeightedDigraph:
    """Random graph in which every agent influences at most d others, each
    with the same weight, so weighted out-degrees never exceed d * weight.

    Determinism: the graph depends only on (n, d, weight, seed), through
    these public calls on ``rng = np.random.default_rng(seed)``:

        k = rng.integers(0, d + 1, size=n)       # every agent's count
        for t in 0 .. d - 1:                     # the agents with k > t, in id order
            draw_t = rng.integers(0, n - 1 - k + t + 1)

    Each agent's picks come from its draws by Floyd's algorithm (Bentley &
    Floyd, CACM 1987): draw t, on [0, n - 1 - k + t], is picked unless an
    earlier pick holds it, and then n - 1 - k + t is.  Agent ``a``
    influences the agents at the picked positions of the ascending list of
    the n - 1 agents other than ``a``.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    if d > n - 1:
        raise ValueError(f"d={d} exceeds the {n - 1} available targets")
    if not (np.isfinite(weight) and weight >= 0):
        raise ValueError(f"weight must be a nonnegative real, got {weight}")
    agents, idx = _outdegree_draws(n, d, seed)
    return WeightedDigraph(n, _columns=(idx + 1 + (idx >= agents), agents + 1,
                                        np.full(idx.size, weight, dtype=float)))


_WINDOW_ENTRIES = 1 << 17  # matrix entries _floyd resolves at a time


def _floyd(values: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Floyd's picks from draws ``values[:, t]`` on [0, low + t]: draw t keeps
    its value unless an earlier pick holds it, and then picks low + t.

    An earlier pick holds the value when an earlier draw had it, or when the
    value is low + s for an earlier draw s that was itself displaced.  So
    draw t is displaced if a draw on its chain t -> value - low -> ... had a
    value that an earlier draw had; in the rows with a repeated value the
    chains are followed by pointer doubling, in about log2(k) steps."""
    width = values.shape[1]
    cols = np.arange(width)
    ranked = np.sort(values * width + cols, axis=1)  # by value, then by draw
    repeat = ranked[:, 1:] // width == ranked[:, :-1] // width
    hit = np.flatnonzero(repeat.any(axis=1))
    if hit.size == 0:
        return values
    offset = np.arange(0, hit.size * width, width)[:, None]
    displaced = np.zeros(hit.size * width, dtype=bool)
    displaced[(ranked[hit, 1:] % width + offset).ravel()] = repeat[hit].ravel()
    back = values[hit] - low[hit, None]
    back = (np.where((back >= 0) & (back < cols), back, cols) + offset).ravel()  # a chain ends on itself
    while True:
        displaced |= displaced[back]
        jumped = back[back]
        if np.array_equal(jumped, back):
            break
        back = jumped
    values = values.copy()
    values[hit] = np.where(displaced.reshape(hit.size, width), low[hit, None] + cols, values[hit])
    return values


def _outdegree_draws(n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pick of ``generate_bounded_outdegree_family``: the 0-based agent
    and the pool position, in no set order.  Column t of one (n, d) matrix
    holds draw t of every agent with k > t; the filler past k never repeats,
    so only rows with a repeated draw reach _floyd's chain walk.  Windows
    of agents bound _floyd's temporaries and nothing else."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, d + 1, size=n)
    low = n - 1 - counts
    values = np.empty((n, d), dtype=np.int32 if n < 1 << 31 else np.int64)
    values[:] = -1 - np.arange(d)  # filler past k: distinct and below every draw
    rows = np.arange(n)
    for t in range(d):
        rows = rows[counts[rows] > t]
        values[rows, t] = rng.integers(0, low[rows] + t + 1)
    agents, picks = [], []
    step = max(1, _WINDOW_ENTRIES // max(d, 1))
    for start in range(0, n, step):
        block = slice(start, start + step)
        kept = np.arange(d) < counts[block, None]
        picks.append(_floyd(values[block].astype(np.int64), low[block])[kept])
        agents.append(start + np.nonzero(kept)[0])
    return np.concatenate(agents), np.concatenate(picks)


def load_edge_list(path: str | Path) -> WeightedDigraph:
    """Parse an edge-list file.

    Format: '#' starts a comment (anywhere in a line); the first content line
    is ``n=<count>``; each following content line is
    ``influenced influencer weight`` (whitespace-separated).  Violations raise
    a distinct error naming the offending line.

    A bulk parser reads well-formed bodies: a regular file from its path, in
    large chunks, and a pipe or a name numpy would decompress (.bz2, .gz,
    .lzma, .xz) from the body read once.  Whenever it or the edge check
    objects, the line-by-line reader, which accepts exactly the same files,
    parses the body again and reports the error.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        content = _content_lines(handle, start=1)
        lineno, header = next(content, (1, ""))
        if not header.startswith("n="):
            raise MalformedLineError(f"expected header 'n=<count>', got {header!r}" if header
                                     else "file has no 'n=<count>' header", line=lineno)
        try:
            n = int(header[2:])
        except ValueError:
            raise MalformedLineError(
                f"header count is not an integer: {header!r}", line=lineno) from None
        if n < 1:
            raise MalformedLineError(f"node count must be positive, got {n}", line=lineno)
        by_path = (path.suffix not in (".bz2", ".gz", ".lzma", ".xz")
                   and stat.S_ISREG(os.fstat(handle.fileno()).st_mode))
        body = None if by_path else handle.read()  # read once: the path may name a pipe
    try:
        return _read_edges_bulk(path, n, skiprows=lineno) if by_path else _read_edges_bulk(body, n)
    except (ValueError, OverflowError, Warning):  # the line loop decides, and names the error
        pass
    if by_path:  # the body as the read-once route reads it, so a decoding error reads the same
        with path.open("r", encoding="utf-8") as handle:
            for _ in zip(range(lineno), handle):
                pass
            body = handle.read()
    return _read_edge_lines(n, _content_lines(io.StringIO(body), start=lineno + 1))


def _content_lines(lines: Iterable[str], start: int) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line with text left once its comment is cut."""
    return ((lineno, text) for lineno, raw in enumerate(lines, start=start)
            if (text := raw.split("#", 1)[0].strip()))


_BULK_DTYPE = [("i", np.int64), ("j", np.int64), ("w", np.float64)]


def _read_edges_bulk(body: str | Path, n: int, skiprows: int = 0) -> WeightedDigraph:
    """The graph of the edge lines of a string, or of a file after its first
    ``skiprows`` lines, parsed in C.  Raises on any parse error or warning and
    on a failed edge check."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = np.loadtxt(str(body) if isinstance(body, Path) else io.StringIO(body),
                          comments="#", dtype=_BULK_DTYPE, ndmin=1, skiprows=skiprows,
                          encoding="utf-8")
    # the edge check reads each column several times: contiguous copies, the records dropped
    rows = tuple(rows[name].copy() for name in ("i", "j", "w"))
    return WeightedDigraph(n, _columns=rows)


def _read_edge_lines(n: int, content: Iterable[tuple[int, str]]) -> WeightedDigraph:
    """The edges of the numbered content lines after the header, parsed one
    line at a time; the first offending line names the error."""
    edges, lines = [], []  # lines[k] is the file line of edges[k]
    try:
        for lineno, text in content:
            fields = text.split()
            if len(fields) != 3:
                raise MalformedLineError(
                    f"expected 3 fields (influenced influencer weight), got {len(fields)}",
                    line=lineno)
            try:  # ids must be integer literals
                int(fields[0]), int(fields[1])
            except ValueError:
                raise MalformedLineError(
                    f"agent ids must be integers: {text!r}", line=lineno) from None
            try:  # which always parse as floats
                edges.append((float(fields[0]), float(fields[1]), float(fields[2])))
            except ValueError:
                raise MalformedLineError(
                    f"weight is not a real number: {fields[2]!r}", line=lineno) from None
            lines.append(lineno)
        return WeightedDigraph(n, edges)
    except EdgeListError:
        # the first offending line wins, whichever check it breaks
        _check_edges(n, *np.reshape(edges, (-1, 3)).T, lines)
        raise


_SAVE_BLOCK = 1 << 16  # edge rows formatted and written at a time


def save_edge_list(graph: WeightedDigraph, path: str | Path) -> None:
    """Write the canonical edge-list form (sorted by influenced, influencer).

    Weights use shortest round-trip decimal form, so load(save(g)) == g.
    """
    matrix = graph.matrix
    influenced = np.repeat(np.arange(1, graph.n + 1), np.diff(matrix.indptr))
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(f"# influenced\tinfluencer\tweight\nn={graph.n}\n")
        for start in range(0, matrix.nnz, _SAVE_BLOCK):
            block = slice(start, start + _SAVE_BLOCK)
            rows = influenced[block].tolist()
            fields = [None] * (3 * len(rows))  # influenced, influencer, weight per row
            fields[0::3] = rows
            fields[1::3] = (matrix.indices[block] + 1).tolist()
            fields[2::3] = format_distinct(matrix.data[block], lambda ws: list(map(repr, ws)))
            handle.write(("%d\t%d\t%s\n" * len(rows)) % tuple(fields))
