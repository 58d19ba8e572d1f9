"""In-memory span tracer that wraps the package's functions from outside.

``Tracer.install`` replaces each hooked function (and the two constructors)
by a timing wrapper in every ``seedgame`` module namespace that holds it, so
calls made through ``from .graph import load_edge_list`` style imports are
caught too; ``uninstall`` puts the originals back.  Spans are kept in memory
as (name, start, end, parent) rows plus per-span attributes and written out
once at the end of the run.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _katz_name(args, kwargs, low_attenuation: float) -> str:
    attenuation = kwargs.get("attenuation", args[1] if len(args) > 1 else None)
    return "centrality.katz_low" if attenuation == low_attenuation else "centrality.katz_high"


def _trajectory_bytes(args, kwargs, result) -> dict:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name or callable choosing it, attribute extractor)
_HOOKS = (
    ("graph", "load_edge_list", "graph.load_edge_list", None),
    ("graph", "WeightedDigraph.__init__", "graph.construct", None),
    ("graph", "validate_assumptions", "graph.validate", None),
    ("graph", "spectral_radius", "graph.spectral_radius", None),
    ("graph", "generate_bounded_outdegree_family", "graph.generate", None),
    ("graph", "generate_core_periphery", "graph.generate", None),
    ("graph", "save_edge_list", "graph.save_edge_list", None),
    ("centrality", "_katz_with_residual", _katz_name, None),
    ("centrality", "biproduct_centrality", "centrality.bundle", None),
    ("game", "DiscountedSolver.__init__", "game.solver_init", None),
    ("game", "firm_utility", "game.firm_utility", None),
    ("game", "epsilon_for_sets", "game.epsilon_for_sets", None),
    ("game", "sparsify", "game.sparsify", None),
    ("game", "nash_deviation_check", "game.deviation_check", None),
    ("dynamics", "simulate", "dynamics.simulate",
     lambda args, kwargs, result: {"horizon": int(result.horizon)}),
    ("dynamics", "write_trajectory_csv", "dynamics.trajectory_csv", _trajectory_bytes),
    ("asr", "scan_family", "asr.scan_family", None),
    ("reportio", "dumps_report", "reportio.dumps",
     lambda args, kwargs, result: {"bytes": len(result.encode("utf-8"))}),
)

ROOT_SPAN = "cli"


class Tracer:
    """Collects spans: ``call`` opens the root span around one CLI call, the
    installed wrappers open the rest."""

    def __init__(self, low_attenuation: float):
        self.low_attenuation = low_attenuation
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.missing: set[str] = set()  # hooks the package no longer has
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, func, *args, **kwargs):
        """Run func(*args, **kwargs) inside a span called name."""
        index = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, original, name, extract):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs, self.low_attenuation) if callable(name) else name
            index = self._open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if extract is not None:
                self.attrs[index] = extract(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "seedgame" or key.startswith("seedgame."))]
        for module_name, attribute, name, extract in _HOOKS:
            owner = sys.modules.get(f"seedgame.{module_name}")
            holder_name, _, method = attribute.partition(".")
            target = getattr(owner, holder_name, None)
            if target is None or (method and method not in vars(target)):
                self.missing.add(f"{module_name}.{attribute}")
                continue
            if method:  # constructor: patch the class attribute
                original = vars(target)[method]
                self._patch(target, method, self._wrap(original, name, extract))
                continue
            wrapper = self._wrap(target, name, extract)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self, first: int, last: int) -> tuple[dict, dict, dict]:
        """Per span name over spans [first, last): summed self time (duration
        minus the time covered by direct children), call count, and summed
        numeric attributes."""
        child_time = defaultdict(float)
        for index in range(first, last):
            parent = self.parents[index]
            if parent >= first:
                child_time[parent] += self.ends[index] - self.starts[index]
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        totals: dict[str, int] = defaultdict(int)
        for index in range(first, last):
            name = self.names[index]
            seconds[name] += self.ends[index] - self.starts[index] - child_time[index]
            calls[name] += 1
            for key, value in self.attrs.get(index, {}).items():
                totals[f"{name}.{key}"] += value
        return seconds, calls, totals

    def dump(self, path: Path) -> None:
        """One JSON object per line: id, name, start, end (seconds), parent
        id (-1 for a root) and any attributes."""
        with path.open("w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                row = {"id": index, "name": name, "start": self.starts[index],
                       "end": self.ends[index], "parent": self.parents[index]}
                row.update(self.attrs.get(index, {}))
                handle.write(json.dumps(row) + "\n")
