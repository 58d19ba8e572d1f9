"""Deterministic report serialization: JSON with reals at 17 significant
digits, preserving dict insertion order.  Repeated runs over identical inputs
produce byte-identical files."""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def _format_reals(values: list[float]) -> list[str]:
    """17-significant-digit decimal form of each value, all in one % call."""
    return ("%.17g\0" * len(values) % tuple(values)).split("\0")[:-1]


def format_real(x: float) -> str:
    """17-significant-digit decimal form (exact round-trip for doubles)."""
    return _format_reals([float(x)])[0]


def format_distinct(values: np.ndarray, fmt) -> list[str]:
    """The texts of the entries of a 1-D float64 vector, from fmt, which maps
    a list of floats to their texts and gets each distinct value once.
    Values are keyed by their bits, so -0.0 stays apart from 0.0."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if bits.size == values.size:
        return fmt(values.tolist())
    texts = np.array(fmt(bits.view(np.float64).tolist()), dtype=object)
    return texts[inverse].tolist()


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            # JSON has no literal for these; reports should flag them upstream
            return "null"
        return format_real(x)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64 and np.isfinite(obj).all():
            return "[" + ", ".join(format_distinct(obj, _format_reals)) + "]"
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if all(type(v) is int for v in obj):
            return "[" + ", ".join(map(str, obj)) + "]"
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            parts.append(f"{json.dumps(key, ensure_ascii=False)}: {_emit(value)}")
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _indent(obj, level: int, memo: dict) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict) and obj:
        parts = [f"{inner}{json.dumps(k, ensure_ascii=False)}: {_indent(v, level + 1, memo)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) and len(obj) and any(isinstance(v, dict) for v in obj):
        parts = [f"{inner}{_indent(v, level + 1, memo)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, np.ndarray):  # an array repeated in one report is formatted once
        key = (obj.dtype.str, obj.shape, obj.tobytes())
        return memo[key] if key in memo else memo.setdefault(key, _emit(obj))
    return _emit(obj)


def dumps_report(obj: dict) -> str:
    """Serialize a report dict; top-level and nested dicts are indented,
    numeric vectors stay on one line."""
    return _indent(obj, 0, {}) + "\n"


def write_report(obj: dict, path: str | Path) -> None:
    Path(path).write_text(dumps_report(obj), encoding="utf-8")
