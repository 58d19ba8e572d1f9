"""Deterministic report serialization: JSON with reals at 17 significant
digits, preserving dict insertion order.  Repeated runs over identical inputs
produce byte-identical files."""
from __future__ import annotations

import functools
import hashlib
import itertools
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


# A report vector is laid out as a uint8 matrix, one row per entry: each row
# holds every byte any "%.17g" text can have, in _SLOTS order, and a mask row
# keeps the ones the entry's text has, so one compress of the whole matrix is
# the text.  Slots: the sign, "0." and three zeros of the fixed form below 1,
# 17 (digit, point) pairs, "e", the exponent's sign and three digits, ", ".
_SLOTS = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000, ", dtype=np.uint8)
_DIGITS, _EXPONENT = 6, 40  # first digit slot, the "e" slot
# the fast path's range: 10^(16-E) and its low part stay normal doubles
_FAST_MIN, _FAST_MAX, _E_MAX = 1e-280, 1e280, 281
_TIE_MARGIN = 1e-9  # the scaled value's error is below 1e-14
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
# fewer distinct values are faster through one % call than through the kernel
_KERNEL_MIN = 160
_BLOCK = 4096  # entries per byte matrix
_WRITE_SLICE = 1 << 18  # characters encoded and written at a time


@functools.cache
def _pow10() -> tuple[np.ndarray, np.ndarray]:
    """10^k for k = 16 - E, E from _E_MAX down to -_E_MAX, as double-double
    pairs (hi, lo) rounded from the exact rationals 10^k."""
    hi, lo = [], []
    for k in range(16 - _E_MAX, 17 + _E_MAX):
        if k >= 0:
            power = 10 ** k
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:  # int / int rounds correctly
            power = 10 ** -k
            hi.append(1 / power)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * power) / (den * power))
    hi, lo = np.array(hi), np.array(lo)
    hi.flags.writeable = lo.flags.writeable = False  # shared by every call
    return hi, lo


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mask rows of every text layout and, by E (at _E_MAX - E, as in
    _pow10), the first row of its layout and the exponent's sign and three
    digits.  A layout's 34 rows are at 2 * (s - 1) + negative for s
    significant digits; layout E + 4 is the fixed form (-4 <= E <= 16), 21
    the exponent form with two exponent digits and 22 with three."""
    rows = np.zeros((23, 17, 2, _SLOTS.size), dtype=bool)
    rows[..., -2:] = True  # the separator
    rows[:, :, 1, 0] = True  # the sign
    for form in range(23):
        for s in range(1, 18):
            row, e, shown = rows[form, s - 1], form - 4, s
            if form < 4:  # 0.000ddd
                row[:, 1:2 - e] = True
            elif form < 21:  # the E + 1 digits before the point, and a point if more follow
                shown = max(s, e + 1)
                row[:, _DIGITS + 2 * e + 1] = s > e + 1
            else:  # d.ddde+XX
                row[:, _DIGITS + 1] = s > 1
                row[:, _EXPONENT:_EXPONENT + 5] = True
                row[:, _EXPONENT + 2] = form == 22
            row[:, _DIGITS:_DIGITS + 2 * shown:2] = True
    exponents = range(_E_MAX, -_E_MAX - 1, -1)
    forms = [e + 4 if -4 <= e <= 16 else 21 if abs(e) < 100 else 22 for e in exponents]
    signed = b"".join(b"%+04d" % e for e in exponents)
    rows, first_rows = rows.reshape(-1, _SLOTS.size), 34 * np.array(forms)
    rows.flags.writeable = first_rows.flags.writeable = False  # shared by every call
    return rows, first_rows, np.frombuffer(signed, dtype=np.uint8).reshape(-1, 4)


def _digits17(a: np.ndarray, at_e: np.ndarray, fast: np.ndarray) -> np.ndarray:
    """The 17 significant digits of each entry of a, E's row in the tables at
    at_e, as an int64; an entry the kernel cannot decide is cleared in fast.
    Its own function, so that the double-double temporaries are freed."""
    hi_table, lo_table = _pow10()
    hi = hi_table[at_e]
    # a * (hi + lo) = p + r: p = fl(a * hi), its rounding error exactly (Dekker)
    p = a * hi
    big = _SPLIT * a
    a_hi = big - (big - a)
    a_lo = a - a_hi
    big = _SPLIT * hi
    b_hi = big - (big - hi)
    b_lo = hi - b_hi
    r = (((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
         + a * lo_table[at_e])
    whole = np.floor(r)
    frac = r - whole
    top = p.astype(np.int64) + whole.astype(np.int64)  # p >= 2^53 is integral
    fast &= (np.abs(frac - 0.5) > _TIE_MARGIN) & (top >= 10 ** 16) & (top < 10 ** 17 - 1)
    return np.where(fast, top + (frac > 0.5), 10 ** 16)


def _real_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The "%.17g" text of each entry of a finite float64 vector, followed by
    ", ", as the rows of a byte matrix and of the mask of the bytes each row
    keeps.  |x| * 10^(16-E), E = floor(log10|x|), is found in double-double
    arithmetic and rounded to 17 digits; an entry whose scaled value lies
    within _TIE_MARGIN of a rounding tie or has not 17 digits before rounding
    (E was off by one), and a zero, a subnormal or an entry outside
    [_FAST_MIN, _FAST_MAX], gets Python's own "%.17g"."""
    size = values.size
    a = np.abs(values)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    at_e = _E_MAX - np.floor(np.log10(a)).astype(np.intp)  # E's row in the tables
    digits17 = _digits17(a, at_e, fast)
    halves = np.empty((size, 2), dtype=np.int32)  # 8 and 9 digits
    halves[:, 0] = digits17 // 10 ** 9
    halves[:, 1] = digits17 - halves[:, 0].astype(np.int64) * 10 ** 9
    digits = np.empty((size, 2, 9), dtype=np.uint8)
    for place in range(8, -1, -1):
        rest = halves // 10
        digits[:, :, place] = halves - rest * 10
        halves = rest
    digits = digits.reshape(size, 18)[:, 1:]
    s = 17 - np.argmax(digits[:, ::-1] != 0, axis=1)
    masks, first_row, exponents = _layouts()
    keep = masks.take(first_row[at_e] + 2 * s - 2 + (values < 0), axis=0)
    chars = np.tile(_SLOTS, (size, 1))
    chars[:, _DIGITS:_EXPONENT:2] = digits + 48
    chars[:, _EXPONENT + 1:_EXPONENT + 5] = exponents[at_e]
    for row in np.flatnonzero(~fast).tolist():
        text = np.frombuffer(b"%.17g" % values[row], dtype=np.uint8)
        chars[row, :text.size] = text
        keep[row, :-2] = np.arange(_SLOTS.size - 2) < text.size
    return chars, keep


def _real_vector(obj) -> bool:
    return (isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64
            and bool(np.isfinite(obj).all()))


def _vector_pieces(values: np.ndarray) -> list[str]:
    """The report form of a finite 1-D float64 vector, as one piece per
    _BLOCK entries, each distinct value (by bits, so -0.0 stays apart from
    0.0) formatted once."""
    if values.size == 0:
        return ["[]"]
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    if bits.size < _KERNEL_MIN:  # one % call, as for a scalar
        texts = np.array(_format_reals(distinct.tolist()), dtype=object)
        return ["[", ", ".join(texts[inverse].tolist()), "]"]
    if bits.size < values.size:
        # the distinct values' rows, made a block at a time, with the bytes
        # their texts leave out set to zero (no text byte is zero)
        texts = np.empty((bits.size, _SLOTS.size), dtype=np.uint8)
        for start in range(0, bits.size, _BLOCK):
            chars, keep = _real_rows(distinct[start:start + _BLOCK])
            np.multiply(chars, keep, out=texts[start:start + _BLOCK])
    pieces = ["["]
    for start in range(0, values.size, _BLOCK):  # the byte matrices stay small
        if bits.size == values.size:
            chars, keep = _real_rows(values[start:start + _BLOCK])
            text = np.compress(keep.ravel(), chars.ravel())
        else:
            rows = texts.take(inverse[start:start + _BLOCK], axis=0).ravel()
            text = np.compress(rows != 0, rows)
        pieces.append(str(text, "ascii"))
    pieces[-1] = pieces[-1][:-2] + "]"  # no separator after the last entry
    return pieces


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
        if _real_vector(obj):
            return "".join(_vector_pieces(obj))
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= {int}:
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


def _layout(obj, level: int, memo: dict, out: list[str]) -> None:
    """Append the report form of obj, indented at level, to out as pieces,
    so that the report is joined once."""
    inner = "  " * (level + 1)
    if isinstance(obj, dict) and obj:
        for k, (key, value) in enumerate(obj.items()):
            out.append(f"{',' if k else '{'}\n{inner}{json.dumps(key, ensure_ascii=False)}: ")
            _layout(value, level + 1, memo, out)
        out.append(f"\n{'  ' * level}}}")
        return
    if isinstance(obj, (list, tuple)) and any(map(isinstance, obj, itertools.repeat(dict))):
        for k, value in enumerate(obj):
            out.append(f"{',' if k else '['}\n{inner}")
            _layout(value, level + 1, memo, out)
        out.append(f"\n{'  ' * level}]")
        return
    # an array or id list repeated in a report is formatted once; an array is
    # known by its dtype, shape and a 256-bit digest of its bytes
    if isinstance(obj, np.ndarray):
        key = (obj.dtype.str, obj.shape, hashlib.blake2b(obj.tobytes()).digest())
    elif isinstance(obj, (list, tuple)) and set(map(type, obj)) <= {int}:
        key = tuple(obj)  # exact ints only: True would hash as 1
    else:
        out.append(_emit(obj))
        return
    out.extend(memo[key] if key in memo else memo.setdefault(
        key, _vector_pieces(obj) if _real_vector(obj) else [_emit(obj)]))


def dumps_report(obj: dict) -> str:
    """Serialize a report dict; top-level and nested dicts are indented,
    numeric vectors stay on one line."""
    out = []
    _layout(obj, 0, {}, out)
    out.append("\n")
    return "".join(out)


def write_report(obj: dict, path: str | Path) -> None:
    text = dumps_report(obj)
    with Path(path).open("wb") as handle:  # encoded a slice at a time
        for start in range(0, len(text), _WRITE_SLICE):
            handle.write(text[start:start + _WRITE_SLICE].encode("utf-8"))
