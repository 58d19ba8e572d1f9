import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from seedgame import (WeightedDigraph, cli, dumps_report, format_real, reportio,
                      save_edge_list, write_report)
from seedgame.reportio import _emit, format_distinct


def per_value(values) -> str:
    """The report form of a list, one value at a time."""
    return _emit(list(values))


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1 + 0.2, 1e308, -1e308,
               2.0 ** 53 + 2, 1.0 / 3.0, 123456789.125]


class TestVectorFastPath:
    def test_edge_values_match_the_per_value_form(self):
        vector = np.array(EDGE_VALUES)
        assert _emit(vector) == per_value(EDGE_VALUES)
        assert _emit(vector) == "[" + ", ".join(map(format_real, EDGE_VALUES)) + "]"

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_each_edge_value_alone(self, value):
        assert _emit(np.array([value])) == f"[{format_real(value)}]"

    def test_empty_vector(self):
        assert _emit(np.array([], dtype=float)) == "[]"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_still_become_null(self, bad):
        vector = np.array([1.5, bad, -0.0])
        assert _emit(vector) == "[1.5, null, -0]"
        assert _emit(vector) == per_value([1.5, bad, -0.0])

    @pytest.mark.parametrize("vector,text", [
        (np.array([1, -2, 3]), "[1, -2, 3]"),
        (np.array([True, False]), "[true, false]"),
        (np.array([[0.5, 1.0], [2.0, 0.25]]), "[[0.5, 1], [2, 0.25]]"),
    ])
    def test_other_arrays_unchanged(self, vector, text):
        assert _emit(vector) == text == per_value(vector.tolist())

    def test_report_with_vectors(self):
        report = {"a": np.array(EDGE_VALUES), "b": {"c": np.array([np.nan, 2.0])}}
        assert dumps_report(report) == (
            "{\n  \"a\": " + per_value(EDGE_VALUES) + ",\n  \"b\": {\n"
            "    \"c\": [null, 2]\n  }\n}\n")

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_matches_the_per_value_form(self, vector):
        assert _emit(vector) == per_value(vector.tolist())


MAX = 1.7976931348623157e308
# signed zeros, subnormals, the extremes and neighbours one ulp apart
DISTINCT_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
                 2.2250738585072014e-308, MAX, -MAX, float(np.nextafter(MAX, 0.0)),
                 1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)),
                 0.1, 1.0 / 3.0]


class TestFormatDistinct:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(DISTINCT_POOL), max_size=40))
    def test_same_strings_as_formatting_each_entry(self, values):
        vector = np.array(values, dtype=np.float64)
        for batch, fmt in ((reportio._format_reals, "{:.17g}".format),
                           (lambda xs: list(map(repr, xs)), repr)):
            assert format_distinct(vector, batch) == list(map(fmt, vector.tolist()))

    def test_out_regular_nash_report_formats_each_distinct_value_once(
            self, tmp_path, monkeypatch):
        n = 200
        graph = WeightedDigraph(n, [(i, (i + k) % n + 1, 0.25)
                                    for i in range(1, n + 1) for k in range(3)])
        save_edge_list(graph, tmp_path / "ring.edges")
        formatted, reports = [], []
        count_formats(monkeypatch, formatted)
        write_report = cli.write_report
        monkeypatch.setattr(cli, "write_report",
                            lambda obj, path: reports.append(obj) or write_report(obj, path))
        assert cli.main(["nash", "--graph", str(tmp_path / "ring.edges"),
                         "--out", str(tmp_path)]) == 0
        (report,) = reports
        vectors = [v for v in report["nash"].values()] + \
                  [v for v in report["seeding"].values()]
        assert all(v.size == n and np.unique(v).size == 1 for v in vectors)
        assert len(formatted) == count_distinct_floats(report) < n

        # the bytes are those of the value-by-value form
        monkeypatch.undo()
        assert (tmp_path / "equilibrium.json").read_text() == \
            dumps_report(as_lists(report))


def count_formats(monkeypatch, formatted: list, kernel_min: int = 1) -> None:
    """Record in ``formatted`` every value the report formatter formats: the
    vectors' values the kernel gets, and the values of the one-call batch
    (scalars, and vectors with fewer than kernel_min distinct values)."""
    kernel, batch = reportio._real_rows, reportio._format_reals
    monkeypatch.setattr(reportio, "_KERNEL_MIN", kernel_min)
    monkeypatch.setattr(reportio, "_real_rows",
                        lambda values: formatted.extend(values.tolist()) or kernel(values))
    monkeypatch.setattr(reportio, "_format_reals",
                        lambda values: formatted.extend(values) or batch(values))


def count_distinct_floats(obj, seen=None) -> int:
    """Values the report formatter gets: each distinct value of each float
    vector whose contents did not appear earlier in the report, and each
    float scalar."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if obj.tobytes() in seen:
            return 0
        seen.add(obj.tobytes())
        return np.unique(obj.view(np.int64)).size
    if isinstance(obj, dict):
        return sum(count_distinct_floats(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(count_distinct_floats(v, seen) for v in obj)
    return isinstance(obj, float)


class TestRepeatedVectors:
    def test_a_repeated_vector_is_formatted_once(self, monkeypatch):
        v = np.array([0.1, 0.2, 0.1, 1.0 / 3.0])
        report = {"a": v, "b": {"c": v.copy(), "d": -v}, "e": [v.copy(), 2.5],
                  "f": np.array([0.0, -0.0]), "g": np.array([-0.0, 0.0])}
        text = dumps_report(as_lists(report))
        formatted = []
        count_formats(monkeypatch, formatted)
        assert dumps_report(report) == text
        # v once, -v once, the list's v again (it is not a report field), the
        # scalar, and the two zero vectors, whose bits differ
        assert len(formatted) == 3 + 3 + 3 + 1 + 2 + 2

    @pytest.mark.parametrize("kernel_min", [1, 3, 4, 1000])
    def test_each_distinct_value_once_on_either_path(self, monkeypatch, kernel_min):
        # v has 3 distinct values: kernel_min 3 or less sends it to the kernel
        v = np.array([0.1, 0.2, 0.1, 1.0 / 3.0] * 50)
        report = {"a": v, "b": -v, "c": np.array([0.0, -0.0] * 9)}
        text = dumps_report(as_lists(report))
        formatted = []
        count_formats(monkeypatch, formatted, kernel_min)
        assert dumps_report(report) == text
        assert len(formatted) == 3 + 3 + 2

    def test_equal_bytes_of_another_dtype_or_shape_are_not_shared(self):
        v = np.arange(4.0)
        report = {"v": v, "i": v.view(np.int64), "m": v.reshape(2, 2)}
        assert dumps_report(report) == dumps_report(as_lists(report))

    def test_a_repeated_id_list_is_formatted_once(self, monkeypatch):
        ids = list(range(1, 3873))
        # sparsify's layout: one set under "sets" and again under "epsilon"
        report = {"sets": {"bar": ids, "under": list(ids)},
                  "epsilon": {"sets": {"bar": tuple(ids), "under": ids}, "tau": 0.25},
                  "flags": [True, 1], "ones": [1, 1], "again": (1, 1)}
        pieces = []
        reportio._layout(report, 0, NoMemo(), pieces)
        unshared = "".join(pieces) + "\n"
        emitted = []
        emit = reportio._emit
        monkeypatch.setattr(reportio, "_emit", lambda obj: emitted.append(obj) or emit(obj))
        assert dumps_report(report) == unshared
        # the ids once, [True, 1] (True is no int id), and [1, 1] once
        assert [len(obj) for obj in emitted if isinstance(obj, (list, tuple))] == [3872, 2, 2]


class NoMemo(dict):
    """A memo that never holds anything: every value is formatted again."""

    def __contains__(self, key):
        return False

    def setdefault(self, key, value):
        return value


def as_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [as_lists(value) for value in obj]
    return obj


def per_element(items) -> str:
    """The list form element by element, as before the int join."""
    return "[" + ", ".join(_emit(v) for v in items) + "]"


class TestIdLists:
    @pytest.mark.parametrize("items,text", [
        ([1, 22, 333], "[1, 22, 333]"),
        ((4, 8, 12), "[4, 8, 12]"),
        ([-3, 0, 10 ** 20], "[-3, 0, 100000000000000000000]"),
        ([True, 1], "[true, 1]"),
        ([np.int64(3)], "[3]"),
        ([np.int64(3), 4], "[3, 4]"),
        ((), "[]"),
        ([], "[]"),
        ([[1, 2], [3]], "[[1, 2], [3]]"),
        ([1, 2.5], "[1, 2.5]"),
        ([1, None], "[1, null]"),
    ])
    def test_same_text_as_element_by_element(self, items, text):
        assert _emit(items) == text == per_element(items)


def kernel_text(values) -> str:
    """The kernel's text of a float64 vector, each entry formatted."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return ""
    chars, keep = reportio._real_rows(values)
    return np.compress(keep.ravel(), chars.ravel()).tobytes().decode("ascii")[:-2]


def percent_text(values) -> str:
    return ", ".join("%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist())


def with_neighbours(values) -> np.ndarray:
    """The values, both signs, and the doubles one ulp either side."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate((values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)))
    values = values[np.isfinite(values)]
    return np.concatenate((values, -values))


def exact_ties() -> list[tuple[float, int]]:
    """Pairs (x, d) with x = (2N + 1) / (2 * 10^d) a double and N of 17
    digits, so %.17g must round x * 10^d = N + 1/2 half to even: x = q /
    2^(d + 1) with q = (2N + 1) / 5^d odd and below 2^53."""
    ties = []
    for d in range(1, 25):
        low, high = -(-2 * 10 ** 16 // 5 ** d), min(2 * 10 ** 17 // 5 ** d, 2 ** 53)
        rng = np.random.default_rng(d)
        for q in {low, high - 1, *rng.integers(low, high, 20).tolist()}:
            if low <= q | 1 < high:
                ties.append(((q | 1) / 2 ** (d + 1), d))
    return ties


class TestRealKernel:
    """The vector kernel gives exactly the bytes of "%.17g" % v per entry."""

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(0, 60),
                  elements=st.floats(allow_nan=False, allow_infinity=False,
                                     allow_subnormal=True)))
    def test_hypothesis_arrays(self, values):
        assert kernel_text(values) == percent_text(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(1912)
        values = rng.integers(-2 ** 63, 2 ** 63, 200_000, dtype=np.int64,
                              endpoint=False).view(np.float64)
        values = values[np.isfinite(values)]
        assert kernel_text(values) == percent_text(values)

    def test_powers_of_ten_and_neighbours(self):
        values = with_neighbours([float(f"1e{k}") for k in range(-323, 309)])
        assert kernel_text(values) == percent_text(values)

    def test_ties(self):
        ties = exact_ties()
        assert len(ties) > 300
        for x, d in ties:  # each one is a tie at 17 digits
            scaled = Fraction(x) * 10 ** d
            assert scaled.denominator == 2 and 10 ** 16 <= scaled < 10 ** 17
        # half to even rounds both down and up
        assert {(Fraction(x) * 10 ** d).numerator // 2 % 2 for x, d in ties} == {0, 1}
        values = with_neighbours([x for x, _ in ties])
        assert kernel_text(values) == percent_text(values)

    def test_short_decimals(self):
        values = with_neighbours([m * 10.0 ** k for m in (5, 15, 25, 125)
                                  for k in range(-320, 306)]
                                 + [float(f"{m}e{k}") for m in (5, 15, 25, 125)
                                    for k in range(-326, 306)])
        assert kernel_text(values) == percent_text(values)

    def test_mixed_exponents_and_signs(self):
        rng = np.random.default_rng(7)
        size = 50_000
        values = (rng.random(size) * 10.0 ** rng.integers(-320, 308, size)
                  * rng.choice([-1.0, 1.0], size))
        values[rng.integers(0, size, 500)] = 0.0
        values[rng.integers(0, size, 500)] = -0.0
        values[rng.integers(0, size, 500)] = rng.random(500) * 10.0 ** rng.integers(-8, 20, 500)
        assert kernel_text(values) == percent_text(values)

    @pytest.mark.parametrize("value,text", [
        (1e-280, "9.9999999999999996e-281"),
        (1.0000000000000001e-280, "1.0000000000000001e-280"),
        (1e16, "10000000000000000"), (1e17, "1e+17"), (0.0001, "0.0001"),
        (0.00001, "1.0000000000000001e-05"), (123456789.125, "123456789.125"),
        (-2.5, "-2.5"), (1e100, "1e+100"), (-1.5e-100, "-1.5e-100"),
        (-1.1e-100, "-1.0999999999999999e-100"),
    ])
    def test_layouts(self, value, text):
        assert kernel_text([value]) == "%.17g" % value == text

    @pytest.mark.parametrize("size", [1, -1, 0, 1000])
    @pytest.mark.parametrize("distinct", [1, 2, -1, 0, 1000])
    def test_report_vectors_either_side_of_the_cutoff(self, size, distinct):
        # -1 and 0 stand for one below the cutoff and the cutoff itself
        size, distinct = (reportio._KERNEL_MIN + k if k < 1 else k for k in (size, distinct))
        rng = np.random.default_rng(size + distinct)
        values = rng.random(distinct) * 10.0 ** rng.integers(-30, 30, distinct)
        vector = rng.permutation(np.resize(values, size))
        assert _emit(vector) == per_value(vector.tolist()) == "[" + percent_text(vector) + "]"

    @pytest.mark.parametrize("block", [1, 7, 300, 16384])
    def test_report_vectors_in_blocks(self, monkeypatch, block):
        monkeypatch.setattr(reportio, "_BLOCK", block)
        rng = np.random.default_rng(block)
        values = rng.random(300) * 10.0 ** rng.integers(-30, 30, 300)
        for vector in (values, values[rng.integers(0, 300, 1001)]):
            assert _emit(vector) == "[" + percent_text(vector) + "]"


class TestBoundedText:
    """A report is joined once from its pieces, its vectors are formatted a
    _BLOCK at a time, and it is written in slices."""

    def test_peak_memory_is_within_three_times_the_text(self):
        rng = np.random.default_rng(18)
        size = 10_000
        values = rng.random(size)
        report = {"version": "0", "config": {"out": "reports", "tol": 1e-10},
                  "a": values, "b": values * 3.0,  # all distinct
                  "c": rng.random(size // 2)[rng.integers(0, size // 2, size)],  # repeats
                  "d": {"e": np.round(values, 2)}}  # few distinct values
        dumps_report(report)  # the cached tables first
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            text = dumps_report(report)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)

    @pytest.mark.parametrize("distinct", [5, 300, 1000])  # % path, repeats, all distinct
    def test_kernel_work_stays_in_blocks(self, monkeypatch, distinct):
        monkeypatch.setattr(reportio, "_BLOCK", 64)
        sizes = []
        kernel = reportio._real_rows
        monkeypatch.setattr(reportio, "_real_rows",
                            lambda values: sizes.append(values.size) or kernel(values))
        rng = np.random.default_rng(distinct)
        values = rng.random(distinct) * 10.0 ** rng.integers(-30, 30, distinct)
        vector = values[rng.permutation(np.arange(1000) % distinct)]
        assert _emit(vector) == "[" + percent_text(vector) + "]"
        assert max(sizes, default=0) <= 64
        assert sum(sizes) == (distinct if distinct >= reportio._KERNEL_MIN else 0)

    def test_written_in_slices_as_one_text(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reportio, "_WRITE_SLICE", 7)
        report = {"out": "r\u00e9sum\u00e9/\u6f22\u5b57", "v": np.linspace(0.0, 1.0, 33),
                  "ids": list(range(1, 40))}
        write_report(report, tmp_path / "r.json")
        assert (tmp_path / "r.json").read_bytes() == dumps_report(report).encode("utf-8")
