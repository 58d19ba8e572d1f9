from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from seedgame import WeightedDigraph, cli, dumps_report, format_real, reportio, save_edge_list
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


def count_formats(monkeypatch, formatted: list) -> None:
    """Record in ``formatted`` every value the report formatter formats."""
    batch = reportio._format_reals
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

    def test_equal_bytes_of_another_dtype_or_shape_are_not_shared(self):
        v = np.arange(4.0)
        report = {"v": v, "i": v.view(np.int64), "m": v.reshape(2, 2)}
        assert dumps_report(report) == dumps_report(as_lists(report))


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
