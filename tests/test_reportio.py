import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from seedgame import dumps_report, format_real
from seedgame.reportio import _emit


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
