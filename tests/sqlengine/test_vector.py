"""Unit tests for the vectorized (column-at-a-time) execution tier."""

import pytest

from repro.sqlengine import execute_sql, parse_expression
from repro.sqlengine.planner import FrameShape
from repro.sqlengine.vector import (
    VectorContext,
    compile_vector,
    distinct_indexes,
    truthy_indexes,
    vector_enabled,
)
from repro.table import DataFrame


@pytest.fixture
def frame() -> DataFrame:
    return DataFrame({
        "a": [1, 2, None, 4, 5],
        "b": [10.0, None, 30.0, 2.5, 5.0],
        "s": ["alpha", "Beta", None, "delta", "Echo"],
    }, name="T0")


def _kernel(frame: DataFrame, text: str):
    return compile_vector(parse_expression(text), FrameShape(frame))


def _run(frame: DataFrame, text: str):
    fn = _kernel(frame, text)
    assert fn is not None, f"expected a kernel for {text!r}"
    return list(fn(VectorContext(frame)))


class TestFlag:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_SQL_VECTOR", raising=False)
        assert vector_enabled()

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SQL_VECTOR", "0")
        assert not vector_enabled()


class TestKernels:
    def test_column_passthrough(self, frame):
        assert _run(frame, "a") == [1, 2, None, 4, 5]

    def test_numeric_comparison_null_mask(self, frame):
        assert _run(frame, "a > 1") == [False, True, None, True, True]

    def test_text_comparison_type_classes(self, frame):
        # Numbers order before text in SQLite's type-class ordering,
        # so a numeric cell would be < any string; here all text.
        assert _run(frame, "s < 'c'") == [True, True, None, False, True]

    def test_arithmetic_and_division_by_zero(self, frame):
        assert _run(frame, "a * 2 + 1") == [3, 5, None, 9, 11]
        assert _run(frame, "a / 0") == [None] * 5

    def test_eager_and_matches_three_valued_logic(self, frame):
        # NULL AND False = False, NULL AND True = NULL.
        assert _run(frame, "a > 1 AND b > 3") == \
            [False, None, None, False, True]

    def test_eager_or(self, frame):
        assert _run(frame, "a > 4 OR b > 3") == \
            [True, None, True, False, True]

    def test_like_literal_pattern(self, frame):
        assert _run(frame, "s LIKE '%a'") == \
            [True, True, None, True, False]

    def test_case_when(self, frame):
        got = _run(frame, "CASE WHEN a > 3 THEN 'hi' ELSE 'lo' END")
        assert got == ["lo", "lo", "lo", "hi", "hi"]

    def test_in_list_with_null_item(self, frame):
        # 1 IN (1, NULL) is True; 2 IN (1, NULL) is NULL.
        assert _run(frame, "a IN (1, NULL)") == \
            [True, None, None, None, None]

    def test_between(self, frame):
        assert _run(frame, "a BETWEEN 2 AND 4") == \
            [False, True, None, True, False]

    def test_is_null(self, frame):
        assert _run(frame, "a IS NULL") == \
            [False, False, True, False, False]

    def test_scalar_function(self, frame):
        assert _run(frame, "UPPER(s)") == \
            ["ALPHA", "BETA", None, "DELTA", "ECHO"]


class TestFallback:
    def test_unresolvable_column_is_not_total(self, frame):
        assert _kernel(frame, "missing > 1") is None

    def test_unsafe_function_is_not_total(self, frame):
        # sqrt raises on negative input, so it never vectorizes.
        assert _kernel(frame, "SQRT(a)") is None

    def test_aggregate_is_not_total_rowwise(self, frame):
        assert _kernel(frame, "SUM(a)") is None

    def test_non_numeric_arithmetic_is_not_total(self, frame):
        assert _kernel(frame, "s + 1") is None


class TestTruthyIndexes:
    def test_filters_and_offsets(self):
        mask = [True, False, None, True, 1, 0]
        assert truthy_indexes(mask) == [0, 3, 4]
        assert truthy_indexes(mask, base=10) == [10, 13, 14]


class TestDistinctIndexes:
    def test_multi_column_first_occurrence_order(self):
        frame = DataFrame({
            "a": [1, 2, 1, 2, 1],
            "b": ["x", "y", "x", "y", "z"],
        }, name="T0")
        assert distinct_indexes(frame) == [0, 1, 4]

    def test_type_tagged_keys_keep_lookalikes_distinct(self):
        # 1 / 1.0 / True hash and compare equal in Python; the SQL
        # engine (like the row scan it replaces) keeps them distinct.
        frame = DataFrame({"a": [1, 1.0, True, 1]}, name="T0")
        assert distinct_indexes(frame) == [0, 1, 2]

    def test_nulls_dedupe_to_one_row(self):
        frame = DataFrame({"a": [None, 1, None]}, name="T0")
        assert distinct_indexes(frame) == [0, 1]

    def test_empty_frame(self):
        frame = DataFrame({"a": []}, name="T0")
        assert distinct_indexes(frame) == []

    def test_matches_row_scan_exactly(self):
        import random

        from repro.table.ops import distinct as row_distinct
        rng = random.Random(13)
        frame = DataFrame({
            "a": [rng.choice([1, 2, None, 1.0, "1"])
                  for _ in range(60)],
            "b": [rng.choice(["x", "y"]) for _ in range(60)],
        }, name="T0")
        vectorized = frame.take(distinct_indexes(frame))
        assert vectorized.to_rows() == row_distinct(frame).to_rows()


class TestCaching:
    def test_full_range_kernels_cached_on_frame(self, frame):
        fn = _kernel(frame, "a * 2 + 1")
        first = fn(VectorContext(frame))
        assert frame.kernel_cache(), "full-range result should be cached"
        again = fn(VectorContext(frame))
        assert first is again

    def test_chunked_contexts_stay_out_of_frame_cache(self, frame):
        fn = _kernel(frame, "a * 3 + 1")
        before = dict(frame.kernel_cache())
        fn(VectorContext(frame, 1, 3))
        assert dict(frame.kernel_cache()) == before

    def test_literal_types_do_not_collide(self):
        # Literal(7) == Literal(7.0) == Literal(True) under dataclass
        # equality; the kernel/plan caches must still keep them apart.
        frame = DataFrame({"x": [1, 2]}, name="T0")
        catalog = {"T0": frame}
        assert execute_sql("SELECT 7 / 2 FROM T0", catalog).to_rows() \
            == [(3,), (3,)]
        assert execute_sql("SELECT 7.0 / 2 FROM T0", catalog).to_rows() \
            == [(3.5,), (3.5,)]
        assert execute_sql("SELECT 1 = 1 FROM T0", catalog).to_rows() \
            == [(True,), (True,)]

    def test_setitem_invalidates_kernel_cache(self):
        frame = DataFrame({"x": [1, 2, 3]}, name="T0")
        catalog = {"T0": frame}
        sql = "SELECT x * 10 FROM T0 WHERE x + 0 > 1"
        assert execute_sql(sql, catalog).to_rows() == [(20,), (30,)]
        frame["x"] = [5, 6, 1]
        assert execute_sql(sql, catalog).to_rows() == [(50,), (60,)]


class TestGroupBySemantics:
    """NULL and mixed-dtype group keys on every execution tier."""

    MODES = ({}, {"REPRO_SQL_VECTOR": "0"})

    def _run_modes(self, sql, catalog, monkeypatch):
        outcomes = []
        for env in self.MODES:
            monkeypatch.delenv("REPRO_SQL_VECTOR", raising=False)
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            result = execute_sql(sql, catalog)
            outcomes.append((result.columns, result.to_rows()))
        monkeypatch.delenv("REPRO_SQL_VECTOR", raising=False)
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_null_group_keys_form_one_group(self, monkeypatch):
        frame = DataFrame({
            "k": ["a", None, "a", None, "b"],
            "v": [1, 2, 3, 4, 5],
        }, name="T0")
        columns, rows = self._run_modes(
            "SELECT k, COUNT(*) AS n, SUM(v) FROM T0 "
            "GROUP BY k ORDER BY n DESC, k",
            {"T0": frame}, monkeypatch)
        # NULL sorts first within the n=2 tie, as in SQLite.
        assert rows == [(None, 2, 6), ("a", 2, 4), ("b", 1, 5)]

    def test_mixed_dtype_keys(self, monkeypatch):
        frame = DataFrame({
            "k": [1, "1", 1.0, "one", None, 1],
            "v": [10, 20, 30, 40, 50, 60],
        }, name="T0")
        _, rows = self._run_modes(
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM T0 "
            "GROUP BY k ORDER BY s",
            {"T0": frame}, monkeypatch)
        # Whatever the grouping classes are, all tiers must agree and
        # cover every row exactly once.
        assert sum(n for n, _ in rows) == 6
        assert sum(s for _, s in rows) == 210
