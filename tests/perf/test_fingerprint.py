"""Content fingerprinting: digests must track content, not identity."""

from repro.perf import combined_fingerprint, table_digest
from repro.table import DataFrame


def _frame() -> DataFrame:
    return DataFrame({"a": [1, 2], "b": ["x", "y"]}, name="T0")


class TestTableDigest:
    def test_stable_across_equal_frames(self):
        assert table_digest(_frame()) == table_digest(_frame())

    def test_type_tagged_cells(self):
        # 1 and "1" must not collide — the codec renders them the same,
        # but SQL semantics differ, so the digest is type-aware.
        ints = DataFrame({"a": [1]}, name="T")
        strs = DataFrame({"a": ["1"]}, name="T")
        assert table_digest(ints) != table_digest(strs)

    def test_changes_with_values(self):
        frame = _frame()
        other = _frame()
        other["a"] = [1, 3]
        assert table_digest(frame) != table_digest(other)

    def test_changes_with_column_names(self):
        left = DataFrame({"a": [1]}, name="T")
        right = DataFrame({"b": [1]}, name="T")
        assert table_digest(left) != table_digest(right)

    def test_setitem_invalidates_cached_digest(self):
        frame = _frame()
        before = table_digest(frame)
        frame["a"] = [9, 9]
        assert table_digest(frame) != before

    def test_none_and_nan_differ(self):
        # Both are SQL NULL, but generated Python can tell them apart
        # with ``is None``, so the executors' memo must not mix them up.
        nones = DataFrame({"a": [None, 1.5]}, name="T")
        nans = DataFrame({"a": [float("nan"), 1.5]}, name="T")
        assert table_digest(nones) != table_digest(nans)
        again = DataFrame({"a": [float("nan"), 1.5]}, name="T")
        assert table_digest(again) == table_digest(nans)

    def test_int_float_and_bool_differ(self):
        # 1, 1.0 and True compare equal in Python; 1 and True also share
        # the INTEGER dtype next to a 2.
        digests = {table_digest(DataFrame({"a": [value, 2]}, name="T"))
                   for value in (1, 1.0, True)}
        assert len(digests) == 3

    def test_changes_with_column_order(self):
        left = DataFrame({"a": [1], "b": [1]}, name="T")
        right = DataFrame({"b": [1], "a": [1]}, name="T")
        assert table_digest(left) != table_digest(right)

    def test_clones_share_the_digest_until_mutated(self):
        frame = _frame()
        digest = table_digest(frame)
        clone, renamed = frame.copy(), frame.with_name("T9")
        assert table_digest(clone) == table_digest(renamed) == digest
        clone["a"] = [5, 6]
        assert table_digest(clone) != digest
        assert table_digest(frame) == table_digest(renamed) == digest
        assert (table_digest(frame.select(["b"]))
                == table_digest(DataFrame({"b": ["x", "y"]})))


class TestCombinedFingerprint:
    def test_deterministic(self):
        parts = ["q", "cfg", "42"]
        assert combined_fingerprint(parts) == combined_fingerprint(parts)

    def test_order_sensitive(self):
        assert (combined_fingerprint(["a", "b"])
                != combined_fingerprint(["b", "a"]))

    def test_separator_prevents_concatenation_collisions(self):
        assert (combined_fingerprint(["ab", "c"])
                != combined_fingerprint(["a", "bc"]))
