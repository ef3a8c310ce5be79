"""The prompt-encoding cache must be invisible except for speed."""

import pytest

from repro.errors import TableError
from repro.perf import (
    DEFAULT_ENCODE_CACHE,
    EncodedTableCache,
    decode_head_row_cached,
    encode_cache_enabled,
    encode_head_row_cached,
)
from repro.table import DataFrame, decode_head_row, encode_head_row
from repro.telemetry.metrics import GLOBAL_REGISTRY


def _frame() -> DataFrame:
    return DataFrame({
        "city": ["Oslo", "Lima", "Pune"],
        "pop": [709, 9752, 3124],
    }, name="T0")


class TestEncodeHeadRowCached:
    def test_matches_direct_encoding(self):
        frame = _frame()
        assert (encode_head_row_cached(frame, max_rows=None)
                == encode_head_row(frame, max_rows=None))

    def test_disabled_bypasses_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENCODE_CACHE", "0")
        assert not encode_cache_enabled()
        frame = _frame()
        assert (encode_head_row_cached(frame, max_rows=2)
                == encode_head_row(frame, max_rows=2))

    def test_mutation_is_never_stale(self):
        frame = _frame()
        before = encode_head_row_cached(frame, max_rows=None)
        frame["pop"] = [1, 2, 3]
        after = encode_head_row_cached(frame, max_rows=None)
        assert after != before
        assert after == encode_head_row(frame, max_rows=None)

    def test_max_rows_is_part_of_the_key(self):
        frame = _frame()
        assert (encode_head_row_cached(frame, max_rows=1)
                != encode_head_row_cached(frame, max_rows=2))


class TestEncodedTableCache:
    def test_hit_and_miss_counters(self):
        cache = EncodedTableCache()
        frame = _frame()
        cache.encode(frame, max_rows=None)
        cache.encode(frame, max_rows=None)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["hit_rate"] == 0.5

    def test_equal_content_shares_an_entry(self):
        cache = EncodedTableCache()
        cache.encode(_frame(), max_rows=None)
        rendered = cache.encode(_frame(), max_rows=None)
        assert len(cache) == 1
        assert cache.stats()["hits"] == 1
        assert rendered == encode_head_row(_frame(), max_rows=None)

    def test_lru_eviction(self):
        cache = EncodedTableCache(capacity=2)
        frames = [DataFrame({"a": [i]}, name="T") for i in range(3)]
        for frame in frames:
            cache.encode(frame, max_rows=None)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # frames[0] was evicted: encoding it again is a miss.
        misses = cache.stats()["misses"]
        cache.encode(frames[0], max_rows=None)
        assert cache.stats()["misses"] == misses + 1

    def test_clear(self):
        cache = EncodedTableCache()
        cache.encode(_frame(), max_rows=None)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EncodedTableCache(capacity=0)


class TestDecodeHeadRowCached:
    """The decode side: memoised by exact text, invisible to callers."""

    TEXT = encode_head_row(_frame(), max_rows=None)

    @pytest.fixture(autouse=True)
    def _empty_default_cache(self):
        DEFAULT_ENCODE_CACHE.clear()
        yield
        DEFAULT_ENCODE_CACHE.clear()

    @staticmethod
    def _decode_lookups(result):
        return GLOBAL_REGISTRY.counter("cache.lookups").value(
            cache="decode", result=result)

    def test_matches_direct_decoding(self):
        for _ in range(2):
            decoded = decode_head_row_cached(self.TEXT, name="T0")
            assert decoded == decode_head_row(self.TEXT)
        assert self._decode_lookups("miss") == 1
        assert self._decode_lookups("hit") == 1

    def test_mutating_a_returned_frame_leaves_the_memo_intact(self):
        first = decode_head_row_cached(self.TEXT, name="T0")
        first["pop"] = [0, 0, 0]
        first["extra"] = ["x", "y", "z"]
        second = decode_head_row_cached(self.TEXT, name="T0")
        assert self._decode_lookups("hit") == 1
        assert second == decode_head_row(self.TEXT)
        assert second.columns == ["city", "pop"]

    def test_each_decode_carries_its_own_name(self):
        as_t0 = decode_head_row_cached(self.TEXT, name="T0")
        as_t2 = decode_head_row_cached(self.TEXT, name="T2")
        assert (as_t0.name, as_t2.name) == ("T0", "T2")
        assert as_t0 == as_t2
        assert len(DEFAULT_ENCODE_CACHE) == 1

    def test_malformed_text_raises_every_time_and_is_not_kept(self):
        malformed = "[HEAD]:a|b\n[ROW] 1: only-one-cell"
        for _ in range(2):
            with pytest.raises(TableError):
                decode_head_row_cached(malformed, name="T0")
        assert self._decode_lookups("miss") == 2
        assert len(DEFAULT_ENCODE_CACHE) == 0

    def test_disabled_bypasses_the_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENCODE_CACHE", "0")
        decoded = decode_head_row_cached(self.TEXT, name="T1")
        assert decoded == decode_head_row(self.TEXT)
        assert decoded.name == "T1"
        assert len(DEFAULT_ENCODE_CACHE) == 0
        assert self._decode_lookups("miss") == 0

    def test_clear_empties_both_directions(self):
        cache = EncodedTableCache()
        cache.encode(_frame(), max_rows=None)
        cache.decode(self.TEXT, name="T0")
        cache.clear()
        assert len(cache) == 0
        cache.encode(_frame(), max_rows=None)
        cache.decode(self.TEXT, name="T0")
        assert cache.stats()["misses"] == 2

    def test_decode_side_evicts_at_capacity(self):
        cache = EncodedTableCache(capacity=2)
        texts = [encode_head_row(DataFrame({"a": [i]}), max_rows=None)
                 for i in range(3)]
        cache.encode(_frame(), max_rows=None)
        for text in texts:
            cache.decode(text, name="T0")       # the third evicts texts[0]
        assert (len(cache), cache.stats()["evictions"]) == (3, 1)
        cache.decode(texts[2], name="T0")       # most recent: kept
        assert self._decode_lookups("hit") == 1
        cache.decode(texts[0], name="T0")       # evicted: decoded again
        assert self._decode_lookups("miss") == 4
        cache.encode(_frame(), max_rows=None)   # the encode side kept it
        assert cache.stats()["misses"] == 5
