"""Property-based tests (hypothesis) for the DataFrame substrate."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.table import (
    DataFrame,
    decode_head_row,
    distinct,
    encode_head_row,
    from_csv,
    from_json,
    sort_by,
    table_fingerprint,
    to_csv,
    to_json,
)

def _parses_as_number(text: str) -> bool:
    for caster in (int, float):
        try:
            caster(text)
            return True
        except ValueError:
            continue
    return False


def _plain_text(text: str) -> bool:
    """Text that decodes back as the same string, not NULL/bool/number."""
    return (text.strip() == text and text != "NULL"
            and text.lower() not in ("true", "false")
            and not _parses_as_number(text))


#: Every character ``str.splitlines`` breaks a line on, found by asking it
#: (all of them lie below U+2030).
LINE_BREAKS = "".join(
    char for char in map(chr, range(0x2030))
    if len(f"a{char}b".splitlines()) == 2)
#: The ``[HEAD]/[ROW]`` codec folds each of them to a space.
FOLD = str.maketrans(dict.fromkeys(LINE_BREAKS, " "))

_NUMBERS = (
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e9, max_value=1e9),
)

# Cell values the codecs must round-trip exactly.
cell = st.one_of(*_NUMBERS, st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N", "P", "S", "Zs")),
    max_size=24,
).filter(_plain_text))

# The prompt codec also takes control characters and line and paragraph
# separators; it keeps every one except the line breaks it folds.
codec_cell = st.one_of(*_NUMBERS, st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N", "P", "S", "Zs", "Cc", "Zl", "Zp")),
    max_size=24,
).filter(lambda text: _plain_text(text.translate(FOLD))))


@st.composite
def frames(draw, max_columns=4, max_rows=6, cells=cell):
    num_columns = draw(st.integers(1, max_columns))
    num_rows = draw(st.integers(0, max_rows))
    names = [f"c{i}" for i in range(num_columns)]
    columns = {
        name: draw(st.lists(cells, min_size=num_rows, max_size=num_rows))
        for name in names
    }
    return DataFrame(columns)


def _folded(frame: DataFrame) -> DataFrame:
    return DataFrame({
        name: [value.translate(FOLD) if isinstance(value, str) else value
               for value in frame.column(name).values]
        for name in frame.columns
    })


@given(frames(cells=codec_cell))
@example(DataFrame({"c0": [f"a{LINE_BREAKS}|b\\", "x\r\ny"],
                    "c1": ["a\t\x00\x1fb", None]}))
@settings(max_examples=60, deadline=None)
def test_head_row_codec_roundtrip(frame):
    decoded = decode_head_row(encode_head_row(frame))
    assert decoded == _folded(frame)


@given(frames())
@settings(max_examples=60, deadline=None)
def test_json_roundtrip(frame):
    assert from_json(to_json(frame)) == frame


@given(frames())
@settings(max_examples=40, deadline=None)
def test_csv_roundtrip_modulo_empty_strings(frame):
    # CSV cannot distinguish "" from None; normalise both sides.
    def canon(f):
        rows = [
            tuple(None if v == "" else v for v in row)
            for row in f.to_rows()
        ]
        return (f.columns, rows)

    decoded = from_csv(to_csv(frame))
    assert canon(decoded) == canon(frame)


@given(frames())
@settings(max_examples=40, deadline=None)
def test_sort_is_permutation(frame):
    out = sort_by(frame, [frame.columns[0]])
    assert sorted(map(repr, out.to_rows())) == \
        sorted(map(repr, frame.to_rows()))


@given(frames())
@settings(max_examples=40, deadline=None)
def test_sort_descending_reverses_keys(frame):
    column = frame.columns[0]
    ascending = sort_by(frame, [column])
    descending = sort_by(frame, [column], descending=True)
    from repro.table.ops import _sort_key_for
    from repro.table.schema import is_missing
    key = _sort_key_for(frame[column].tolist())
    asc_keys = [key(v) for v in ascending[column] if not is_missing(v)]
    desc_keys = [key(v) for v in descending[column] if not is_missing(v)]
    assert asc_keys == sorted(asc_keys)
    assert desc_keys == sorted(desc_keys, reverse=True)
    # Missing values sort last in both directions.
    for out in (ascending, descending):
        flags = [is_missing(v) for v in out[column]]
        assert flags == sorted(flags)


@given(frames())
@settings(max_examples=40, deadline=None)
def test_distinct_idempotent(frame):
    once = distinct(frame)
    assert distinct(once) == once


@given(frames())
@settings(max_examples=40, deadline=None)
def test_distinct_never_grows(frame):
    assert distinct(frame).num_rows <= frame.num_rows


@given(frames(), st.data())
@settings(max_examples=40, deadline=None)
def test_take_preserves_values(frame, data):
    if frame.num_rows == 0:
        return
    indexes = data.draw(st.lists(
        st.integers(0, frame.num_rows - 1), max_size=8))
    taken = frame.take(indexes)
    for out_pos, src in enumerate(indexes):
        assert taken.to_rows()[out_pos] == frame.to_rows()[src]


@given(frames())
@settings(max_examples=40, deadline=None)
def test_fingerprint_invariant_under_row_shuffle(frame):
    reversed_frame = frame.take(list(range(frame.num_rows))[::-1])
    assert table_fingerprint(frame) == table_fingerprint(reversed_frame)


@given(frames())
@settings(max_examples=40, deadline=None)
def test_copy_equals_original(frame):
    assert frame.copy() == frame
