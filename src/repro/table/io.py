"""Serialisation codecs for frames.

The most important codec is the prompt format from Figure 2 of the paper::

    [HEAD]:Rank|Cyclist|Team|Time|Uci_protour_points
    [ROW] 1: 1|Alejandro Valverde (ESP)|Caisse d'Epargne|5h 29' 10"|NULL
    [ROW] 2: 2|Alexandr Kolobnev (RUS)|Team CSC Saxo Bank|s.t.|30.0

Both the prompt builder and the simulated LLM parse this format, so encoding
and decoding live together here.  CSV/TSV and JSON codecs are provided for
loading real benchmark files and for the examples.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections.abc import Sequence
from pathlib import Path

from repro.errors import TableError
from repro.table.frame import Column, DataFrame
from repro.table.schema import ColumnType, is_missing

__all__ = [
    "encode_head_row",
    "decode_head_row",
    "to_csv",
    "from_csv",
    "read_csv",
    "write_csv",
    "to_json",
    "from_json",
    "to_markdown",
    "parse_literal",
]

#: Text used for missing values in the prompt codec (as in Figure 2).
NULL_TOKEN = "NULL"


#: ``str.splitlines`` breaks a line at each of these characters.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
#: One pass over a cell: escape ``\`` and ``|``, and fold every line break
#: to a space so a cell can never split its codec line.
_CELL_ESCAPES = str.maketrans(
    {"\\": "\\\\", "|": "\\|", **dict.fromkeys(_LINE_BREAKS, " ")})
#: Most cells hold none of those characters and skip the translation.
_NEEDS_ESCAPE = re.compile(
    "[" + re.escape("\\|" + _LINE_BREAKS) + "]").search


def _encode_cell(value) -> str:
    if type(value) is int:  # the commonest cell: nothing to check or escape
        return str(value)
    if type(value) is not str:
        if is_missing(value):
            return NULL_TOKEN
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float) and value.is_integer():
            return f"{value:.1f}"  # keep the trailing .0 so REAL round-trips
        value = str(value)
    return value.translate(_CELL_ESCAPES) if _NEEDS_ESCAPE(value) else value


def _split_row(text: str) -> list[str]:
    """Split a codec line on unescaped pipes and unescape the cells."""
    if "\\" not in text:
        return text.split("|")
    cells, current, i = [], [], 0
    while i < len(text):
        char = text[i]
        if char == "\\" and i + 1 < len(text) and text[i + 1] in ("\\", "|"):
            current.append(text[i + 1])
            i += 2
            continue
        if char == "|":
            cells.append("".join(current))
            current = []
        else:
            current.append(char)
        i += 1
    cells.append("".join(current))
    return cells


def parse_literal(text: str):
    """Parse one codec cell back into int / float / bool / None / str."""
    if text == NULL_TOKEN:
        return None
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    # A number starts with a sign, a digit, a point, "inf" or "nan"; any
    # other letter first rules out both conversions below.
    first = text[:1]
    if first.isalpha() and first not in "iInN":
        return text
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def encode_head_row(frame: DataFrame, *, max_rows: int | None = None) -> str:
    """Encode a frame in the ``[HEAD]/[ROW]`` prompt format.

    ``max_rows`` truncates the body (the header always appears); the prompt
    builder uses it to keep large tables inside the context budget.
    """
    names = frame.columns
    lines = ["[HEAD]:" + "|".join(map(_encode_cell, names))]
    total = frame.num_rows
    shown = total if max_rows is None else min(max_rows, total)
    columns = [map(_encode_cell, frame.column(name).values[:shown])
               for name in names]
    lines.extend(f"[ROW] {index}: {'|'.join(cells)}"
                 for index, cells in enumerate(zip(*columns), 1))
    if shown < total:
        lines.append(f"[...] ({total - shown} more rows)")
    return "\n".join(lines)


def decode_head_row(text: str, *, name: str = "",
                    parse_values: bool = True) -> DataFrame:
    """Decode the ``[HEAD]/[ROW]`` format back into a frame.

    ``parse_values=False`` keeps every cell as text (useful for tests that
    check the raw rendering).
    """
    header: list[str] | None = None
    rows: list[tuple] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("[...]"):
            continue
        if line.startswith("[HEAD]:"):
            header = _split_row(line[len("[HEAD]:"):])
            continue
        if line.startswith("[ROW]"):
            if header is None:
                raise TableError("[ROW] before [HEAD] in codec text")
            _, _, body = line.partition(":")
            cells = _split_row(body.strip())
            if len(cells) != len(header):
                raise TableError(
                    f"row has {len(cells)} cells, header has {len(header)}")
            if parse_values:
                rows.append(tuple(map(parse_literal, cells)))
            else:
                rows.append(tuple(cells))
            continue
        raise TableError(f"unrecognised codec line: {line!r}")
    if header is None:
        raise TableError("codec text has no [HEAD] line")
    return DataFrame.from_rows(rows, header, name=name)


# --- CSV / TSV ---------------------------------------------------------------


def to_csv(frame: DataFrame, *, delimiter: str = ",") -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    writer.writerow(frame.columns)
    for row in frame.to_rows():
        writer.writerow(["" if is_missing(v) else v for v in row])
    return buffer.getvalue()


def from_csv(text: str, *, delimiter: str = ",", name: str = "",
             parse_values: bool = True) -> DataFrame:
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = list(reader)
    if not rows:
        raise TableError("CSV text is empty")
    header, body = rows[0], rows[1:]
    if parse_values:
        body = [
            tuple(None if cell == "" else parse_literal(cell)
                  for cell in row)
            for row in body
        ]
    return DataFrame.from_rows(body, header, name=name)


def read_csv(path: str | Path, *, delimiter: str = ",", name: str = "",
             parse_values: bool = True) -> DataFrame:
    with open(path, encoding="utf-8") as handle:
        return from_csv(handle.read(), delimiter=delimiter, name=name,
                        parse_values=parse_values)


def write_csv(frame: DataFrame, path: str | Path, *,
              delimiter: str = ",") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_csv(frame, delimiter=delimiter))


# --- JSON --------------------------------------------------------------------


def to_json(frame: DataFrame) -> str:
    """Serialise as ``{"columns": [...], "rows": [[...], ...]}``."""
    payload = {
        "name": frame.name,
        "columns": frame.columns,
        "rows": [list(row) for row in frame.to_rows()],
    }
    return json.dumps(payload, ensure_ascii=False)


def from_json(text: str) -> DataFrame:
    payload = json.loads(text)
    return DataFrame.from_rows(
        [tuple(row) for row in payload["rows"]],
        payload["columns"],
        name=payload.get("name", ""),
    )


# --- display -------------------------------------------------------------------


def to_markdown(frame: DataFrame, *, max_rows: int | None = 20) -> str:
    """Render a GitHub-style markdown table (for docs and examples)."""
    def fmt(value) -> str:
        return "" if is_missing(value) else str(value)

    header = "| " + " | ".join(frame.columns) + " |"
    rule = "|" + "|".join(" --- " for _ in frame.columns) + "|"
    lines = [header, rule]
    shown = frame.num_rows if max_rows is None else min(max_rows,
                                                        frame.num_rows)
    for index in range(shown):
        cells = " | ".join(
            fmt(frame.cell(index, name)) for name in frame.columns)
        lines.append(f"| {cells} |")
    if shown < frame.num_rows:
        lines.append(f"| ... {frame.num_rows - shown} more rows ... |")
    return "\n".join(lines)
