"""The DataFrame substrate: a small, typed, columnar relational frame.

This is the data structure that stands in for pandas in the Python executor
and that the SQL engine evaluates over.  It deliberately implements the
pandas surface that LLM-generated TQA code touches:

* ``frame["col"]`` returns a :class:`Column`; ``frame["new"] = values``
  appends or replaces a column.
* ``frame.apply(fn, axis=1)`` maps a function over :class:`Row` views and
  returns a :class:`Column`.
* ``frame[mask]`` with a boolean :class:`Column` (e.g. ``frame["x"] > 3``)
  filters rows.
* ``frame.columns`` lists column names, ``len(frame)`` counts rows.

Frames are value objects: every operation returns a new frame; nothing
mutates shared state except explicit ``__setitem__`` on the frame itself.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.errors import ColumnNotFoundError, SchemaError, TableError
from repro.table.schema import (
    ColumnType,
    coerce_value,
    infer_column_type,
    infer_value_type,
    is_missing,
    widen,
)

__all__ = ["Column", "Row", "DataFrame"]


class Column(Sequence):
    """An immutable, named sequence of values with an inferred type.

    Columns support element-wise comparison operators that return boolean
    columns, enabling pandas-style mask filtering::

        adults = people[people["age"] >= 18]
    """

    __slots__ = ("name", "_values", "_dtype", "_digest")

    def __init__(self, name: str, values: Iterable, dtype: ColumnType | None = None):
        self.name = name
        self._values = tuple(values)
        #: Inference is lazy: slicing/filtering a typed column propagates the
        #: known dtype, and untyped intermediates never pay for inference
        #: unless something actually asks for it.
        self._dtype = dtype
        self._digest: bytes | None = None

    @property
    def values(self) -> tuple:
        return self._values

    @property
    def dtype(self) -> ColumnType:
        if self._dtype is None:
            self._dtype = infer_column_type(self._values)
        return self._dtype

    def content_digest(self) -> bytes:
        """16-byte digest of the dtype and values, cached on the column.

        Hashes ``repr`` of the values, which tells apart everything
        generated code can tell apart: ``None`` from ``nan``, and ``1``
        from ``1.0``, ``True`` and ``"1"``.  The name is left out, so a
        renamed column (and every frame sharing the column) reuses it.
        """
        if self._digest is None:
            self._digest = hashlib.blake2b(
                repr((self.dtype.value, self._values)).encode("utf-8"),
                digest_size=16).digest()
        return self._digest

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Column(self.name, self._values[index], self._dtype)
        return self._values[index]

    def __iter__(self) -> Iterator:
        return iter(self._values)

    def __eq__(self, other):  # element-wise, pandas-style
        return self._compare(other, lambda a, b: a == b)

    def __ne__(self, other):
        return self._compare(other, lambda a, b: a != b)

    def __lt__(self, other):
        return self._compare(other, lambda a, b: a < b)

    def __le__(self, other):
        return self._compare(other, lambda a, b: a <= b)

    def __gt__(self, other):
        return self._compare(other, lambda a, b: a > b)

    def __ge__(self, other):
        return self._compare(other, lambda a, b: a >= b)

    def __hash__(self):  # pragma: no cover - columns are not hashable
        raise TypeError("Column objects are not hashable")

    def _compare(self, other, op) -> "Column":
        if isinstance(other, Column):
            if len(other) != len(self):
                raise TableError("cannot compare columns of different length")
            pairs = zip(self._values, other.values)
        else:
            pairs = ((value, other) for value in self._values)
        flags = []
        for left, right in pairs:
            if is_missing(left) or is_missing(right):
                flags.append(False)
                continue
            try:
                flags.append(bool(op(left, right)))
            except TypeError:
                flags.append(bool(op(str(left), str(right))))
        return Column(self.name, flags, ColumnType.BOOL)

    def map(self, fn) -> "Column":
        """Apply ``fn`` to every value, returning a new column."""
        return Column(self.name, [fn(value) for value in self._values])

    def astype(self, dtype: ColumnType) -> "Column":
        """Coerce every value to ``dtype``; missing values stay missing."""
        return Column(
            self.name,
            [coerce_value(value, dtype) for value in self._values],
            dtype,
        )

    def rename(self, name: str) -> "Column":
        return Column(name, self._values, self._dtype)

    def tolist(self) -> list:
        return list(self._values)

    def unique(self) -> list:
        seen, result = set(), []
        for value in self._values:
            key = (type(value).__name__, value)
            if key not in seen:
                seen.add(key)
                result.append(value)
        return result

    def non_missing(self) -> list:
        return [value for value in self._values if not is_missing(value)]

    def __repr__(self) -> str:
        preview = ", ".join(repr(value) for value in self._values[:6])
        if len(self._values) > 6:
            preview += ", ..."
        return f"Column({self.name!r}, [{preview}], dtype={self._dtype})"


class Row(Mapping):
    """A read-only mapping view of one row of a :class:`DataFrame`.

    Supports ``row["col"]`` and attribute access ``row.col`` (for column
    names that are identifiers), matching how LLM-generated lambdas index
    rows in ``frame.apply(..., axis=1)``.
    """

    __slots__ = ("_frame", "_index")

    def __init__(self, frame: "DataFrame", index: int):
        self._frame = frame
        self._index = index

    def __getitem__(self, name: str):
        return self._frame.column(name)[self._index]

    def __getattr__(self, name: str):
        try:
            return self[name]
        except ColumnNotFoundError:
            raise AttributeError(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._frame.columns)

    def __len__(self) -> int:
        return len(self._frame.columns)

    @property
    def index(self) -> int:
        return self._index

    def as_dict(self) -> dict:
        return {name: self[name] for name in self._frame.columns}

    def as_tuple(self) -> tuple:
        return tuple(self[name] for name in self._frame.columns)

    def __repr__(self) -> str:
        return f"Row({self.as_dict()!r})"


class DataFrame:
    """A small relational frame with named, typed columns of equal length."""

    __slots__ = ("_columns", "_order", "name", "_lowered", "_suffixes",
                 "_digest", "_kernels")

    def __init__(self, columns=None, *, name: str = ""):
        """Create a frame.

        ``columns`` may be a mapping of name -> values, an iterable of
        :class:`Column`, or None for an empty frame.  ``name`` is a label
        (``T0``, ``T1``...) used when rendering prompts.
        """
        self._columns: dict[str, Column] = {}
        self._order: list[str] = []
        self.name = name
        # Lazily-built lookup/digest caches; __setitem__ invalidates them.
        self._lowered: dict[str, str] | None = None
        self._suffixes: dict[str, list[str]] | None = None
        self._digest: str | None = None
        self._kernels: dict | None = None
        if columns is None:
            return
        if isinstance(columns, Mapping):
            items = [
                value if isinstance(value, Column) else Column(key, value)
                for key, value in columns.items()
            ]
            items = [
                col if col.name == key else col.rename(key)
                for key, col in zip(columns.keys(), items)
            ]
        else:
            items = list(columns)
        length = None
        for col in items:
            if not isinstance(col, Column):
                raise SchemaError(
                    f"expected Column, got {type(col).__name__}")
            if length is None:
                length = len(col)
            elif len(col) != length:
                raise SchemaError(
                    f"column {col.name!r} has {len(col)} values, "
                    f"expected {length}")
            if col.name in self._columns:
                raise SchemaError(f"duplicate column name {col.name!r}")
            self._columns[col.name] = col
            self._order.append(col.name)

    # --- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], columns: Sequence[str],
                  *, name: str = "") -> "DataFrame":
        """Build a frame from row tuples and a list of column names."""
        rows = [tuple(row) for row in rows]
        for row in rows:
            if len(row) != len(columns):
                raise SchemaError(
                    f"row has {len(row)} values, expected {len(columns)}")
        cols = [
            Column(col_name, [row[i] for row in rows])
            for i, col_name in enumerate(columns)
        ]
        return cls(cols, name=name)

    @classmethod
    def from_records(cls, records: Iterable[Mapping], *,
                     columns: Sequence[str] | None = None,
                     name: str = "") -> "DataFrame":
        """Build a frame from dict-like records.

        Column order follows ``columns`` if given, otherwise first-seen key
        order.  Missing keys become None.
        """
        records = list(records)
        if columns is None:
            order: list[str] = []
            for record in records:
                for key in record:
                    if key not in order:
                        order.append(key)
        else:
            order = list(columns)
        cols = [
            Column(key, [record.get(key) for record in records])
            for key in order
        ]
        return cls(cols, name=name)

    @classmethod
    def empty(cls, columns: Sequence[str], *, name: str = "") -> "DataFrame":
        return cls([Column(col, []) for col in columns], name=name)

    # --- basic properties -------------------------------------------------

    @property
    def columns(self) -> list[str]:
        return list(self._order)

    @property
    def dtypes(self) -> dict[str, ColumnType]:
        return {key: self._columns[key].dtype for key in self._order}

    @property
    def num_rows(self) -> int:
        if not self._order:
            return 0
        return len(self._columns[self._order[0]])

    @property
    def num_columns(self) -> int:
        return len(self._order)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_columns)

    def __len__(self) -> int:
        return self.num_rows

    def __bool__(self) -> bool:
        return self.num_rows > 0

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    # --- column access ----------------------------------------------------

    def column(self, name: str) -> Column:
        """Return the column named ``name`` (exact, then normalised match)."""
        found = self._columns.get(name)
        if found is not None:
            return found
        # Forgiving lookup: case-insensitive match, the way SQLite resolves
        # identifiers. Distinct from the agent's *normalisation* handler.
        key = self.lowered_names().get(name.lower())
        if key is not None:
            return self._columns[key]
        raise ColumnNotFoundError(name, tuple(self._order))

    def lowered_names(self) -> dict[str, str]:
        """Cached ``lowercase -> first matching column name`` map.

        Both the SQL interpreter and the vector kernels resolve
        identifiers through this map instead of re-lowercasing every column
        on every row.
        """
        if self._lowered is None:
            lowered: dict[str, str] = {}
            for key in self._order:
                lowered.setdefault(key.lower(), key)
            self._lowered = lowered
        return self._lowered

    def suffix_names(self) -> dict[str, list[str]]:
        """Cached map of dot-suffixes over alias-prefixed column names.

        For a column ``t.a.b`` the entries are ``"a.b"`` and ``"b"`` — i.e.
        every tail that follows a ``.`` — so bare references over joined
        frames resolve without scanning all columns per row.
        """
        if self._suffixes is None:
            suffixes: dict[str, list[str]] = {}
            for key in self._order:
                lowered = key.lower()
                position = lowered.find(".")
                while position != -1:
                    suffixes.setdefault(lowered[position + 1:],
                                        []).append(key)
                    position = lowered.find(".", position + 1)
            self._suffixes = suffixes
        return self._suffixes

    def content_digest(self) -> str:
        """Stable digest of (columns, dtypes, values); cached per frame.

        This is the shared fingerprint the serving answer cache, the
        prompt-encoding cache and the executors' outcome memo key on (see
        :mod:`repro.perf.fingerprint`).  It combines the column names with
        each column's cached :meth:`Column.content_digest`, so frames that
        share columns (``select``, ``rename``) pay only for the combine,
        and ``copy``/``with_name`` clones inherit the frame's digest.  The
        frame name is deliberately excluded: two frames with equal
        contents are interchangeable.
        """
        if self._digest is None:
            hasher = hashlib.blake2b(repr(self._order).encode("utf-8"),
                                     digest_size=16)
            for name in self._order:
                hasher.update(self._columns[name].content_digest())
            self._digest = hasher.hexdigest()
        return self._digest

    def kernel_cache(self) -> dict:
        """Per-frame cache of vectorized kernel results.

        The SQL engine's column kernels (:mod:`repro.sqlengine.vector`)
        store computed whole-column results here keyed by expression
        node, so repeated queries over the same frame skip recomputation.
        Like every derived cache on the frame, ``__setitem__`` drops it —
        a mutated column must never serve a stale kernel result.
        """
        if self._kernels is None:
            self._kernels = {}
        return self._kernels

    def _invalidate_caches(self) -> None:
        self._lowered = None
        self._suffixes = None
        self._digest = None
        self._kernels = None

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.column(key)
        if isinstance(key, Column):
            return self.filter(key.tolist())
        if isinstance(key, (list, tuple)):
            if all(isinstance(item, str) for item in key):
                return self.select(key)
            return self.filter(key)
        raise TableError(f"unsupported index type: {type(key).__name__}")

    def __setitem__(self, name: str, values) -> None:
        """Add or replace a column in place (pandas assignment idiom)."""
        if isinstance(values, Column):
            column = values.rename(name)
        elif isinstance(values, (list, tuple)):
            column = Column(name, values)
        else:  # broadcast a scalar
            column = Column(name, [values] * self.num_rows)
        if self._order and len(column) != self.num_rows:
            raise SchemaError(
                f"cannot assign {len(column)} values to column {name!r} "
                f"in a frame of {self.num_rows} rows")
        # Force inference so unsupported value types fail *here*, inside
        # whatever executed the assignment, not at some later render.
        column.dtype
        if name not in self._columns:
            self._order.append(name)
        self._columns[name] = column
        self._invalidate_caches()

    def cell(self, row_index: int, column: str | int):
        """Value at (row, column); the column may be a name or position."""
        if isinstance(column, int):
            column = self._order[column]
        return self.column(column)[row_index]

    # --- row access ---------------------------------------------------------

    def row(self, index: int) -> Row:
        if index < 0:
            index += self.num_rows
        if not 0 <= index < self.num_rows:
            raise TableError(f"row index {index} out of range")
        return Row(self, index)

    def iter_rows(self) -> Iterator[Row]:
        for index in range(self.num_rows):
            yield Row(self, index)

    def to_rows(self) -> list[tuple]:
        cols = [self._columns[name].values for name in self._order]
        if not cols:
            return [() for _ in range(self.num_rows)]
        return list(zip(*cols))

    def to_records(self) -> list[dict]:
        return [row.as_dict() for row in self.iter_rows()]

    # --- pandas-style operations -------------------------------------------

    def apply(self, fn, axis: int = 1) -> Column:
        """Apply ``fn`` to every row (axis=1), returning a Column.

        Only ``axis=1`` is supported — it is the form the paper's generated
        Python uses (``T1.apply(lambda x: ..., axis=1)``).
        """
        if axis != 1:
            raise TableError("apply() supports axis=1 only")
        return Column("apply", [fn(row) for row in self.iter_rows()])

    def filter(self, mask: Sequence) -> "DataFrame":
        """Keep rows where ``mask`` is truthy."""
        mask = list(mask)
        if len(mask) != self.num_rows:
            raise TableError(
                f"mask of length {len(mask)} does not match "
                f"{self.num_rows} rows")
        keep = [i for i, flag in enumerate(mask) if flag]
        return self.take(keep)

    def take(self, indexes: Sequence[int]) -> "DataFrame":
        """Return a frame with the rows at ``indexes``, in that order."""
        cols = []
        for name in self._order:
            values = self._columns[name].values
            cols.append(Column(name, [values[i] for i in indexes],
                               self._columns[name].dtype))
        return DataFrame(cols, name=self.name)

    def select(self, columns: Sequence[str]) -> "DataFrame":
        """Return a frame with only ``columns``, in the given order."""
        return DataFrame([self.column(name) for name in columns],
                         name=self.name)

    def drop(self, columns: Sequence[str] | str) -> "DataFrame":
        if isinstance(columns, str):
            columns = [columns]
        dropped = {self.column(name).name for name in columns}
        keep = [name for name in self._order if name not in dropped]
        return self.select(keep)

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        cols = []
        for name in self._order:
            new_name = mapping.get(name, name)
            cols.append(self._columns[name].rename(new_name))
        return DataFrame(cols, name=self.name)

    def with_name(self, name: str) -> "DataFrame":
        """A clone named ``name``: same columns, same cached digest."""
        clone = DataFrame(name=name)
        clone._columns = dict(self._columns)
        clone._order = list(self._order)
        clone._digest = self._digest
        return clone

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(range(min(n, self.num_rows)))

    def copy(self) -> "DataFrame":
        return self.with_name(self.name)

    # --- misc ---------------------------------------------------------------

    def widen_type(self, name: str, other: ColumnType) -> ColumnType:
        return widen(self.column(name).dtype, other)

    def column_type_of_value(self, value) -> ColumnType:
        return infer_value_type(value)

    def __eq__(self, other) -> bool:
        """Exact structural equality: same columns, order, and values."""
        if not isinstance(other, DataFrame):
            return NotImplemented
        if self._order != other._order:
            return False
        return all(
            self._columns[name].values == other._columns[name].values
            for name in self._order
        )

    def __hash__(self):  # pragma: no cover - frames are not hashable
        raise TypeError("DataFrame objects are not hashable")

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (f"DataFrame({self.num_rows}x{self.num_columns}{label} "
                f"columns={self._order!r})")
