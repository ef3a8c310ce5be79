"""Query execution for the native SQL engine.

``execute_select`` runs a parsed SELECT against a catalog of frames and
returns a new :class:`repro.table.DataFrame`.  The pipeline mirrors the
logical order of SQL: FROM → WHERE → GROUP BY/aggregates → HAVING →
select-list → DISTINCT → ORDER BY → LIMIT/OFFSET.

Each stage has two implementations, tried fastest-first:

1. **vectorized** — whole-column kernels (:mod:`repro.sqlengine.vector`)
   over statements rewritten by the planner
   (:mod:`repro.sqlengine.planner`: predicate pushdown below joins,
   HAVING pushdown below GROUP BY, LIMIT short-circuit into the scan,
   hash equi-joins).  Only provably total expressions qualify; a stage
   that cannot be proven safe falls back wholesale to
2. the per-row tree-walking **interpreter**
   (:mod:`repro.sqlengine.evaluator`), the in-engine reference.

Before any stage, :func:`~repro.sqlengine.planner.plan_select` checks
the statement against the schema as SQLite does when it prepares one,
so both tiers fail a bad name on an empty table as on a full one.
``REPRO_SQL_VECTOR=0`` runs the interpreter everywhere, with no plan
rewrites.  Both tiers must produce bit-identical results — values *and*
errors — enforced by the seeded differential suite; stdlib ``sqlite3``
is the external oracle both are checked against.  ``execute_sql`` also
memoises parsing through :mod:`repro.sqlengine.plancache`.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import SQLRuntimeError
from repro.sqlengine.ast_nodes import (
    BinaryOp,
    ColumnRef,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
)
from repro.sqlengine.evaluator import (
    GroupContext,
    RowContext,
    _to_number,
    evaluate,
    is_truthy,
    resolve_joined_name,
    resolve_joined_ref,
)
from repro.sqlengine.plancache import parse_select_cached
from repro.sqlengine.planner import (
    FrameShape,
    conjoin,
    expand_star as _expand_star,
    is_aggregate_query,
    plan_select,
    resolve_aliases as _resolve_aliases,
    resolve_group_key,
    resolve_table as _resolve_table,
)
from repro.sqlengine.vector import (
    VectorContext,
    compile_group_vector,
    compile_vector,
    distinct_indexes,
    truthy_indexes,
    vector_enabled,
)
from repro.table.frame import Column, DataFrame
from repro.table.ops import (
    _hashable,
    _sort_key_for,
    distinct as distinct_rows,
    group_by,
)
from repro.table.schema import dedupe_column_names
from repro.table.schema import is_missing as is_missing_value
from repro.telemetry.metrics import GLOBAL_REGISTRY
from repro.telemetry.spans import span

__all__ = ["execute_select", "execute_sql", "NativeSQLEngine"]


def _record_tier(stage: str, tier: str) -> None:
    """Count which tier (vector|interpreted) ran ``stage``."""
    GLOBAL_REGISTRY.counter(
        "sql.tier_dispatch",
        "SELECT stages executed, by stage and tier").inc(
        stage=stage, tier=tier)


def _record_fallback(stage: str, reason: str) -> None:
    """Count one all-or-nothing fallback to the interpreter."""
    GLOBAL_REGISTRY.counter(
        "sql.tier_fallback",
        "stage fallbacks to a lower tier, by reason").inc(
        stage=stage, reason=reason)


def execute_sql(sql: str, tables: Mapping[str, DataFrame]) -> DataFrame:
    """Parse (with plan caching) and execute ``sql`` against ``tables``."""
    return execute_select(parse_select_cached(sql), tables)


def execute_select(stmt: SelectStatement,
                   tables: Mapping[str, DataFrame]) -> DataFrame:
    from repro.errors import TableError
    with span("sql_execute", joined=bool(stmt.joins),
              vectorized=vector_enabled()):
        try:
            return _execute_select(stmt, tables)
        except TableError as exc:
            # Column/shape errors surface as SQL runtime errors, matching
            # what SQLite reports for the same query.
            raise SQLRuntimeError(str(exc)) from exc


def _execute_select(stmt: SelectStatement,
                    tables: Mapping[str, DataFrame]) -> DataFrame:
    joined = bool(stmt.joins)
    vectorized = vector_enabled()

    # plan_select checks the statement on both tiers and rewrites it on
    # the vector tier only: REPRO_SQL_VECTOR=0 is the untouched
    # interpreter, the perf baseline and in-engine oracle.  It memoises
    # by (statement, schema signature).
    planned = plan_select(stmt, tables, rewrite=vectorized)
    if planned.error is not None:
        raise SQLRuntimeError(planned.error)
    if planned.rewrites:
        with span("sql_plan_rewrite",
                  rewrites=",".join(planned.rewrites)):
            stmt = planned.stmt

    if joined:
        frame = _materialize_joins(stmt, tables, planned.pushed)
        alias = None
    else:
        frame = _resolve_table(stmt.table, tables)
        alias = stmt.table_alias or stmt.table

    scan_limit = planned.scan_limit
    if stmt.where is not None:
        keep = None
        if vectorized:
            keep = _vector_where(frame, stmt.where, joined=joined,
                                 scan_limit=scan_limit)
            if keep is None:
                _record_fallback("where", "vector_unsupported")
        if keep is None:
            _record_tier("where", "interpreted")
            keep = [
                row.index for row in frame.iter_rows()
                if is_truthy(evaluate(stmt.where,
                                      RowContext(row, alias,
                                                 joined=joined)))
            ]
        else:
            _record_tier("where", "vector")
        frame = frame.take(keep)
    elif scan_limit is not None:
        frame = frame.take(range(min(scan_limit, frame.num_rows)))

    result = None
    if is_aggregate_query(stmt):
        if vectorized:
            result = _execute_aggregate_vector(stmt, frame, alias,
                                               joined=joined)
            if result is None:
                _record_fallback("aggregate", "vector_unsupported")
            else:
                _record_tier("aggregate", "vector")
        if result is None:
            _record_tier("aggregate", "interpreted")
            result = _execute_aggregate(stmt, frame, alias, joined=joined)
    else:
        if vectorized:
            result = _execute_plain_vector(stmt, frame, alias,
                                           joined=joined)
            if result is None:
                _record_fallback("plain", "vector_unsupported")
            else:
                _record_tier("plain", "vector")
        if result is None:
            _record_tier("plain", "interpreted")
            result = _execute_plain(stmt, frame, alias, joined=joined)

    if stmt.distinct:
        if vectorized:
            # Column-at-a-time dedupe; value-identical to the row scan
            # (same typed keys, same first-occurrence order).
            _record_tier("distinct", "vector")
            result = result.take(distinct_indexes(result))
        else:
            _record_tier("distinct", "interpreted")
            result = distinct_rows(result)

    if stmt.limit is not None:
        start = min(stmt.offset, result.num_rows)
        end = min(start + stmt.limit, result.num_rows)
        result = result.take(range(start, end))
    return result


def _vector_where(frame: DataFrame, where, *, joined: bool,
                  scan_limit: int | None) -> list[int] | None:
    """Evaluate WHERE as a whole-column mask; None = not vectorizable.

    With a planner-approved ``scan_limit`` the mask evaluates in chunks
    and stops as soon as enough rows survive — the LIMIT short-circuit.
    """
    fn = compile_vector(where, FrameShape(frame, joined=joined))
    if fn is None:
        return None
    if scan_limit is None:
        # The mask kernel is memoized on the frame, but collapsing the
        # mask to surviving indexes is a full-column pass too — cache
        # the keep list alongside it (same __setitem__ invalidation).
        # Callers only read the list (frame.take), never mutate it.
        cache = frame.kernel_cache()
        key = ("where", joined, repr(where))
        keep = cache.get(key)
        if keep is None:
            keep = truthy_indexes(fn(VectorContext(frame)))
            cache[key] = keep
        return keep
    keep: list[int] = []
    total = frame.num_rows
    for start in range(0, total, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, total)
        keep.extend(truthy_indexes(
            fn(VectorContext(frame, start, stop)), base=start))
        if len(keep) >= scan_limit:
            return keep[:scan_limit]
    return keep


#: Chunk size for LIMIT-short-circuit scans: big enough to amortise the
#: per-chunk kernel dispatch, small enough that tiny LIMITs stop early.
_SCAN_CHUNK = 1024


def _prefix_columns(frame: DataFrame, alias: str) -> DataFrame:
    return frame.rename({name: f"{alias}.{name}"
                         for name in frame.columns})


def _materialize_joins(stmt: SelectStatement,
                       tables: Mapping[str, DataFrame],
                       pushed: tuple = ()) -> DataFrame:
    """Materialise FROM + JOIN clauses into one alias-prefixed frame.

    ``pushed`` holds planner-approved pre-join filters keyed by join
    position (-1 = the FROM table); each is applied to its source frame
    *before* prefixing and joining, shrinking the join inputs.
    """
    base = _resolve_table(stmt.table, tables)
    base = _apply_pushed(base, [e for p, e in pushed if p == -1])
    combined = _prefix_columns(base, stmt.table_alias or stmt.table)
    for position, join in enumerate(stmt.joins):
        right = _resolve_table(join.table, tables)
        right = _apply_pushed(
            right, [e for p, e in pushed if p == position])
        right_prefixed = _prefix_columns(right,
                                         join.alias or join.table)
        combined = _join_frames(combined, right_prefixed, join)
    return combined


def _apply_pushed(frame: DataFrame, conjuncts: list) -> DataFrame:
    """Filter a source frame by pushed-down (planner-verified) conjuncts.

    The planner pushes only conjuncts it proved total against the bare
    source frame, so each one always has a vector kernel.
    """
    if not conjuncts:
        return frame
    return frame.take(_vector_where(frame, conjoin(conjuncts),
                                    joined=False, scan_limit=None))


def _join_frames(left: DataFrame, right: DataFrame,
                 join: JoinClause) -> DataFrame:
    columns = left.columns + right.columns
    if vector_enabled():
        hashed = _hash_equi_join(left, right, join, columns)
        if hashed is not None:
            _record_tier("join", "vector")
            return hashed
        _record_fallback("join", "hash_join_bailed")
    _record_tier("join", "interpreted")
    rows: list[tuple] = []
    right_rows = right.to_rows()
    for left_values in left.to_rows():
        matched = False
        for right_values in right_rows:
            candidate = left_values + right_values
            probe = DataFrame.from_rows([candidate], columns)
            context = RowContext(probe.row(0), None, joined=True)
            if is_truthy(evaluate(join.on, context)):
                matched = True
                rows.append(candidate)
        if not matched and join.kind == "left":
            rows.append(left_values + (None,) * right.num_columns)
    return DataFrame.from_rows(rows, columns)


class _NanJoinKey(Exception):
    """A join key parsed to NaN — equality is not hashable, fall back."""


def _join_key(value):
    """Canonical equi-join key, or None when the value can never match.

    Mirrors ``compare_values`` equality exactly: values with a numeric
    view compare numerically (so ``7``, ``7.0``, ``True`` and ``"7"``
    all collide — Python's cross-type ``==``/``hash`` give the same
    classes), everything else compares as text.  NULL/NaN cells match
    nothing.  A *string* that parses to NaN compares equal to every
    number under ``compare_values``; that is not representable in a
    hash table, so it aborts the fast path.
    """
    if value is None or value != value:
        return None
    number = _to_number(value)
    if number is None:
        return ("t", str(value))
    if number != number:
        raise _NanJoinKey
    return ("n", number)


def _hash_equi_join(left: DataFrame, right: DataFrame, join: JoinClause,
                    columns: list[str]) -> DataFrame | None:
    """O(n+m) hash join for ``ON a.x = b.y``; None = not applicable.

    Emits rows in exactly the nested-loop order (left-major, right rows
    in table order within each match set), so results are bit-identical
    to the generic path.
    """
    on = join.on
    if not (isinstance(on, BinaryOp) and on.op == "="
            and isinstance(on.left, ColumnRef)
            and isinstance(on.right, ColumnRef)):
        return None
    # plan_select has already rejected unresolvable or ambiguous refs.
    shape = DataFrame.empty(columns)
    first = columns.index(resolve_joined_ref(shape, on.left))
    second = columns.index(resolve_joined_ref(shape, on.right))
    left_index, right_index = min(first, second), max(first, second)
    if not (left_index < left.num_columns <= right_index):
        return None  # both sides of = live in the same frame
    right_index -= left.num_columns

    right_rows = right.to_rows()
    try:
        table: dict = {}
        for position, values in enumerate(right_rows):
            key = _join_key(values[right_index])
            if key is not None:
                table.setdefault(key, []).append(position)
        rows: list[tuple] = []
        pad = (None,) * right.num_columns
        for left_values in left.to_rows():
            key = _join_key(left_values[left_index])
            matches = table.get(key) if key is not None else None
            if matches:
                for position in matches:
                    rows.append(left_values + right_rows[position])
            elif join.kind == "left":
                rows.append(left_values + pad)
    except _NanJoinKey:
        return None
    return DataFrame.from_rows(rows, columns)


def _output_names(items: list[SelectItem]) -> list[str]:
    return dedupe_column_names([item.output_name for item in items])


def _alias_positions(items: list[SelectItem]) -> dict[str, int]:
    return {
        item.alias: position
        for position, item in enumerate(items) if item.alias
    }


def _vector_order_specs(order_by, items, shape: FrameShape, *, group: bool):
    """Lower ORDER BY items to (output position | kernel, desc) pairs.

    Select-list aliases resolve against the computed output row
    (position), everything else must compile to a whole-column (or
    group) kernel — the same resolution order as the interpreter's
    ``_order_key``.  None = fall back.
    """
    alias_index = _alias_positions(items)
    lower = compile_group_vector if group else compile_vector
    specs = []
    for order in order_by:
        expr = order.expression
        if (isinstance(expr, ColumnRef) and expr.table is None
                and expr.name in alias_index):
            specs.append((alias_index[expr.name], None, order.descending))
        else:
            fn = lower(expr, shape)
            if fn is None:
                return None
            specs.append((None, fn, order.descending))
    return specs


def _execute_plain_vector(stmt: SelectStatement, frame: DataFrame,
                          alias: str | None, *,
                          joined: bool = False) -> DataFrame | None:
    """Column-at-a-time select list + ORDER BY; None = fall back.

    All-or-nothing per stage: every select item and every non-alias
    ORDER BY expression must compile to a total whole-column kernel,
    otherwise the interpreter runs the stage instead (same results, and
    errors raised in its own row order).
    """
    items = _expand_star(stmt, frame, joined=joined)
    shape = FrameShape(frame, joined=joined)
    item_fns = []
    for item in items:
        fn = compile_vector(item.expression, shape)
        if fn is None:
            return None
        item_fns.append(fn)
    order_specs = None
    if stmt.order_by:
        order_specs = _vector_order_specs(stmt.order_by, items, shape,
                                          group=False)
        if order_specs is None:
            return None

    names = _output_names(items)
    ctx = VectorContext(frame)
    columns = [fn(ctx) for fn in item_fns]
    result = DataFrame([Column(name, values)
                        for name, values in zip(names, columns)])
    if order_specs is not None:
        key_columns = []
        for position, fn, descending in order_specs:
            values = columns[position] if fn is None else fn(ctx)
            key_columns.append([_wrap_order_value(value, descending)
                                for value in values])
        indexes = sorted(
            range(result.num_rows),
            key=lambda i: tuple(column[i] for column in key_columns))
        result = result.take(indexes)
    return result


def _execute_aggregate_vector(stmt: SelectStatement, frame: DataFrame,
                              alias: str | None, *,
                              joined: bool = False) -> DataFrame | None:
    """Single-pass vectorized GROUP BY/aggregates; None = fall back.

    Grouping buckets row *indexes* (first-seen order, keyed like
    :func:`repro.table.ops.group_by`), aggregates reduce gathered column
    slices, and HAVING/items/ORDER BY all run as two-phase group
    kernels.  Any stage that fails to compile aborts the whole path.
    """
    items = _expand_star(stmt, frame, joined=joined)
    alias_map = {
        item.alias: item.expression for item in items if item.alias}
    shape = FrameShape(frame, joined=joined)

    # Compile everything before touching data, so fallback is clean.
    having_fn = None
    if stmt.having is not None:
        having_fn = compile_group_vector(
            _resolve_aliases(stmt.having, alias_map), shape)
        if having_fn is None:
            return None
    item_fns = []
    for item in items:
        fn = compile_group_vector(item.expression, shape)
        if fn is None:
            return None
        item_fns.append(fn)
    order_specs = None
    if stmt.order_by:
        order_specs = _vector_order_specs(stmt.order_by, items, shape,
                                          group=True)
        if order_specs is None:
            return None

    key_plan = []
    if stmt.group_by:
        for expr in stmt.group_by:
            expr = resolve_group_key(expr, frame, alias_map)
            if isinstance(expr, ColumnRef):
                key_plan.append(expr)
            else:
                fn = compile_vector(expr, shape)
                if fn is None:
                    return None
                key_plan.append(fn)

    names = _output_names(items)
    groups: list[list[int]] = []
    ctx = VectorContext(frame)
    if stmt.group_by:
        key_columns = []
        for planned_key in key_plan:
            if isinstance(planned_key, ColumnRef):
                # Resolve exactly as the interpreter does.
                if joined:
                    name = resolve_joined_ref(frame, planned_key)
                else:
                    name = frame.column(planned_key.name).name
                key_columns.append(frame.column(name).values)
            else:
                key_columns.append(planned_key(ctx))
        def _bucket(keys) -> list[list[int]]:
            buckets: dict = {}
            grouped: list[list[int]] = []
            for index, group_key in enumerate(keys):
                bucket = buckets.get(group_key)
                if bucket is None:
                    buckets[group_key] = bucket = []
                    grouped.append(bucket)
                bucket.append(index)
            return grouped

        # _hashable() inlined column-at-a-time: the tagged tuple below
        # is exactly its result for every non-container value.  A rare
        # container cell makes the tuple unhashable, so the bucket
        # insert raises TypeError and we redo with the real _hashable.
        hashed = [[(type(value).__name__, value) for value in column]
                  for column in key_columns]
        try:
            groups = _bucket(
                hashed[0] if len(hashed) == 1 else list(zip(*hashed)))
        except TypeError:
            hashed = [[_hashable(value) for value in column]
                      for column in key_columns]
            groups = _bucket(
                hashed[0] if len(hashed) == 1 else list(zip(*hashed)))
    else:
        # One group over every row, even none (see _execute_aggregate).
        groups.append(list(range(frame.num_rows)))

    having_pg = having_fn(ctx) if having_fn is not None else None
    item_pgs = [fn(ctx) for fn in item_fns]
    order_pgs = None
    if order_specs is not None:
        order_pgs = [(position, None if fn is None else fn(ctx), desc)
                     for position, fn, desc in order_specs]

    rows = []
    kept_groups = []
    for indexes in groups:
        if having_pg is not None and not is_truthy(having_pg(indexes)):
            continue
        rows.append(tuple(pg(indexes) for pg in item_pgs))
        kept_groups.append(indexes)

    if order_pgs is not None:
        keys = [
            tuple(_wrap_order_value(
                out[position] if pg is None else pg(indexes), descending)
                for position, pg, descending in order_pgs)
            for indexes, out in zip(kept_groups, rows)
        ]
        order = sorted(range(len(rows)), key=keys.__getitem__)
        rows = [rows[i] for i in order]
    return DataFrame.from_rows(rows, names)


def _execute_plain(stmt: SelectStatement, frame: DataFrame,
                   alias: str | None, *, joined: bool = False) -> DataFrame:
    items = _expand_star(stmt, frame, joined=joined)
    names = _output_names(items)
    rows = []
    order_keys = []
    for row in frame.iter_rows():
        context = RowContext(row, alias, joined=joined)
        rows.append(tuple(
            evaluate(item.expression, context) for item in items))
        if stmt.order_by:
            order_keys.append(_order_key(stmt.order_by, context,
                                         rows[-1], items))
    if stmt.order_by:
        indexes = sorted(range(len(rows)), key=lambda i: order_keys[i])
        rows = [rows[i] for i in indexes]
    return DataFrame.from_rows(rows, names)


def _execute_aggregate(stmt: SelectStatement, frame: DataFrame,
                       alias: str | None, *,
                       joined: bool = False) -> DataFrame:
    items = _expand_star(stmt, frame, joined=joined)
    names = _output_names(items)

    alias_map = {
        item.alias: item.expression for item in items if item.alias}

    groups: list[DataFrame] = []
    if stmt.group_by:
        key_names = []
        working = frame.copy()
        for position, expr in enumerate(stmt.group_by):
            expr = resolve_group_key(expr, working, alias_map)
            if isinstance(expr, ColumnRef):
                if joined:
                    key_names.append(resolve_joined_name(
                        working.columns, expr))
                else:
                    key_names.append(working.column(expr.name).name)
            else:
                # Group by a computed expression: materialise it.
                computed = [
                    evaluate(expr, RowContext(row, alias, joined=joined))
                    for row in working.iter_rows()
                ]
                key = f"__group_{position}"
                working[key] = computed
                key_names.append(key)
        for _, sub in group_by(working, key_names).groups():
            groups.append(sub.drop([
                name for name in key_names if name.startswith("__group_")
            ]))
    else:
        # A single implicit group covering the whole table.  Over no rows
        # it is empty, and SQLite still answers one row: aggregates take
        # their empty values (COUNT 0, the rest NULL), bare columns read
        # NULL and the expressions around them are computed.
        groups.append(frame)

    having = stmt.having
    if having is not None:
        having = _resolve_aliases(having, alias_map)

    rows = []
    contexts = []
    for group in groups:
        context = GroupContext(group, alias, joined=joined)
        if having is not None:
            if not is_truthy(evaluate(having, context)):
                continue
        rows.append(tuple(
            evaluate(item.expression, context) for item in items))
        contexts.append(context)

    if stmt.order_by:
        keys = [
            _order_key(stmt.order_by, context, row, items)
            for context, row in zip(contexts, rows)
        ]
        indexes = sorted(range(len(rows)), key=lambda i: keys[i])
        rows = [rows[i] for i in indexes]
    return DataFrame.from_rows(rows, names)


def _wrap_order_value(value, descending: bool) -> tuple:
    """One ORDER BY key part: NULL is the smallest value (SQLite), so it
    sorts first ascending and last descending."""
    base = _sort_key_for([value])(value)
    missing = is_missing_value(value)
    if descending:
        return (missing, _Reversed(base))
    return (not missing, base)


def _order_key(order_by: tuple[OrderItem, ...], context, row_values,
               items) -> tuple:
    """Build a sort key for one output row.

    ORDER BY expressions may reference select-list aliases; those are
    resolved against the computed output row first, then evaluated in the
    row/group context.
    """
    alias_index = _alias_positions(items)
    key_parts = []
    for order in order_by:
        expr = order.expression
        if (isinstance(expr, ColumnRef) and expr.table is None
                and expr.name in alias_index):
            value = row_values[alias_index[expr.name]]
        else:
            value = evaluate(expr, context)
        key_parts.append(_wrap_order_value(value, order.descending))
    return tuple(key_parts)


class _Reversed:
    """Wrapper inverting comparison order, for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


class NativeSQLEngine:
    """Object-style facade over the native engine.

    Example::

        engine = NativeSQLEngine({"T0": frame})
        result = engine.query("SELECT Cyclist FROM T0 WHERE Rank <= 10")
    """

    def __init__(self, tables: Mapping[str, DataFrame] | None = None):
        self._tables: dict[str, DataFrame] = dict(tables or {})

    def register(self, name: str, frame: DataFrame) -> None:
        """Add or replace a table in the catalog."""
        self._tables[name] = frame

    def unregister(self, name: str) -> None:
        self._tables.pop(name, None)

    @property
    def tables(self) -> dict[str, DataFrame]:
        return dict(self._tables)

    def query(self, sql: str) -> DataFrame:
        """Execute a SELECT and return the result frame."""
        return execute_sql(sql, self._tables)
