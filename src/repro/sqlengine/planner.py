"""Plan-level rewrites and the totality analysis that licenses them.

The executor's pipeline is semantically fixed: FROM -> WHERE -> GROUP BY
-> HAVING -> select-list -> DISTINCT -> ORDER BY -> LIMIT.  This module
rewrites a parsed :class:`~repro.sqlengine.ast_nodes.SelectStatement`
into a cheaper but *bit-identical* plan:

* **Predicate pushdown below joins** — WHERE conjuncts that reference a
  single source table filter that table *before* the join materialises
  the cross product;
* **HAVING pushdown below GROUP BY** — aggregate-free HAVING conjuncts
  that only touch GROUP BY key columns move into WHERE, shrinking every
  group before bucketing;
* **LIMIT short-circuit into the scan** — plain filtered queries stop
  evaluating the WHERE mask once ``OFFSET + LIMIT`` rows have matched.

Every rewrite changes *when* (or whether) expressions are evaluated, so
each is gated on :func:`is_total`: a conservative, dtype-aware proof
that an expression can never raise and resolves statically.  A rewrite
that cannot be proven safe simply does not fire — the unrewritten plan
runs and the interpreter oracle (``REPRO_SQL_VECTOR=0``) stays
bit-identical, errors included.  The same analysis is what licenses the
eager column-at-a-time evaluation in :mod:`repro.sqlengine.vector`
(eager kernels evaluate expressions on rows the row-at-a-time engine
would short-circuit past, which is only sound if those expressions
cannot raise).

Before any rewrite, :func:`plan_select` checks the statement against the
schema the way SQLite does when it prepares one: an unknown column or
function, a wrong argument count or a misplaced aggregate fails the
query whether its tables hold rows or not.  Both tiers run this check.

Planned statements are memoised through the same LRU machinery as the
parse cache (see :data:`repro.sqlengine.plancache.DEFAULT_REWRITE_CACHE`),
keyed by the parsed statement *and* the catalog schema signature —
dtype-aware safety proofs are only valid for the column types they were
made against.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import SQLRuntimeError, TableError
from repro.sqlengine.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    LikeOp,
    Literal,
    SelectItem,
    SelectStatement,
    Star,
    UnaryOp,
)
from repro.sqlengine.evaluator import (
    expression_uses_aggregate,
    resolve_joined_ref,
)
from repro.sqlengine.functions import (
    NUMERIC_SAFE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    TOTAL_TEXT_FUNCTIONS,
    is_aggregate_name,
)
from repro.table.frame import DataFrame
from repro.table.schema import ColumnType

__all__ = [
    "FrameShape",
    "PlannedSelect",
    "plan_select",
    "expand_star",
    "is_aggregate_query",
    "is_total",
    "numeric_kind",
    "split_conjuncts",
    "conjoin",
    "resolve_aliases",
    "resolve_group_key",
    "resolve_table",
]


def resolve_table(name: str, tables: Mapping[str, DataFrame]) -> DataFrame:
    """Catalog lookup: exact name first, then case-insensitive."""
    if name in tables:
        return tables[name]
    lowered = name.lower()
    for key, frame in tables.items():
        if key.lower() == lowered:
            return frame
    raise SQLRuntimeError(
        f"no such table: {name} (available: {', '.join(tables)})")


class FrameShape:
    """Static resolution + dtype view of one frame (or join shape).

    Mirrors the interpreter's resolution rules (exact name, then
    case-insensitive; the joined suffix scheme) but never raises: :meth:`resolve` returns
    ``None`` on a miss or ambiguity, which the analysis treats as
    "cannot prove safe".
    """

    __slots__ = ("frame", "joined", "source", "_dtypes")

    def __init__(self, frame: DataFrame, *, joined: bool = False,
                 dtypes: dict[str, ColumnType] | None = None,
                 source: str | None = None):
        self.frame = frame
        self.joined = joined
        #: The FROM table's alias or name, when a check must bind a
        #: single-table qualifier (``T0.x``) to it.
        self.source = source
        # Join shapes are built over empty frames, so dtypes come from
        # the source frames via an explicit map.
        self._dtypes = dtypes

    @classmethod
    def for_join(cls, parts: list[tuple[str, DataFrame]]) -> "FrameShape":
        """Shape of ``parts`` (alias, frame) pairs joined and prefixed."""
        names: list[str] = []
        dtypes: dict[str, ColumnType] = {}
        for alias, frame in parts:
            for column in frame.columns:
                prefixed = f"{alias}.{column}"
                names.append(prefixed)
                dtypes[prefixed] = frame.column(column).dtype
        return cls(DataFrame.empty(names), joined=True, dtypes=dtypes)

    def resolve(self, ref: ColumnRef) -> str | None:
        """Resolved column name for ``ref``, or None if unresolvable."""
        try:
            if self.joined:
                return resolve_joined_ref(self.frame, ref)
            found = self.frame._columns.get(ref.name)  # noqa: SLF001
            if found is not None:
                return found.name
            return self.frame.lowered_names().get(ref.name.lower())
        except SQLRuntimeError:
            return None

    def dtype_of(self, ref: ColumnRef) -> ColumnType | None:
        name = self.resolve(ref)
        if name is None:
            return None
        if self._dtypes is not None:
            return self._dtypes.get(name)
        return self.frame.column(name).dtype


# --- totality / kind analysis ------------------------------------------------

#: Dtypes whose non-missing values are int/float/bool — arithmetic-safe.
_INT_KINDS = (ColumnType.NULL, ColumnType.BOOL, ColumnType.INTEGER)


def numeric_kind(expr: Expression, shape: FrameShape, *,
                 group: bool = False) -> str | None:
    """``"int"`` / ``"float"`` if ``expr`` provably yields only numbers
    (or NULL) of that kind; ``None`` when no proof exists.

    "int" additionally promises finiteness (no inf), which is what makes
    ``CAST(... AS INTEGER)``, ``floor`` and ``round`` total.
    """
    if isinstance(expr, Literal):
        value = expr.value
        if value is None or isinstance(value, (bool, int)):
            return "int"
        if isinstance(value, float):
            return None if value != value or value in (
                float("inf"), float("-inf")) else "float"
        if isinstance(value, str):
            text = value.strip().replace(",", "")
            try:
                int(text)
                return "int"
            except ValueError:
                try:
                    parsed = float(text)
                except ValueError:
                    return None
                # 'nan'/'inf' literals parse but break floor/ceil/CAST.
                if parsed != parsed or parsed in (float("inf"),
                                                 float("-inf")):
                    return None
                return "float"
        return None
    if isinstance(expr, ColumnRef):
        dtype = shape.dtype_of(expr)
        if dtype in _INT_KINDS:
            return "int"
        if dtype is ColumnType.REAL:
            # REAL columns may in principle hold inf; arithmetic on them
            # is still total (IEEE), but int-only contexts must refuse.
            return "float"
        return None
    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            return "int" if is_total(expr.operand, shape,
                                     group=group) else None
        return numeric_kind(expr.operand, shape, group=group)
    if isinstance(expr, BinaryOp):
        op = expr.op
        if op in ("AND", "OR") or op in _COMPARISON_OPS:
            total = (is_total(expr.left, shape, group=group)
                     and is_total(expr.right, shape, group=group))
            return "int" if total else None
        if op in ("+", "-", "*", "/", "%"):
            left = numeric_kind(expr.left, shape, group=group)
            right = numeric_kind(expr.right, shape, group=group)
            if left is None or right is None:
                return None
            return "float" if "float" in (left, right) else "int"
        return None  # || yields text
    if isinstance(expr, (IsNull, InList, Between, LikeOp)):
        return "int" if is_total(expr, shape, group=group) else None
    if isinstance(expr, CaseWhen):
        if not is_total(expr, shape, group=group):
            return None
        kinds = {numeric_kind(result, shape, group=group)
                 for _, result in expr.whens}
        kinds.add("int" if expr.default is None
                  else numeric_kind(expr.default, shape, group=group))
        if None in kinds:
            return None
        return "float" if "float" in kinds else "int"
    if isinstance(expr, Cast):
        if not is_total(expr, shape, group=group):
            return None
        if expr.target == "INTEGER":
            return "int"
        if expr.target == "REAL":
            return "float"
        return None
    if isinstance(expr, FunctionCall):
        name = expr.name.lower()
        if is_aggregate_name(name):
            if not group or not is_total(expr, shape, group=True):
                return None
            if name == "count":
                return "int"
            if name in ("sum", "min", "max"):
                return numeric_kind(expr.args[0], shape, group=False) \
                    if expr.args else None
            if name in ("avg", "total"):
                arg = numeric_kind(expr.args[0], shape, group=False) \
                    if expr.args else None
                return "float" if arg is not None else None
            return None  # group_concat yields text
        if not is_total(expr, shape, group=group):
            return None
        if name in ("length", "instr", "floor", "ceil", "ceiling"):
            return "int"
        if name == "abs":
            return numeric_kind(expr.args[0], shape, group=group)
        if name == "round":
            return "float"
        return None
    return None


_COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})


def _arity_ok(spec: tuple[int, int], count: int) -> bool:
    low, high = spec
    return low <= count <= high


def is_total(expr: Expression, shape: FrameShape, *,
             group: bool = False) -> bool:
    """True when evaluating ``expr`` can never raise, for any row of a
    frame matching ``shape``.

    Conservative by construction: unknown nodes, unresolvable column
    references, arithmetic over TEXT columns, and functions outside the
    never-raising whitelist all answer False.  ``group=True`` admits
    aggregate calls (whose arguments are checked in row context).

    One documented assumption: stored numeric columns hold *finite*
    human-scale values (no inf/nan floats — NaN is "missing" anyway —
    and integers well below 1e308).  The dataset loaders and generators
    guarantee this, and it is what makes ``round``/``floor``/``CAST AS
    REAL`` over numeric columns total (``float()`` of a >1e308 integer
    would raise).  The analysis rejects the cases that violate it
    statically (``'inf'``/``'nan'`` literals, TEXT operands).
    """
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, ColumnRef):
        return shape.resolve(expr) is not None
    if isinstance(expr, Star):
        return False
    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            return is_total(expr.operand, shape, group=group)
        return numeric_kind(expr.operand, shape, group=group) is not None
    if isinstance(expr, BinaryOp):
        op = expr.op
        if op in ("AND", "OR") or op in _COMPARISON_OPS or op == "||":
            return (is_total(expr.left, shape, group=group)
                    and is_total(expr.right, shape, group=group))
        if op in ("+", "-", "*", "/", "%"):
            return (numeric_kind(expr.left, shape, group=group) is not None
                    and numeric_kind(expr.right, shape,
                                     group=group) is not None)
        return False
    if isinstance(expr, InList):
        return (is_total(expr.operand, shape, group=group)
                and all(is_total(item, shape, group=group)
                        for item in expr.items))
    if isinstance(expr, Between):
        return all(is_total(part, shape, group=group)
                   for part in (expr.operand, expr.low, expr.high))
    if isinstance(expr, IsNull):
        return is_total(expr.operand, shape, group=group)
    if isinstance(expr, LikeOp):
        return (is_total(expr.operand, shape, group=group)
                and is_total(expr.pattern, shape, group=group))
    if isinstance(expr, CaseWhen):
        parts = [part for pair in expr.whens for part in pair]
        if expr.default is not None:
            parts.append(expr.default)
        return all(is_total(part, shape, group=group) for part in parts)
    if isinstance(expr, Cast):
        if expr.target == "TEXT":
            return is_total(expr.operand, shape, group=group)
        if expr.target == "REAL":
            # float(number) is total (inf passes through); the numeric
            #-prefix fallback regex never raises either.
            return is_total(expr.operand, shape, group=group)
        # INTEGER: int(inf) raises, so demand finite ("int") operands.
        return numeric_kind(expr.operand, shape, group=group) == "int"
    if isinstance(expr, FunctionCall):
        name = expr.name.lower()
        args = expr.args
        if is_aggregate_name(name):
            if not group:
                return False
            if name == "count" and len(args) == 1 \
                    and isinstance(args[0], Star):
                return True
            return len(args) == 1 and is_total(args[0], shape,
                                               group=False)
        if name in TOTAL_TEXT_FUNCTIONS:
            return _arity_ok(TOTAL_TEXT_FUNCTIONS[name], len(args)) \
                and all(is_total(arg, shape, group=group) for arg in args)
        if name in NUMERIC_SAFE_FUNCTIONS:
            return _arity_ok(NUMERIC_SAFE_FUNCTIONS[name], len(args)) \
                and all(numeric_kind(arg, shape, group=group) is not None
                        for arg in args)
        if name in ("substr", "substring"):
            return (len(args) in (2, 3)
                    and is_total(args[0], shape, group=group)
                    and all(numeric_kind(arg, shape,
                                         group=group) is not None
                            for arg in args[1:]))
        return False
    return False


# --- conjunct utilities ------------------------------------------------------


def split_conjuncts(expr: Expression) -> list[Expression]:
    """Flatten a top-level AND chain into its conjuncts, left to right."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(parts: list[Expression]) -> Expression | None:
    """Left-associated AND of ``parts`` (None for an empty list)."""
    if not parts:
        return None
    result = parts[0]
    for part in parts[1:]:
        result = BinaryOp("AND", result, part)
    return result


def resolve_aliases(expr: Expression,
                    alias_map: Mapping[str, Expression]) -> Expression:
    """Substitute select-list aliases (SQLite allows them in HAVING)."""

    def walk(node):
        if isinstance(node, ColumnRef):
            if node.table is None and node.name in alias_map:
                return alias_map[node.name]
            return node
        if isinstance(node, UnaryOp):
            return dataclasses.replace(node, operand=walk(node.operand))
        if isinstance(node, BinaryOp):
            return dataclasses.replace(node, left=walk(node.left),
                                       right=walk(node.right))
        if isinstance(node, FunctionCall):
            return dataclasses.replace(
                node, args=tuple(walk(a) for a in node.args))
        if isinstance(node, InList):
            return dataclasses.replace(
                node, operand=walk(node.operand),
                items=tuple(walk(i) for i in node.items))
        if isinstance(node, Between):
            return dataclasses.replace(
                node, operand=walk(node.operand), low=walk(node.low),
                high=walk(node.high))
        if isinstance(node, IsNull):
            return dataclasses.replace(node, operand=walk(node.operand))
        if isinstance(node, LikeOp):
            return dataclasses.replace(
                node, operand=walk(node.operand),
                pattern=walk(node.pattern))
        if isinstance(node, CaseWhen):
            whens = tuple((walk(c), walk(r)) for c, r in node.whens)
            default = walk(node.default) if node.default else None
            return dataclasses.replace(node, whens=whens, default=default)
        if isinstance(node, Cast):
            return dataclasses.replace(node, operand=walk(node.operand))
        return node

    return walk(expr)


def resolve_group_key(key: Expression, frame: DataFrame,
                      alias_map: Mapping[str, Expression]) -> Expression:
    """A GROUP BY key with a select-list alias replaced by its expression.

    SQLite allows aliases in GROUP BY; a bare name that is a column of
    ``frame`` (exactly) stays the column.
    """
    if (isinstance(key, ColumnRef) and key.table is None
            and key.name not in frame and key.name in alias_map):
        return alias_map[key.name]
    return key


# --- the planned form --------------------------------------------------------


@dataclass(frozen=True)
class PlannedSelect:
    """A statement plus the rewrites the executor should apply.

    ``pushed`` maps join positions to pre-join filters: position ``-1``
    is the FROM table, position ``i`` is ``stmt.joins[i]``'s table.  The
    predicates are rewritten against *source-frame* column names (the
    alias prefix stripped), ready to evaluate before prefixing.
    ``error`` is the message the statement fails with against this
    schema before any row is read, or None.
    """

    stmt: SelectStatement
    pushed: tuple[tuple[int, Expression], ...] = ()
    scan_limit: int | None = None
    rewrites: tuple[str, ...] = ()
    error: str | None = None


def _children(node: Expression) -> tuple[Expression, ...]:
    """``node``'s operands in the interpreter's evaluation order."""
    if isinstance(node, (UnaryOp, IsNull, Cast)):
        return (node.operand,)
    if isinstance(node, BinaryOp):
        return (node.left, node.right)
    if isinstance(node, FunctionCall):
        return node.args
    if isinstance(node, InList):
        return (node.operand, *node.items)
    if isinstance(node, Between):
        return (node.operand, node.low, node.high)
    if isinstance(node, LikeOp):
        return (node.operand, node.pattern)
    if isinstance(node, CaseWhen):
        parts = tuple(part for pair in node.whens for part in pair)
        return parts if node.default is None else (*parts, node.default)
    return ()


def _collect_refs(expr: Expression) -> list[ColumnRef]:
    if isinstance(expr, ColumnRef):
        return [expr]
    return [ref for child in _children(expr) for ref in _collect_refs(child)]


def _strip_prefix(expr: Expression, alias: str,
                  shape: FrameShape) -> Expression:
    """Rewrite refs resolved as ``alias.col`` down to bare ``col``."""
    prefix = f"{alias}."

    def walk(node):
        if isinstance(node, ColumnRef):
            resolved = shape.resolve(node)
            return ColumnRef(resolved[len(prefix):])
        if isinstance(node, UnaryOp):
            return dataclasses.replace(node, operand=walk(node.operand))
        if isinstance(node, BinaryOp):
            return dataclasses.replace(node, left=walk(node.left),
                                       right=walk(node.right))
        if isinstance(node, FunctionCall):
            return dataclasses.replace(
                node, args=tuple(walk(a) for a in node.args))
        if isinstance(node, InList):
            return dataclasses.replace(
                node, operand=walk(node.operand),
                items=tuple(walk(i) for i in node.items))
        if isinstance(node, Between):
            return dataclasses.replace(
                node, operand=walk(node.operand), low=walk(node.low),
                high=walk(node.high))
        if isinstance(node, IsNull):
            return dataclasses.replace(node, operand=walk(node.operand))
        if isinstance(node, LikeOp):
            return dataclasses.replace(
                node, operand=walk(node.operand),
                pattern=walk(node.pattern))
        if isinstance(node, CaseWhen):
            whens = tuple((walk(c), walk(r)) for c, r in node.whens)
            default = walk(node.default) if node.default else None
            return dataclasses.replace(node, whens=whens, default=default)
        if isinstance(node, Cast):
            return dataclasses.replace(node, operand=walk(node.operand))
        return node

    return walk(expr)


# --- the rewrites ------------------------------------------------------------


def _plan_join_pushdown(stmt: SelectStatement,
                        tables: Mapping[str, DataFrame]):
    """Split WHERE conjuncts onto their single source tables.

    Safe only when the *whole* WHERE and every ON predicate are total:
    pushdown changes which rows (and row pairs) ever see an expression,
    which is invisible exactly when no expression can raise.  Right-side
    pushes additionally require the target join to be INNER — filtering
    the nullable side of a LEFT JOIN changes null-extension.
    """
    parts = [(stmt.table_alias or stmt.table,
              resolve_table(stmt.table, tables))]
    for join in stmt.joins:
        parts.append((join.alias or join.table,
                      resolve_table(join.table, tables)))
    shape = FrameShape.for_join(parts)

    aliases = [alias for alias, _ in parts]
    if len(set(aliases)) != len(aliases):
        # Duplicate aliases make prefix ownership ambiguous; leave the
        # statement for the runtime to reject (or resolve) unrewritten.
        return stmt, (), shape
    if stmt.where is None:
        return stmt, (), shape
    if not is_total(stmt.where, shape):
        return stmt, (), shape
    if not all(is_total(join.on, shape) for join in stmt.joins):
        return stmt, (), shape
    pushed: list[tuple[int, Expression]] = []
    remaining: list[Expression] = []
    for conjunct in split_conjuncts(stmt.where):
        owners = set()
        for ref in _collect_refs(conjunct):
            resolved = shape.resolve(ref)
            owners.add(resolved.split(".", 1)[0])
        target = None
        if len(owners) == 1:
            alias = owners.pop()
            position = aliases.index(alias) - 1
            if position < 0 or stmt.joins[position].kind == "inner":
                target = (position, alias)
        if target is None:
            remaining.append(conjunct)
            continue
        position, alias = target
        source_shape = FrameShape(dict(parts)[alias])
        stripped = _strip_prefix(conjunct, alias, shape)
        # The stripped form must still be total against the bare source
        # frame (it is, by construction; verify rather than trust).
        if is_total(stripped, source_shape):
            pushed.append((position, stripped))
        else:  # pragma: no cover - defensive
            remaining.append(conjunct)
    if not pushed:
        return stmt, (), shape
    stmt = dataclasses.replace(stmt, where=conjoin(remaining))
    return stmt, tuple(pushed), shape


def _plan_having_pushdown(stmt: SelectStatement, shape: FrameShape):
    """Move key-only, aggregate-free HAVING conjuncts into WHERE.

    Group keys are uniform within a group, so a key-only predicate
    filters identical row sets before or after bucketing; totality of
    the whole HAVING keeps error behaviour identical on both paths.
    """
    if stmt.having is None or not stmt.group_by or stmt.joins:
        return stmt, False
    alias_map = {item.alias: item.expression
                 for item in stmt.items if item.alias}
    resolved_having = resolve_aliases(stmt.having, alias_map)
    if not is_total(resolved_having, shape, group=True):
        return stmt, False

    key_names = set()
    for expr in stmt.group_by:
        expr = resolve_group_key(expr, shape.frame, alias_map)
        if isinstance(expr, ColumnRef):
            resolved = shape.resolve(expr)
            if resolved is not None:
                key_names.add(resolved)

    # Split the *original* HAVING so the conjuncts left behind are still
    # unresolved — the executor alias-resolves HAVING itself, and handing
    # it a pre-resolved tree would substitute aliases twice (wrong when
    # an alias shadows a source column, e.g. ``value+1 AS value``).  The
    # pushed conjuncts go into WHERE pre-resolved, because WHERE never
    # sees alias substitution.
    pushed: list[Expression] = []
    remaining: list[Expression] = []
    for conjunct in split_conjuncts(stmt.having):
        resolved = resolve_aliases(conjunct, alias_map)
        refs = _collect_refs(resolved)
        if (not expression_uses_aggregate(resolved)
                and refs
                and all(shape.resolve(ref) in key_names for ref in refs)
                and is_total(resolved, shape)):
            pushed.append(resolved)
        else:
            remaining.append(conjunct)
    if not pushed:
        return stmt, False
    new_where = conjoin(([stmt.where] if stmt.where is not None else [])
                        + pushed)
    stmt = dataclasses.replace(stmt, where=new_where,
                               having=conjoin(remaining))
    return stmt, True


def _plan_limit_scan(stmt: SelectStatement,
                     shape: FrameShape) -> int | None:
    """Row budget for an early-stopping scan, or None.

    Only plain pipelines (no grouping, ordering, or DISTINCT) can stop
    early, and only when neither the WHERE mask nor any select item can
    raise on the rows the scan skips.
    """
    if (stmt.limit is None or stmt.group_by or stmt.having is not None
            or stmt.order_by or stmt.distinct or stmt.joins):
        return None
    for item in stmt.items:
        if isinstance(item.expression, Star):
            continue
        if expression_uses_aggregate(item.expression):
            return None
        if not is_total(item.expression, shape):
            return None
    if stmt.where is not None and not is_total(stmt.where, shape):
        return None
    return stmt.offset + stmt.limit


# --- prepare-time errors -----------------------------------------------------


def expand_star(stmt: SelectStatement, frame: DataFrame, *,
                joined: bool = False) -> list[SelectItem]:
    """The select list with ``*`` expanded to ``frame``'s columns."""
    items: list[SelectItem] = []
    for item in stmt.items:
        if isinstance(item.expression, Star):
            for name in frame.columns:
                # Joined frames carry alias-prefixed columns; the output
                # keeps the bare name (deduped later if ambiguous).
                bare = name.split(".", 1)[1] if joined and "." in name \
                    else None
                items.append(SelectItem(ColumnRef(name), alias=bare))
        else:
            items.append(item)
    return items


def is_aggregate_query(stmt: SelectStatement) -> bool:
    """True when ``stmt`` groups: GROUP BY, or an aggregate in the select
    list.  As in SQLite, HAVING does not make a query aggregate: the
    check refuses HAVING on any other query."""
    return bool(stmt.group_by) or any(
        expression_uses_aggregate(item.expression)
        for item in stmt.items
        if not isinstance(item.expression, Star)
    )


def _check_expression(expr: Expression, shape: FrameShape, *,
                      group: bool) -> None:
    """Raise what evaluating ``expr`` raises whatever the cell values.

    Follows :func:`repro.sqlengine.evaluator.evaluate` and its order —
    ``group`` picks a group context over a row context — but only for
    the errors no value can avoid: an unknown column or function, a
    wrong argument count, an aggregate outside a group, a misplaced
    ``*``.
    """
    if isinstance(expr, ColumnRef):
        if shape.joined:
            resolve_joined_ref(shape.frame, expr)
        else:
            _check_qualifier(expr, shape)
            if shape.resolve(expr) is None:
                raise SQLRuntimeError(f"no such column: {expr.name}")
        return
    if isinstance(expr, Star):
        raise SQLRuntimeError("'*' is only valid in COUNT(*)")
    if isinstance(expr, FunctionCall) and is_aggregate_name(expr.name):
        if not group:
            raise SQLRuntimeError(
                f"aggregate {expr.name.upper()}() outside GROUP BY context")
        args = expr.args
        if expr.name.lower() == "count" and args \
                and isinstance(args[0], Star):
            return
        if len(args) != 1:
            raise SQLRuntimeError(
                f"{expr.name.upper()}() expects one argument")
        _check_expression(args[0], shape, group=False)
        return
    for child in _children(expr):
        _check_expression(child, shape, group=group)
    if isinstance(expr, FunctionCall):
        function = SCALAR_FUNCTIONS.get(expr.name.lower())
        if function is None:
            raise SQLRuntimeError(f"unknown function {expr.name!r}")
        # Every scalar function answers NULL to a NULL first argument, so
        # a call with only NULLs runs nothing but its arity check.
        function([None] * len(expr.args))


def _check_qualifier(ref: ColumnRef, shape: FrameShape) -> None:
    """Refuse a single-table reference whose qualifier names neither
    the FROM table nor its alias, as SQLite does."""
    if (ref.table is not None and shape.source is not None
            and ref.table.lower() != shape.source.lower()):
        raise SQLRuntimeError(f"no such column: {ref.table}.{ref.name}")


def _check_statement(stmt: SelectStatement,
                     tables: Mapping[str, DataFrame]) -> None:
    """Raise the first error the interpreter would raise on ``stmt``
    however many rows its tables hold.

    SQLite binds every name when it prepares a statement, so a query over
    an empty table fails as it does over a full one; the interpreter only
    meets a name when it evaluates a row.  The walk follows the
    executor's pipeline (ON, WHERE, GROUP BY, HAVING, select list, ORDER
    BY) and its alias rules, so a statement that fails on its first row
    fails here with the same error.  It also refuses, with SQLite's
    messages, two statements the interpreter would run: HAVING on a
    query that does not aggregate, and a qualifier that names neither
    the FROM table nor its alias.
    """
    parts = [(stmt.table_alias or stmt.table,
              resolve_table(stmt.table, tables))]
    parts += [(join.alias or join.table, resolve_table(join.table, tables))
              for join in stmt.joins]
    try:
        # Each ON predicate sees the tables joined so far.
        shapes = [FrameShape.for_join(parts[:position + 2])
                  for position in range(len(stmt.joins))]
    except TableError:
        return  # the join's own columns fail before any expression runs
    for join, shape in zip(stmt.joins, shapes):
        _check_expression(join.on, shape, group=False)
    shape = shapes[-1] if shapes else FrameShape(parts[0][1],
                                                 source=parts[0][0])
    if stmt.where is not None:
        _check_expression(stmt.where, shape, group=False)
    items = expand_star(stmt, shape.frame, joined=shape.joined)
    aliases = {item.alias: item.expression for item in items if item.alias}
    grouped = is_aggregate_query(stmt)
    if grouped:
        for key in stmt.group_by:
            key = resolve_group_key(key, shape.frame, aliases)
            if not isinstance(key, ColumnRef):
                _check_expression(key, shape, group=False)
            elif shape.joined:
                resolve_joined_ref(shape.frame, key)
            else:
                _check_qualifier(key, shape)
                shape.frame.column(key.name)
        if stmt.having is not None:
            _check_expression(resolve_aliases(stmt.having, aliases), shape,
                              group=True)
    for item in items:
        _check_expression(item.expression, shape, group=grouped)
    if stmt.having is not None and not grouped:
        # After the select list, where SQLite refuses it too.
        raise SQLRuntimeError("HAVING clause on a non-aggregate query")
    for order in stmt.order_by:
        expr = order.expression
        if not (isinstance(expr, ColumnRef) and expr.table is None
                and expr.name in aliases):
            _check_expression(expr, shape, group=grouped)


# --- entry point -------------------------------------------------------------


def _schema_signature(stmt: SelectStatement,
                      tables: Mapping[str, DataFrame]) -> tuple:
    names = [stmt.table] + [join.table for join in stmt.joins]
    signature = []
    for name in names:
        frame = resolve_table(name, tables)
        signature.append((tuple(frame.columns),
                          tuple(frame.column(c).dtype
                                for c in frame.columns)))
    return tuple(signature)


def _rewrite(stmt: SelectStatement,
             tables: Mapping[str, DataFrame]) -> PlannedSelect:
    rewrites: list[str] = []
    pushed: tuple[tuple[int, Expression], ...] = ()
    scan_limit = None
    original = stmt
    try:
        if stmt.joins:
            stmt, pushed, shape = _plan_join_pushdown(stmt, tables)
            if pushed:
                rewrites.append("join_pushdown")
        else:
            shape = FrameShape(resolve_table(stmt.table, tables))
            stmt, moved = _plan_having_pushdown(stmt, shape)
            if moved:
                rewrites.append("having_pushdown")
        scan_limit = _plan_limit_scan(stmt, shape)
        if scan_limit is not None:
            rewrites.append("limit_scan")
    except TableError:
        # Malformed shapes (duplicate prefixed columns, …) are the
        # runtime's errors to raise, in its own order — don't plan.
        stmt, rewrites, pushed, scan_limit = original, [], (), None
    return PlannedSelect(stmt=stmt, pushed=pushed, scan_limit=scan_limit,
                         rewrites=tuple(rewrites))


def plan_select(stmt: SelectStatement, tables: Mapping[str, DataFrame], *,
                rewrite: bool = True) -> PlannedSelect:
    """Check ``stmt`` against ``tables`` and, with ``rewrite``, rewrite it
    for execution (memoised)."""
    from repro.sqlengine.plancache import (
        DEFAULT_REWRITE_CACHE,
        plan_cache_enabled,
    )
    from repro.telemetry.metrics import GLOBAL_REGISTRY

    signature = _schema_signature(stmt, tables)
    # repr, not the statement itself: dataclass equality conflates
    # Literal(7) / Literal(7.0) / Literal(True), which are distinct
    # statements that must not share a cached plan.
    key = (repr(stmt), signature, rewrite)
    caching = plan_cache_enabled()
    if caching:
        lookups = GLOBAL_REGISTRY.counter(
            "cache.lookups", "cache lookups by cache name and result")
        cached = DEFAULT_REWRITE_CACHE.get(key)
        if cached is not None:
            lookups.inc(cache="sql_rewrite", result="hit")
            return cached
        lookups.inc(cache="sql_rewrite", result="miss")

    try:
        _check_statement(stmt, tables)
    except (SQLRuntimeError, TableError) as exc:
        planned = PlannedSelect(stmt=stmt, error=str(exc))
    else:
        planned = _rewrite(stmt, tables) if rewrite \
            else PlannedSelect(stmt=stmt)
    if caching:
        DEFAULT_REWRITE_CACHE.put(key, planned)
    return planned
