"""Expression evaluation for the native SQL engine.

Follows SQLite semantics where they matter for TQA queries:

* NULL propagates through arithmetic and comparisons; WHERE/HAVING treat a
  NULL condition as false.
* Values compare within type classes (numbers sort before text); numeric
  strings compare numerically against numbers.
* ``LIKE`` is case-insensitive with ``%``/``_`` wildcards.
* Division by zero yields NULL.
"""

from __future__ import annotations

import functools
import re

from repro.errors import SQLRuntimeError
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
    Star,
    UnaryOp,
)
from repro.sqlengine.functions import call_scalar, is_aggregate_name
from repro.table.frame import DataFrame, Row
from repro.table.ops import aggregate_values
from repro.table.schema import is_missing

__all__ = ["RowContext", "GroupContext", "evaluate", "is_truthy",
           "expression_uses_aggregate", "resolve_joined_name",
           "resolve_joined_ref"]


def resolve_joined_name(columns, ref: ColumnRef) -> str:
    """Resolve a (possibly qualified) reference over prefixed columns.

    Joined frames name their columns ``alias.column``.  Qualified
    references resolve exactly; bare references resolve by suffix and
    must be unambiguous, matching SQL semantics.

    This is the uncached generic form over a plain column list; hot paths
    pass a frame to :func:`resolve_joined_ref`, which memoises the lowered
    and suffix maps on the frame itself.
    """
    if isinstance(columns, DataFrame):
        return resolve_joined_ref(columns, ref)
    if ref.table:
        target = f"{ref.table}.{ref.name}".lower()
        for column in columns:
            if column.lower() == target:
                return column
        raise SQLRuntimeError(
            f"no such column: {ref.table}.{ref.name}")
    lowered = ref.name.lower()
    exact = [c for c in columns if c.lower() == lowered]
    if exact:
        return exact[0]
    suffix = [c for c in columns if c.lower().endswith("." + lowered)]
    if len(suffix) == 1:
        return suffix[0]
    if len(suffix) > 1:
        raise SQLRuntimeError(
            f"ambiguous column name: {ref.name} "
            f"(candidates: {', '.join(suffix)})")
    raise SQLRuntimeError(f"no such column: {ref.name}")


def resolve_joined_ref(frame: DataFrame, ref: ColumnRef) -> str:
    """Cached resolution of ``ref`` over a joined frame's prefixed columns.

    Uses the frame's lazily-built lowered-name and dot-suffix maps, so
    resolving the same reference across many rows costs two dict lookups
    instead of lowercasing every column each time.
    """
    lowered_map = frame.lowered_names()
    if ref.table:
        found = lowered_map.get(f"{ref.table}.{ref.name}".lower())
        if found is not None:
            return found
        raise SQLRuntimeError(
            f"no such column: {ref.table}.{ref.name}")
    lowered = ref.name.lower()
    found = lowered_map.get(lowered)
    if found is not None:
        return found
    suffix = frame.suffix_names().get(lowered, ())
    if len(suffix) == 1:
        return suffix[0]
    if len(suffix) > 1:
        raise SQLRuntimeError(
            f"ambiguous column name: {ref.name} "
            f"(candidates: {', '.join(suffix)})")
    raise SQLRuntimeError(f"no such column: {ref.name}")


class RowContext:
    """Evaluation context bound to a single row.

    ``joined=True`` switches column resolution to the prefixed
    ``alias.column`` scheme used by materialised joins.
    """

    def __init__(self, row: Row, table_alias: str | None = None, *,
                 joined: bool = False):
        self.row = row
        self.table_alias = table_alias
        self.joined = joined

    def column_value(self, ref: ColumnRef):
        if self.joined:
            name = resolve_joined_ref(self.row._frame, ref)
            return self.row[name]
        # A qualifier naming no FROM table was refused when the
        # statement was checked, so the column name alone resolves.
        try:
            return self.row[ref.name]
        except KeyError:
            # Surface the same error class SQLite reports, so the SQL
            # executor's retry mechanism treats both backends alike.
            raise SQLRuntimeError(f"no such column: {ref.name}") from None

    def aggregate(self, call: FunctionCall):
        raise SQLRuntimeError(
            f"aggregate {call.name.upper()}() outside GROUP BY context")


class GroupContext:
    """Evaluation context bound to a group of rows (GROUP BY / aggregates).

    Bare column references resolve against the group's first row, matching
    SQLite's behaviour for non-aggregated columns in aggregate queries.
    The one group of an ungrouped aggregate query over no rows is empty:
    its bare columns read NULL, as in SQLite.
    """

    def __init__(self, group: DataFrame, table_alias: str | None = None,
                 *, joined: bool = False):
        self.group = group
        self.table_alias = table_alias
        self.joined = joined
        self._first = (RowContext(group.row(0), table_alias, joined=joined)
                       if group.num_rows else None)

    def column_value(self, ref: ColumnRef):
        if self._first is None:
            return None
        return self._first.column_value(ref)

    def aggregate(self, call: FunctionCall):
        name = call.name.lower()
        if name == "group_concat":
            values = self._argument_values(call)
            present = [str(v) for v in values if not is_missing(v)]
            return ",".join(present) if present else None
        if name == "count" and call.args and isinstance(call.args[0], Star):
            return self.group.num_rows
        values = self._argument_values(call)
        if call.distinct:
            seen, unique = set(), []
            for value in values:
                key = (type(value).__name__, value)
                if key not in seen:
                    seen.add(key)
                    unique.append(value)
            values = unique
        if name == "total":
            # SQLite's TOTAL: SUM as a float, 0.0 over no values.
            total = aggregate_values("sum", values)
            return 0.0 if total is None else float(total)
        return aggregate_values(name, values)

    def _argument_values(self, call: FunctionCall) -> list:
        if len(call.args) != 1:
            raise SQLRuntimeError(
                f"{call.name.upper()}() expects one argument")
        arg = call.args[0]
        return [
            evaluate(arg, RowContext(row, self.table_alias,
                                     joined=self.joined))
            for row in self.group.iter_rows()
        ]


def is_truthy(value) -> bool:
    """SQL WHERE semantics: NULL and 0 are false."""
    if is_missing(value):
        return False
    if isinstance(value, str):
        try:
            return float(value) != 0
        except ValueError:
            return False
    return bool(value)


def expression_uses_aggregate(expr: Expression) -> bool:
    """True if the expression contains any aggregate function call."""
    if isinstance(expr, FunctionCall):
        if is_aggregate_name(expr.name):
            return True
        return any(expression_uses_aggregate(arg) for arg in expr.args)
    if isinstance(expr, UnaryOp):
        return expression_uses_aggregate(expr.operand)
    if isinstance(expr, BinaryOp):
        return (expression_uses_aggregate(expr.left)
                or expression_uses_aggregate(expr.right))
    if isinstance(expr, InList):
        return (expression_uses_aggregate(expr.operand)
                or any(expression_uses_aggregate(e) for e in expr.items))
    if isinstance(expr, Between):
        return any(expression_uses_aggregate(e)
                   for e in (expr.operand, expr.low, expr.high))
    if isinstance(expr, IsNull):
        return expression_uses_aggregate(expr.operand)
    if isinstance(expr, LikeOp):
        return (expression_uses_aggregate(expr.operand)
                or expression_uses_aggregate(expr.pattern))
    if isinstance(expr, CaseWhen):
        parts = [e for pair in expr.whens for e in pair]
        if expr.default is not None:
            parts.append(expr.default)
        return any(expression_uses_aggregate(e) for e in parts)
    if isinstance(expr, Cast):
        return expression_uses_aggregate(expr.operand)
    return False


def evaluate(expr: Expression, context):
    """Evaluate ``expr`` in ``context`` (a Row- or GroupContext)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return context.column_value(expr)
    if isinstance(expr, Star):
        raise SQLRuntimeError("'*' is only valid in COUNT(*)")
    if isinstance(expr, UnaryOp):
        return _unary(expr, context)
    if isinstance(expr, BinaryOp):
        return _binary(expr, context)
    if isinstance(expr, FunctionCall):
        if is_aggregate_name(expr.name):
            return context.aggregate(expr)
        args = [evaluate(arg, context) for arg in expr.args]
        return call_scalar(expr.name, args)
    if isinstance(expr, InList):
        return _in_list(expr, context)
    if isinstance(expr, Between):
        return _between(expr, context)
    if isinstance(expr, IsNull):
        value = evaluate(expr.operand, context)
        result = is_missing(value)
        return (not result) if expr.negated else result
    if isinstance(expr, LikeOp):
        return _like(expr, context)
    if isinstance(expr, CaseWhen):
        for cond, result in expr.whens:
            if is_truthy(evaluate(cond, context)):
                return evaluate(result, context)
        if expr.default is not None:
            return evaluate(expr.default, context)
        return None
    if isinstance(expr, Cast):
        return _cast(expr, context)
    raise SQLRuntimeError(
        f"cannot evaluate node {type(expr).__name__}")


# --- operator helpers ---------------------------------------------------------


def _unary(expr: UnaryOp, context):
    return unary_value(expr.op, evaluate(expr.operand, context))


def unary_value(op: str, value):
    """Value-level unary kernel (shared with the vector kernels)."""
    if op == "NOT":
        if is_missing(value):
            return None
        return not is_truthy(value)
    if is_missing(value):
        return None
    number = _to_number(value)
    if number is None:
        raise SQLRuntimeError(f"cannot negate {value!r}")
    return -number if op == "-" else number


def _to_number(value):
    """Best-effort numeric view of a value, or None if non-numeric."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        text = value.strip().replace(",", "")
        try:
            return int(text)
        except ValueError:
            try:
                return float(text)
            except ValueError:
                return None
    return None


def compare_values(left, right) -> int | None:
    """Three-way compare with SQLite type-class ordering.

    Returns negative/zero/positive, or None when either side is NULL.
    """
    if is_missing(left) or is_missing(right):
        return None
    left_num, right_num = _to_number(left), _to_number(right)
    if left_num is not None and right_num is not None:
        return (left_num > right_num) - (left_num < right_num)
    # Type classes: numbers order before text (SQLite).
    left_is_num = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_is_num = (isinstance(right, (int, float))
                    and not isinstance(right, bool))
    if left_is_num != right_is_num:
        return -1 if left_is_num else 1
    left_text, right_text = str(left), str(right)
    return (left_text > right_text) - (left_text < right_text)


def _binary(expr: BinaryOp, context):
    op = expr.op
    if op in ("AND", "OR"):
        left = evaluate(expr.left, context)
        # SQLite three-valued logic, with short-circuiting.
        if op == "AND":
            if not is_missing(left) and not is_truthy(left):
                return False
            right = evaluate(expr.right, context)
            if not is_missing(right) and not is_truthy(right):
                return False
            if is_missing(left) or is_missing(right):
                return None
            return True
        if not is_missing(left) and is_truthy(left):
            return True
        right = evaluate(expr.right, context)
        if not is_missing(right) and is_truthy(right):
            return True
        if is_missing(left) or is_missing(right):
            return None
        return False

    return binary_values(op, evaluate(expr.left, context),
                         evaluate(expr.right, context))


#: Comparison operators as order-sign predicates (order is -1/0/+1).
COMPARISONS = {
    "=": lambda order: order == 0,
    "<>": lambda order: order != 0,
    "<": lambda order: order < 0,
    "<=": lambda order: order <= 0,
    ">": lambda order: order > 0,
    ">=": lambda order: order >= 0,
}


def binary_values(op: str, left, right):
    """Value-level binary kernel for every non-logical operator.

    Shared between the recursive interpreter and the vector kernels so
    the two tiers cannot drift.  AND/OR are *not* handled here — the
    interpreter short-circuits them and the kernels combine eager masks,
    so each caller implements them itself.
    """
    if op == "||":
        if is_missing(left) or is_missing(right):
            return None
        return _concat_text(left) + _concat_text(right)
    comparison = COMPARISONS.get(op)
    if comparison is not None:
        order = compare_values(left, right)
        if order is None:
            return None
        return comparison(order)
    if is_missing(left) or is_missing(right):
        return None
    left_num, right_num = _to_number(left), _to_number(right)
    if left_num is None or right_num is None:
        raise SQLRuntimeError(
            f"cannot apply {op} to {left!r} and {right!r}")
    if op == "+":
        return left_num + right_num
    if op == "-":
        return left_num - right_num
    if op == "*":
        return left_num * right_num
    if op == "/":
        if right_num == 0:
            return None  # SQLite yields NULL for division by zero
        result = left_num / right_num
        if isinstance(left_num, int) and isinstance(right_num, int):
            return left_num // right_num if result >= 0 else -((-left_num) // right_num)
        return result
    if op == "%":
        if right_num == 0:
            return None
        return int(left_num) % int(right_num) if left_num >= 0 else -((-int(left_num)) % int(right_num))
    raise SQLRuntimeError(f"unknown operator {op!r}")


def _concat_text(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _in_list(expr: InList, context):
    value = evaluate(expr.operand, context)
    if is_missing(value):
        return None
    saw_null = False
    for item in expr.items:
        candidate = evaluate(item, context)
        order = compare_values(value, candidate)
        if order is None:
            saw_null = True
        elif order == 0:
            return not expr.negated
    if saw_null:
        return None
    return expr.negated


def _between(expr: Between, context):
    value = evaluate(expr.operand, context)
    low = evaluate(expr.low, context)
    high = evaluate(expr.high, context)
    low_cmp = compare_values(value, low)
    high_cmp = compare_values(value, high)
    if low_cmp is None or high_cmp is None:
        return None
    inside = low_cmp >= 0 and high_cmp <= 0
    return (not inside) if expr.negated else inside


def _like(expr: LikeOp, context):
    value = evaluate(expr.operand, context)
    pattern = evaluate(expr.pattern, context)
    if is_missing(value) or is_missing(pattern):
        return None
    regex = _like_to_regex(str(pattern))
    matched = regex.match(str(value)) is not None
    return (not matched) if expr.negated else matched


@functools.lru_cache(maxsize=512)
def _like_to_regex(pattern: str) -> re.Pattern:
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts) + r"\Z", re.IGNORECASE | re.DOTALL)


def _cast(expr: Cast, context):
    return cast_value(evaluate(expr.operand, context), expr.target)


def cast_value(value, target: str):
    """Value-level CAST kernel (shared with the vector kernels)."""
    if is_missing(value):
        return None
    if target == "TEXT":
        return _concat_text(value)
    number = _to_number(value)
    if target == "INTEGER":
        if number is None:
            # SQLite parses a numeric prefix; fall back to 0.
            match = re.match(r"\s*[+-]?\d+", str(value))
            return int(match.group()) if match else 0
        return int(number)
    if target == "REAL":
        if number is None:
            match = re.match(r"\s*[+-]?\d+(\.\d+)?", str(value))
            return float(match.group()) if match else 0.0
        return float(number)
    raise SQLRuntimeError(f"unsupported CAST target {target!r}")
