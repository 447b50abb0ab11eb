"""Expression compilation: SQL AST expressions → Python closures.

The executor flattens the FROM clause into wide row tuples; a
:class:`Scope` records which slot each ``binding.column`` occupies.  The
:class:`Compiler` then turns an AST expression into a closure
``fn(row, aggs) -> value`` where ``aggs`` is a per-group mapping of aggregate
call nodes to their pre-computed values (``None`` outside GROUP BY context).

SQL three-valued logic is represented with Python ``None`` as UNKNOWN;
``WHERE``/``HAVING`` keep a row only when the predicate evaluates to ``True``.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from repro.errors import ExecutionError
from repro.sql import ast

#: Type signature of a compiled expression.
Compiled = Callable[[tuple, dict | None], object]


class Scope:
    """Slot layout of the flattened FROM row plus column resolution."""

    def __init__(self) -> None:
        self._bindings: list[tuple[str, list[str]]] = []
        self._offsets: dict[str, int] = {}
        self.width = 0

    def add(self, binding: str, columns: list[str]) -> None:
        key = binding.lower()
        if key in self._offsets:
            raise ExecutionError(f"duplicate table binding {binding!r}")
        self._offsets[key] = self.width
        self._bindings.append((key, [c.lower() for c in columns]))
        self.width += len(columns)

    def bindings(self) -> list[str]:
        return [name for name, _ in self._bindings]

    def resolve(self, table: str | None, column: str) -> int:
        """Slot index of ``table.column`` (or the first match if unqualified)."""
        column = column.lower()
        if table is not None:
            key = table.lower()
            if key not in self._offsets:
                raise ExecutionError(f"unknown table or alias {table!r}")
            offset = self._offsets[key]
            columns = dict(self._bindings)[key]
            if column not in columns:
                raise ExecutionError(f"no column {column!r} in {table!r}")
            return offset + columns.index(column)
        matches = []
        for key, columns in self._bindings:
            if column in columns:
                matches.append(self._offsets[key] + columns.index(column))
        if not matches:
            raise ExecutionError(f"unknown column {column!r}")
        # Spider queries occasionally leave shared join columns unqualified;
        # the first binding wins, matching SQLite's resolution order.
        return matches[0]

    def columns_of(self, binding: str) -> list[str]:
        return dict(self._bindings)[binding.lower()]

    def offset_of(self, binding: str) -> int:
        return self._offsets[binding.lower()]


class Compiler:
    """Compiles expressions within one scope.

    ``subquery`` is a callback executing a nested :class:`~repro.sql.ast.Query`
    and returning a result object with ``columns``/``rows`` — supplied by the
    executor so uncorrelated subqueries are evaluated exactly once at compile
    time.
    """

    def __init__(self, scope: Scope, subquery: Callable[[ast.Query], object]) -> None:
        self.scope = scope
        self.subquery = subquery

    # -- public API ------------------------------------------------------------

    def compile(self, expr: ast.Expr) -> Compiled:
        method = getattr(self, f"_compile_{type(expr).__name__.lower()}", None)
        if method is None:
            raise ExecutionError(f"cannot compile {type(expr).__name__}")
        return method(expr)

    def compile_predicate(self, expr: ast.Expr) -> Callable[[tuple, dict | None], bool]:
        """Compile ``expr`` and wrap it so UNKNOWN (None) is treated as False."""
        fn = self.compile(expr)

        def predicate(row: tuple, aggs: dict | None) -> bool:
            return fn(row, aggs) is True

        return predicate

    # -- leaves ------------------------------------------------------------------

    def _compile_columnref(self, expr: ast.ColumnRef) -> Compiled:
        index = self.scope.resolve(expr.table, expr.column)
        return lambda row, aggs: row[index]

    def _compile_literal(self, expr: ast.Literal) -> Compiled:
        value = expr.value
        return lambda row, aggs: value

    def _compile_star(self, expr: ast.Star) -> Compiled:
        raise ExecutionError("* is only valid in a select list or COUNT(*)")

    # -- arithmetic ----------------------------------------------------------------

    def _compile_binaryop(self, expr: ast.BinaryOp) -> Compiled:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        op = expr.op

        def run(row: tuple, aggs: dict | None):
            a = left(row, aggs)
            b = right(row, aggs)
            if a is None or b is None:
                return None
            return _arith(op, a, b)

        return run

    def _compile_unaryminus(self, expr: ast.UnaryMinus) -> Compiled:
        operand = self.compile(expr.operand)

        def run(row: tuple, aggs: dict | None):
            value = operand(row, aggs)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ExecutionError(f"cannot negate {value!r}")
            return -value

        return run

    def _compile_funccall(self, expr: ast.FuncCall) -> Compiled:
        name = expr.name.lower()
        if name in ast.AGGREGATE_FUNCTIONS:
            # In group context the executor pre-computes aggregate values and
            # passes them through ``aggs`` keyed by the call node itself.
            def run(row: tuple, aggs: dict | None):
                if aggs is None or expr not in aggs:
                    raise ExecutionError(
                        f"aggregate {name.upper()} used outside GROUP BY context"
                    )
                return aggs[expr]

            return run
        if name == "abs":
            if len(expr.args) != 1:
                raise ExecutionError("ABS takes exactly one argument")
            arg = self.compile(expr.args[0])

            def run_abs(row: tuple, aggs: dict | None):
                value = arg(row, aggs)
                if value is None:
                    return None
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ExecutionError(f"ABS of non-numeric {value!r}")
                return abs(value)

            return run_abs
        raise ExecutionError(f"unknown function {expr.name!r}")

    # -- predicates -------------------------------------------------------------------

    def _compile_comparison(self, expr: ast.Comparison) -> Compiled:
        left = self.compile(expr.left)
        op = expr.op
        if op in ("like", "not like"):
            right = self.compile(expr.right)
            negated = op == "not like"

            def run_like(row: tuple, aggs: dict | None):
                a = left(row, aggs)
                b = right(row, aggs)
                if a is None or b is None:
                    return None
                matched = _like_match(str(a), str(b))
                return (not matched) if negated else matched

            return run_like

        if isinstance(expr.right, ast.ScalarSubquery):
            value = self._scalar_subquery_value(expr.right.query)
            right = lambda row, aggs: value
        else:
            right = self.compile(expr.right)

        def run(row: tuple, aggs: dict | None):
            a = left(row, aggs)
            b = right(row, aggs)
            if a is None or b is None:
                return None
            return _compare(op, a, b)

        return run

    def _compile_between(self, expr: ast.Between) -> Compiled:
        value = self.compile(expr.expr)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def run(row: tuple, aggs: dict | None):
            v = value(row, aggs)
            lo = low(row, aggs)
            hi = high(row, aggs)
            if v is None or lo is None or hi is None:
                return None
            inside = _compare(">=", v, lo) and _compare("<=", v, hi)
            return (not inside) if negated else inside

        return run

    def _compile_inlist(self, expr: ast.InList) -> Compiled:
        value = self.compile(expr.expr)
        items = [self.compile(v) for v in expr.values]
        negated = expr.negated

        def run(row: tuple, aggs: dict | None):
            v = value(row, aggs)
            if v is None:
                return None
            member = any(_eq(v, item(row, aggs)) for item in items)
            return (not member) if negated else member

        return run

    def _compile_insubquery(self, expr: ast.InSubquery) -> Compiled:
        value = self.compile(expr.expr)
        result = self.subquery(expr.query)
        if len(result.columns) != 1:
            raise ExecutionError("IN subquery must return exactly one column")
        members = {row[0] for row in result.rows if row[0] is not None}
        negated = expr.negated

        def run(row: tuple, aggs: dict | None):
            v = value(row, aggs)
            if v is None:
                return None
            # checks: ignore[det.set-iteration] -- any() is order-free here: _compare never raises
            member = any(_eq(v, m) for m in members)
            return (not member) if negated else member

        return run

    def _compile_scalarsubquery(self, expr: ast.ScalarSubquery) -> Compiled:
        value = self._scalar_subquery_value(expr.query)
        return lambda row, aggs: value

    def _compile_exists(self, expr: ast.Exists) -> Compiled:
        result = self.subquery(expr.query)
        found = bool(result.rows)
        value = (not found) if expr.negated else found
        return lambda row, aggs: value

    def _compile_isnull(self, expr: ast.IsNull) -> Compiled:
        operand = self.compile(expr.expr)
        negated = expr.negated

        def run(row: tuple, aggs: dict | None):
            is_null = operand(row, aggs) is None
            return (not is_null) if negated else is_null

        return run

    def _compile_not(self, expr: ast.Not) -> Compiled:
        operand = self.compile(expr.operand)

        def run(row: tuple, aggs: dict | None):
            value = operand(row, aggs)
            if value is None:
                return None
            return not value

        return run

    def _compile_boolop(self, expr: ast.BoolOp) -> Compiled:
        operands = [self.compile(o) for o in expr.operands]
        if expr.op == "and":

            def run_and(row: tuple, aggs: dict | None):
                unknown = False
                for operand in operands:
                    value = operand(row, aggs)
                    if value is None:
                        unknown = True
                    elif not value:
                        return False
                return None if unknown else True

            return run_and

        def run_or(row: tuple, aggs: dict | None):
            unknown = False
            for operand in operands:
                value = operand(row, aggs)
                if value is None:
                    unknown = True
                elif value:
                    return True
            return None if unknown else False

        return run_or

    # -- helpers ---------------------------------------------------------------

    def _scalar_subquery_value(self, query: ast.Query):
        result = self.subquery(query)
        if len(result.columns) != 1:
            raise ExecutionError("scalar subquery must return exactly one column")
        if len(result.rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        if not result.rows:
            return None
        return result.rows[0][0]


# ---------------------------------------------------------------------------
# Value semantics
# ---------------------------------------------------------------------------


def _arith(op: str, a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        raise ExecutionError("arithmetic on boolean values")
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        raise ExecutionError(f"arithmetic on non-numeric values {a!r}, {b!r}")
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            return None  # SQLite convention: division by zero yields NULL
        result = a / b
        return result
    if op == "%":
        if b == 0:
            return None
        return a % b
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _eq(a, b) -> bool:
    if b is None:
        return False
    return _compare("=", a, b)


def _compare(op: str, a, b) -> bool:
    """Compare two non-NULL values.

    Numbers compare numerically; strings compare lexicographically
    (case-insensitively for equality, matching how Spider's execution
    comparison treats text); cross-type comparisons order numbers before
    text, like SQLite's type ranking, instead of raising.
    """
    a_num = _as_number(a)
    b_num = _as_number(b)
    if a_num is not None and b_num is not None:
        a, b = a_num, b_num
    elif isinstance(a, str) and isinstance(b, str):
        if op in ("=", "!="):
            result = a.lower() == b.lower()
            return result if op == "=" else not result
    else:
        # mixed number/text: rank numbers first
        rank_a = 0 if a_num is not None else 1
        rank_b = 0 if b_num is not None else 1
        if op == "=":
            return False
        if op == "!=":
            return True
        if op in ("<", "<="):
            return rank_a < rank_b
        return rank_a > rank_b
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _as_number(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    return None


_LIKE_CACHE: dict[str, re.Pattern] = {}


def _like_match(text: str, pattern: str) -> bool:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
        compiled = re.compile(f"^{regex}$", re.IGNORECASE | re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled.match(text) is not None
