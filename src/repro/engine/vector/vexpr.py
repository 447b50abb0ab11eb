"""Vectorized expression evaluation: AST expressions → column evaluators.

The row engine compiles an expression to a per-row closure; this module
compiles the same expression to a function ``fn(ctx) -> list`` producing the
expression's value for every row of a :class:`~repro.engine.vector.batch.Batch`
in one pass.  Value semantics delegate to the row engine's own helpers
(:func:`~repro.engine.expressions._compare`, ``_arith``, ``_eq``,
``_like_match``) so NULL propagation, case-insensitive text equality,
mixed-type ranking and error messages are *identical* — byte identity with
the row engine is the vector engine's contract, and any construct this
compiler rejects raises the row engine's exact error message.  AND/OR
operands and IN-list items that can raise on a row's values evaluate
lazily, each only on the rows the row engine's short-circuit still reaches.

Fast paths (direct list comprehensions for column-vs-literal comparisons)
are exact specialisations: each is valid only where Python's operators agree
with ``_compare`` for every value the engine's typed tables can hold, and
each falls back to the general element loop otherwise.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ExecutionError
from repro.sql import ast
from repro.engine.expressions import (
    Scope,
    _arith,
    _compare,
    _eq,
    _like_match,
)

#: Type signature of a compiled vector expression.
VCompiled = Callable[["EvalContext"], list]


class EvalContext:
    """One evaluation site: a fixed batch plus the per-group aggregate
    environment (None outside GROUP BY context), with a per-site gather
    cache so an expression tree referencing a column twice pays one gather."""

    __slots__ = ("batch", "aggenv", "n", "subqueries", "_columns")

    def __init__(self, batch, aggenv: dict | None = None, subqueries: dict | None = None) -> None:
        self.batch = batch
        self.aggenv = aggenv
        self.n = batch.n
        #: Per-execution cache of subquery results keyed by query node id —
        #: shared across eval sites of one execution, mirroring the row
        #: engine's execute-once-per-compile behaviour.
        self.subqueries = subqueries if subqueries is not None else {}
        self._columns: dict[tuple[str, int], list] = {}

    def column(self, binding: str, position: int) -> list:
        key = (binding, position)
        cached = self._columns.get(key)
        if cached is None:
            cached = self.batch.column(binding, position)
            self._columns[key] = cached
        return cached

    def take(self, positions: list[int], monotonic: bool = True) -> "EvalContext":
        """This context over ``positions`` of its batch (aggregate values
        follow their groups), sharing the subquery cache."""
        aggenv = None
        if self.aggenv is not None:
            aggenv = {
                node: [vector[j] for j in positions]
                for node, vector in self.aggenv.items()
            }
        return EvalContext(
            self.batch.take(positions, monotonic), aggenv, self.subqueries
        )


class VectorCompiler:
    """Compiles expressions within one scope, mirroring
    :class:`repro.engine.expressions.Compiler` node for node.

    ``subquery`` executes a nested :class:`~repro.sql.ast.Query` and returns
    a result with ``columns``/``rows``; unlike the row engine it is invoked
    at *evaluation* time (plans are cached across executions, so subquery
    results must not be baked into the compiled form) — once per execution,
    memoised through :attr:`EvalContext.subqueries`.
    """

    def __init__(self, scope: Scope, subquery: Callable[[ast.Query], object]) -> None:
        self.scope = scope
        self.subquery = subquery
        # Slot index -> (binding, column position) for column gathers.
        self._slots: list[tuple[str, int]] = []
        for binding in scope.bindings():
            for position in range(len(scope.columns_of(binding))):
                self._slots.append((binding, position))

    # -- public API ----------------------------------------------------------

    def compile(self, expr: ast.Expr) -> VCompiled:
        method = getattr(self, f"_compile_{type(expr).__name__.lower()}", None)
        if method is None:
            raise ExecutionError(f"cannot compile {type(expr).__name__}")
        return method(expr)

    def _subquery_result(self, query: ast.Query, ctx: EvalContext):
        cached = ctx.subqueries.get(id(query))
        if cached is None:
            cached = self.subquery(query)
            ctx.subqueries[id(query)] = cached
        return cached

    # -- leaves --------------------------------------------------------------

    def _compile_columnref(self, expr: ast.ColumnRef) -> VCompiled:
        index = self.scope.resolve(expr.table, expr.column)
        binding, position = self._slots[index]
        return lambda ctx: ctx.column(binding, position)

    def _compile_literal(self, expr: ast.Literal) -> VCompiled:
        value = expr.value
        return lambda ctx: [value] * ctx.n

    def _compile_star(self, expr: ast.Star) -> VCompiled:
        raise ExecutionError("* is only valid in a select list or COUNT(*)")

    # -- arithmetic ----------------------------------------------------------

    def _compile_binaryop(self, expr: ast.BinaryOp) -> VCompiled:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        op = expr.op

        def run(ctx: EvalContext) -> list:
            return [
                None if a is None or b is None else _arith(op, a, b)
                for a, b in zip(left(ctx), right(ctx))
            ]

        return run

    def _compile_unaryminus(self, expr: ast.UnaryMinus) -> VCompiled:
        operand = self.compile(expr.operand)

        def run(ctx: EvalContext) -> list:
            out = []
            for value in operand(ctx):
                if value is None:
                    out.append(None)
                    continue
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ExecutionError(f"cannot negate {value!r}")
                out.append(-value)
            return out

        return run

    def _compile_funccall(self, expr: ast.FuncCall) -> VCompiled:
        name = expr.name.lower()
        if name in ast.AGGREGATE_FUNCTIONS:

            def run(ctx: EvalContext) -> list:
                if ctx.aggenv is not None and expr in ctx.aggenv:
                    return ctx.aggenv[expr]
                if ctx.n == 0:
                    # The row engine's error is raised per row; zero rows
                    # never evaluate it, so an empty input stays silent.
                    return []
                raise ExecutionError(
                    f"aggregate {name.upper()} used outside GROUP BY context"
                )

            return run
        if name == "abs":
            if len(expr.args) != 1:
                raise ExecutionError("ABS takes exactly one argument")
            arg = self.compile(expr.args[0])

            def run_abs(ctx: EvalContext) -> list:
                out = []
                for value in arg(ctx):
                    if value is None:
                        out.append(None)
                        continue
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise ExecutionError(f"ABS of non-numeric {value!r}")
                    out.append(abs(value))
                return out

            return run_abs
        raise ExecutionError(f"unknown function {expr.name!r}")

    # -- predicates ----------------------------------------------------------

    def _compile_comparison(self, expr: ast.Comparison) -> VCompiled:
        left = self.compile(expr.left)
        op = expr.op
        if op in ("like", "not like"):
            right = self.compile(expr.right)
            negated = op == "not like"

            def run_like(ctx: EvalContext) -> list:
                out = []
                for a, b in zip(left(ctx), right(ctx)):
                    if a is None or b is None:
                        out.append(None)
                        continue
                    matched = _like_match(str(a), str(b))
                    out.append((not matched) if negated else matched)
                return out

            return run_like

        if isinstance(expr.right, ast.ScalarSubquery):
            query = expr.right.query

            def run_scalar(ctx: EvalContext) -> list:
                value = self._scalar_value(query, ctx)
                return _compare_const(op, left(ctx), value)

            return run_scalar

        if isinstance(expr.right, ast.Literal):
            const = expr.right.value
            return lambda ctx: _compare_const(op, left(ctx), const)

        right = self.compile(expr.right)

        def run(ctx: EvalContext) -> list:
            return [
                None if a is None or b is None else _compare(op, a, b)
                for a, b in zip(left(ctx), right(ctx))
            ]

        return run

    def _compile_between(self, expr: ast.Between) -> VCompiled:
        value = self.compile(expr.expr)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def run(ctx: EvalContext) -> list:
            out = []
            for v, lo, hi in zip(value(ctx), low(ctx), high(ctx)):
                if v is None or lo is None or hi is None:
                    out.append(None)
                    continue
                inside = _compare(">=", v, lo) and _compare("<=", v, hi)
                out.append((not inside) if negated else inside)
            return out

        return run

    def _compile_inlist(self, expr: ast.InList) -> VCompiled:
        value = self.compile(expr.expr)
        negated = expr.negated
        if all(isinstance(v, ast.Literal) for v in expr.values):
            members = _MemberSet(v.value for v in expr.values)  # type: ignore[union-attr]
            return lambda ctx: _membership(value(ctx), members, negated)
        items = [(self.compile(v), _may_raise(v)) for v in expr.values]

        def run(ctx: EvalContext) -> list:
            # Like the row engine's any(): each item only on the non-NULL
            # rows no earlier item matched.
            values = value(ctx)
            out: list = [None] * ctx.n
            pending = [j for j, v in enumerate(values) if v is not None]
            for item, lazy in items:
                still = []
                for j, candidate in zip(pending, _at(item, ctx, pending, lazy)):
                    if _eq(values[j], candidate):
                        out[j] = not negated
                    else:
                        still.append(j)
                pending = still
            for j in pending:
                out[j] = negated
            return out

        return run

    def _compile_insubquery(self, expr: ast.InSubquery) -> VCompiled:
        value = self.compile(expr.expr)
        negated = expr.negated
        query = expr.query

        def run(ctx: EvalContext) -> list:
            result = self._subquery_result(query, ctx)
            if len(result.columns) != 1:
                raise ExecutionError("IN subquery must return exactly one column")
            members = _MemberSet(row[0] for row in result.rows)
            return _membership(value(ctx), members, negated)

        return run

    def _compile_scalarsubquery(self, expr: ast.ScalarSubquery) -> VCompiled:
        query = expr.query

        def run(ctx: EvalContext) -> list:
            value = self._scalar_value(query, ctx)
            return [value] * ctx.n

        return run

    def _compile_exists(self, expr: ast.Exists) -> VCompiled:
        negated = expr.negated
        query = expr.query

        def run(ctx: EvalContext) -> list:
            result = self._subquery_result(query, ctx)
            found = bool(result.rows)
            value = (not found) if negated else found
            return [value] * ctx.n

        return run

    def _compile_isnull(self, expr: ast.IsNull) -> VCompiled:
        operand = self.compile(expr.expr)
        negated = expr.negated

        def run(ctx: EvalContext) -> list:
            if negated:
                return [value is not None for value in operand(ctx)]
            return [value is None for value in operand(ctx)]

        return run

    def _compile_not(self, expr: ast.Not) -> VCompiled:
        operand = self.compile(expr.operand)

        def run(ctx: EvalContext) -> list:
            return [None if value is None else not value for value in operand(ctx)]

        return run

    def _compile_boolop(self, expr: ast.BoolOp) -> VCompiled:
        operands = [(self.compile(o), _may_raise(o)) for o in expr.operands]
        conjunction = expr.op == "and"

        def run(ctx: EvalContext) -> list:
            # Like the row engine's per-row loop: each operand only on the
            # rows every earlier operand left undecided.
            out: list = [None] * ctx.n
            unknown = [False] * ctx.n
            pending = list(range(ctx.n))
            for operand, lazy in operands:
                still = []
                for j, value in zip(pending, _at(operand, ctx, pending, lazy)):
                    if value is None:
                        unknown[j] = True
                        still.append(j)
                    elif bool(value) != conjunction:
                        out[j] = not conjunction
                    else:
                        still.append(j)
                pending = still
            for j in pending:
                out[j] = None if unknown[j] else conjunction
            return out

        return run

    # -- helpers --------------------------------------------------------------

    def _scalar_value(self, query: ast.Query, ctx: EvalContext):
        result = self._subquery_result(query, ctx)
        if len(result.columns) != 1:
            raise ExecutionError("scalar subquery must return exactly one column")
        if len(result.rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        if not result.rows:
            return None
        return result.rows[0][0]


# ---------------------------------------------------------------------------
# Short-circuit evaluation
# ---------------------------------------------------------------------------


def _may_raise(expr: ast.Expr) -> bool:
    """Whether evaluating ``expr`` can raise on some row's values
    (arithmetic, negation, ABS, an aggregate outside GROUP BY context)."""
    return any(
        isinstance(node, (ast.BinaryOp, ast.UnaryMinus, ast.FuncCall))
        for node in ast.walk_local(expr)
    )


def _at(fn: VCompiled, ctx: EvalContext, positions: list[int], lazy: bool) -> list:
    """``fn``'s values at ``positions`` (strictly increasing): evaluated on
    just those rows when ``lazy`` (it can raise on rows the row engine
    never reaches), else picked out of one full-batch evaluation."""
    if len(positions) == ctx.n:
        return fn(ctx)
    if lazy:
        return fn(ctx.take(positions))
    values = fn(ctx)
    return [values[j] for j in positions]


# ---------------------------------------------------------------------------
# Comparison fast paths — exact specialisations of ``_compare``
# ---------------------------------------------------------------------------


def _compare_const(op: str, vector: list, const) -> list:
    """``value <op> const`` for every element, matching ``_compare``."""
    if const is None:
        return [None] * len(vector)
    if isinstance(const, (int, float)) and not isinstance(const, bool):
        if op == "=":
            # Python ``==`` agrees with _compare for every engine value:
            # numbers (and bools) compare numerically, text never equals a
            # number (mixed ranking yields False), no TypeError possible.
            return [None if a is None else a == const for a in vector]
        if op == "!=":
            return [None if a is None else a != const for a in vector]
        try:
            if op == "<":
                return [None if a is None else a < const for a in vector]
            if op == "<=":
                return [None if a is None else a <= const for a in vector]
            if op == ">":
                return [None if a is None else a > const for a in vector]
            if op == ">=":
                return [None if a is None else a >= const for a in vector]
        except TypeError:
            # A text value met a numeric bound: _compare ranks numbers
            # before text instead of raising — take the general loop.
            pass
    elif isinstance(const, str):
        lowered = const.lower()
        if op == "=":
            return [
                None if a is None
                else (a.lower() == lowered if isinstance(a, str) else False)
                for a in vector
            ]
        if op == "!=":
            return [
                None if a is None
                else (a.lower() != lowered if isinstance(a, str) else True)
                for a in vector
            ]
        if op in ("<", "<="):
            # Strings compare lexicographically (raw, like _compare);
            # numbers rank before text, so every non-string is "less".
            if op == "<":
                return [
                    None if a is None
                    else (a < const if isinstance(a, str) else True)
                    for a in vector
                ]
            return [
                None if a is None
                else (a <= const if isinstance(a, str) else True)
                for a in vector
            ]
        if op in (">", ">="):
            if op == ">":
                return [
                    None if a is None
                    else (a > const if isinstance(a, str) else False)
                    for a in vector
                ]
            return [
                None if a is None
                else (a >= const if isinstance(a, str) else False)
                for a in vector
            ]
    return [None if a is None else _compare(op, a, const) for a in vector]


class _MemberSet:
    """Set-backed membership with ``_eq`` semantics: numbers (and bools)
    unify numerically, text matches case-insensitively, NULL and NaN never
    match, and cross-type probes are always False."""

    __slots__ = ("numbers", "texts")

    def __init__(self, values) -> None:
        self.numbers: set = set()
        self.texts: set[str] = set()
        for value in values:
            if value is None:
                continue
            if isinstance(value, str):
                self.texts.add(value.lower())
            elif isinstance(value, float) and value != value:
                continue  # NaN equals nothing under _compare
            elif isinstance(value, (int, float)):
                self.numbers.add(value)

    def __contains__(self, value) -> bool:
        if isinstance(value, str):
            return value.lower() in self.texts
        if isinstance(value, float) and value != value:
            return False
        if isinstance(value, (int, float)):
            return value in self.numbers
        return False


def _membership(vector: list, members: _MemberSet, negated: bool) -> list:
    if negated:
        return [None if v is None else v not in members for v in vector]
    return [None if v is None else v in members for v in vector]
