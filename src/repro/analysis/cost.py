"""Pass 5 — cost / cardinality heuristics.

Uses the column statistics recorded by
:func:`repro.schema.introspect.profile_database` to prove — without
executing — that a predicate can never hold or that a whole query returns
zero rows.  Every conclusion here must be *sound*: the databases are frozen
after profiling, so "statically empty" means execution is guaranteed to
return no rows.  The generation pre-filter relies on exactly this guarantee
to skip executions without changing the generated query set.

Rules
-----
``cost.unsatisfiable-predicate``  a leaf predicate excludes every stored
                                  value (``year > max(year)``)
``cost.contradictory-filter``     an AND conjunction constrains one column
                                  to an empty interval (``x > 5 AND x < 3``)
``cost.vacuous-aggregate``        a global aggregate over statically empty
                                  input (still returns one row — COUNT gives
                                  0 — hence *not* an empty result)
``cost.limit-zero``               ``LIMIT 0``
``cost.empty-result``             the whole query is statically empty, after
                                  combining set operations (UNION needs both
                                  arms empty, INTERSECT either, EXCEPT the
                                  left arm)
"""

from __future__ import annotations

from repro.schema.enhanced import ColumnStats
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.analysis.analyzer import AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.scope import Scope


def check(ctx: AnalysisContext) -> list[Diagnostic]:
    analyzer = _CostAnalyzer(ctx)
    if analyzer.query_empty(ctx.query, "query"):
        analyzer.diagnostics.append(
            Diagnostic(
                rule="cost.empty-result",
                severity=Severity.WARNING,
                message="query is statically guaranteed to return no rows",
                path="query",
            )
        )
    return analyzer.diagnostics


class _CostAnalyzer:
    def __init__(self, ctx: AnalysisContext) -> None:
        self.ctx = ctx
        self.diagnostics: list[Diagnostic] = []
        # Memoized per-node results: a select reachable through two routes
        # (e.g. a scalar subquery probed by two callers) is analyzed — and
        # reported on — once.
        self._query_memo: dict[int, bool] = {}
        self._select_memo: dict[int, bool] = {}
        self._input_memo: dict[int, bool] = {}

    # -- query / select emptiness -------------------------------------------

    def query_empty(self, query: ast.Query, path: str) -> bool:
        if id(query) in self._query_memo:
            return self._query_memo[id(query)]
        result = self._query_empty(query, path)
        self._query_memo[id(query)] = result
        return result

    def _query_empty(self, query: ast.Query, path: str) -> bool:
        left = self.select_empty(query.select, f"{path}.select")
        if query.set_op is None or query.right is None:
            return left
        right = self.query_empty(query.right, f"{path}.right")
        if query.set_op == "union":
            return left and right
        if query.set_op == "intersect":
            return left or right
        return left  # except: empty left arm stays empty

    def select_empty(self, select: ast.Select, path: str) -> bool:
        if id(select) in self._select_memo:
            return self._select_memo[id(select)]
        result = self._select_empty(select, path)
        self._select_memo[id(select)] = result
        return result

    def _select_empty(self, select: ast.Select, path: str) -> bool:
        if select.limit == 0:
            self.diagnostics.append(
                Diagnostic(
                    rule="cost.limit-zero",
                    severity=Severity.WARNING,
                    message="LIMIT 0 returns no rows",
                    path=path,
                )
            )
            return True
        if self._input_empty(select, path):
            if self._is_global_aggregate(select):
                # One row regardless (COUNT over nothing is 0) — flag it,
                # but it is not an empty result.
                self.diagnostics.append(
                    Diagnostic(
                        rule="cost.vacuous-aggregate",
                        severity=Severity.WARNING,
                        message=(
                            "aggregate over statically empty input "
                            "(COUNT yields 0, other aggregates NULL)"
                        ),
                        path=path,
                    )
                )
                return False
            return True
        return False

    def _input_empty(self, select: ast.Select, path: str) -> bool:
        if id(select) in self._input_memo:
            return self._input_memo[id(select)]
        result = self._input_empty_uncached(select, path)
        self._input_memo[id(select)] = result
        return result

    def _input_empty_uncached(self, select: ast.Select, path: str) -> bool:
        """Whether the rows feeding this core are provably zero."""
        scope = self.ctx.env.scopes.get(id(select))
        if scope is None:
            return False
        enhanced = self.ctx.enhanced
        if enhanced is not None:
            for binding in scope.bindings.values():
                if binding.kind == "base" and binding.table is not None:
                    rows = enhanced.table_rows(binding.table.name)
                    if rows == 0:
                        return True
        for i, source in enumerate(select.from_tables):
            if isinstance(source, ast.SubqueryRef) and self.query_empty(
                source.query, f"{path}.from[{i}]"
            ):
                return True
        if select.where is not None and self.predicate_empty(
            select.where, scope, f"{path}.where"
        ):
            return True
        return False

    @staticmethod
    def _is_global_aggregate(select: ast.Select) -> bool:
        if select.group_by:
            return False  # grouping over empty input yields zero groups
        return any(
            isinstance(node, ast.FuncCall)
            and node.name.lower() in ast.AGGREGATE_FUNCTIONS
            for item in select.items
            for node in ast.walk_local(item.expr)
        )

    # -- predicate emptiness --------------------------------------------------

    def predicate_empty(self, expr: ast.Expr, scope: Scope, path: str) -> bool:
        """True when ``expr`` can never hold for any row (sound, not complete)."""
        if isinstance(expr, ast.BoolOp):
            if expr.op == "and":
                empty = any(
                    self.predicate_empty(op, scope, path) for op in expr.operands
                )
                if self._contradictory_conjunction(expr, scope, path):
                    empty = True
                return empty
            return all(self.predicate_empty(op, scope, path) for op in expr.operands)
        if isinstance(expr, ast.Comparison):
            return self._comparison_empty(expr, scope, path)
        if isinstance(expr, ast.Between):
            return self._between_empty(expr, scope, path)
        if isinstance(expr, ast.InList):
            return self._in_list_empty(expr, scope, path)
        if isinstance(expr, ast.IsNull):
            return self._is_null_empty(expr, scope, path)
        if isinstance(expr, ast.InSubquery) and not expr.negated:
            return self.query_empty(expr.query, f"{path}.subquery")
        if isinstance(expr, ast.Exists) and not expr.negated:
            return self.query_empty(expr.query, f"{path}.subquery")
        return False

    def _comparison_empty(
        self, node: ast.Comparison, scope: Scope, path: str
    ) -> bool:
        # A comparison against a scalar subquery that yields no row (or a
        # guaranteed NULL) can never hold.
        for side in (node.left, node.right):
            if isinstance(side, ast.ScalarSubquery) and self._scalar_yields_nothing(
                side.query, path
            ):
                self._report_leaf(node, path, "scalar subquery yields no value")
                return True
        column, value, op = self._column_vs_literal(node)
        if column is None or op is None:
            return False
        stats = self._stats_for(column, scope)
        if stats is None:
            return False
        if _comparison_excluded(op, value, stats):
            self._report_leaf(node, path, _range_note(stats))
            return True
        return False

    def _between_empty(self, node: ast.Between, scope: Scope, path: str) -> bool:
        if node.negated or not isinstance(node.expr, ast.ColumnRef):
            return False
        low = _literal_value(node.low)
        high = _literal_value(node.high)
        if low is None or high is None:
            return False
        try:
            if low > high:
                self._report_leaf(node, path, "bounds are reversed")
                return True
        except TypeError:
            return False
        stats = self._stats_for(node.expr, scope)
        if stats is None:
            return False
        try:
            if stats.n_distinct == 0 or (
                stats.min_value is not None and high < stats.min_value
            ) or (stats.max_value is not None and low > stats.max_value):
                self._report_leaf(node, path, _range_note(stats))
                return True
        except TypeError:
            return False
        return False

    def _in_list_empty(self, node: ast.InList, scope: Scope, path: str) -> bool:
        if node.negated or not isinstance(node.expr, ast.ColumnRef):
            return False
        stats = self._stats_for(node.expr, scope)
        if stats is None:
            return False
        literals = [_literal_value(v) for v in node.values]
        if any(value is None for value in literals):
            return False
        if stats.values is not None:
            if all(value not in stats.values for value in literals):
                self._report_leaf(node, path, "no listed value occurs in the column")
                return True
        return False

    def _is_null_empty(self, node: ast.IsNull, scope: Scope, path: str) -> bool:
        if not isinstance(node.expr, ast.ColumnRef):
            return False
        stats = self._stats_for(node.expr, scope)
        if stats is None:
            return False
        if not node.negated and stats.n_null == 0 and stats.n_rows > 0:
            self._report_leaf(node, path, "the column holds no NULLs")
            return True
        if node.negated and stats.n_null == stats.n_rows and stats.n_rows > 0:
            self._report_leaf(node, path, "the column is entirely NULL")
            return True
        return False

    def _scalar_yields_nothing(self, query: ast.Query, path: str) -> bool:
        """The scalar subquery produces no row, or a guaranteed NULL.

        A global aggregate always yields one row; COUNT of nothing is 0 —
        only non-COUNT aggregates collapse to NULL on empty input.
        """
        if self.query_empty(query, f"{path}.subquery"):
            return True
        if query.set_op is not None:
            return False
        select = query.select
        if not self._is_global_aggregate(select):
            return False
        aggregates = [
            node
            for item in select.items
            for node in ast.walk_local(item.expr)
            if isinstance(node, ast.FuncCall)
            and node.name.lower() in ast.AGGREGATE_FUNCTIONS
        ]
        if any(call.name.lower() == "count" for call in aggregates):
            return False
        return self._input_empty(select, f"{path}.subquery")

    # -- conjunction contradiction ------------------------------------------

    def _contradictory_conjunction(
        self, node: ast.BoolOp, scope: Scope, path: str
    ) -> bool:
        """Interval analysis across AND conjuncts on the same column."""
        constraints: dict[str, list[tuple[str, object]]] = {}
        for conjunct in node.operands:
            if isinstance(conjunct, ast.Comparison):
                column, value, op = self._column_vs_literal(conjunct)
                if column is not None and op in ("=", "<", "<=", ">", ">="):
                    key = self._canonical_column(column, scope)
                    if key is not None:
                        constraints.setdefault(key, []).append((op, value))
            elif isinstance(conjunct, ast.Between) and not conjunct.negated:
                if isinstance(conjunct.expr, ast.ColumnRef):
                    low = _literal_value(conjunct.low)
                    high = _literal_value(conjunct.high)
                    key = self._canonical_column(conjunct.expr, scope)
                    if key is not None and low is not None and high is not None:
                        constraints.setdefault(key, []).extend(
                            [(">=", low), ("<=", high)]
                        )
        for key, bounds in constraints.items():
            if len(bounds) > 1 and _infeasible(bounds):
                self.diagnostics.append(
                    Diagnostic(
                        rule="cost.contradictory-filter",
                        severity=Severity.WARNING,
                        message=(
                            f"conjunction constrains {key.split('.')[-1]!r} "
                            f"to an empty interval"
                        ),
                        path=path,
                    )
                )
                return True
        return False

    # -- helpers --------------------------------------------------------------

    def _column_vs_literal(self, node: ast.Comparison):
        """(column_ref, literal_value, normalised_op) or (None, None, None).

        A ``value`` of None with a non-None op means a literal NULL operand
        (never compares true); boolean literals are left to execution.
        """
        sides = (
            (node.left, node.right, node.op),
            (node.right, node.left, _mirror(node.op)),
        )
        for column, other, op in sides:
            if not isinstance(column, ast.ColumnRef):
                continue
            if isinstance(other, ast.Literal) and other.value is None:
                return column, None, op
            value = _literal_value(other)
            if value is not None:
                return column, value, op
        return None, None, None

    def _stats_for(self, ref: ast.ColumnRef, scope: Scope) -> ColumnStats | None:
        if self.ctx.enhanced is None:
            return None
        resolution = scope.resolve(ref)
        if (
            not resolution.ok
            or resolution.binding is None
            or resolution.binding.kind != "base"
            or resolution.binding.table is None
        ):
            return None
        return self.ctx.enhanced.column_stats(resolution.binding.table.name, ref.column)

    def _canonical_column(self, ref: ast.ColumnRef, scope: Scope) -> str | None:
        resolution = scope.resolve(ref)
        if resolution.ok and resolution.binding is not None:
            return f"{resolution.binding.name}.{ref.column}".lower()
        return None

    def _report_leaf(self, node: ast.Expr, path: str, reason: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                rule="cost.unsatisfiable-predicate",
                severity=Severity.WARNING,
                message=f"'{to_sql(node)}' can never hold: {reason}",
                path=path,
            )
        )


def _literal_value(expr: ast.Expr):
    if isinstance(expr, ast.Literal) and not isinstance(expr.value, bool):
        return expr.value
    if isinstance(expr, ast.UnaryMinus) and isinstance(expr.operand, ast.Literal):
        value = expr.operand.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return -value
    return None


def _range_note(stats: ColumnStats) -> str:
    if stats.n_distinct == 0:
        return "the column holds no non-NULL values"
    return f"the stored values span [{stats.min_value!r}, {stats.max_value!r}]"


def _mirror(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)


def _comparison_excluded(op: str, value, stats: ColumnStats) -> bool:
    """Whether ``column <op> value`` holds for no stored value. Sound only."""
    if stats.n_distinct == 0:
        return True  # every value is NULL; all comparisons are false
    if value is None:
        return True  # literal NULL never compares true
    try:
        if op == "=":
            if stats.values is not None:
                return value not in stats.values
            if stats.min_value is not None:
                return value < stats.min_value or value > stats.max_value
            return False
        if op == "!=":
            return stats.values is not None and stats.values == {value}
        if stats.min_value is None or stats.max_value is None:
            return False
        if op == ">":
            return value >= stats.max_value
        if op == ">=":
            return value > stats.max_value
        if op == "<":
            return value <= stats.min_value
        if op == "<=":
            return value < stats.min_value
    except TypeError:
        return False
    return False


def _infeasible(bounds: list[tuple[str, object]]) -> bool:
    """Whether a set of single-column bounds admits no value at all."""
    lower = None  # (value, strict)
    upper = None
    equals = []
    try:
        for op, value in bounds:
            if op == "=":
                equals.append(value)
            elif op in (">", ">="):
                strict = op == ">"
                if lower is None or (value, strict) > (lower[0], lower[1]):
                    lower = (value, strict)
            elif op in ("<", "<="):
                strict = op == "<"
                if upper is None or (value, strict) < (upper[0], not upper[1]):
                    upper = (value, strict)
        if len(set(equals)) > 1:
            return True
        for value in equals:
            if lower is not None and (
                value < lower[0] or (lower[1] and value == lower[0])
            ):
                return True
            if upper is not None and (
                value > upper[0] or (upper[1] and value == upper[0])
            ):
                return True
        if lower is not None and upper is not None:
            if lower[0] > upper[0]:
                return True
            if lower[0] == upper[0] and (lower[1] or upper[1]):
                return True
    except TypeError:
        return False
    return False
