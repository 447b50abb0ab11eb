"""The row engine: SQL ASTs evaluated one flattened row tuple at a time.

The executor implements the subset of SQL that the benchmark's queries use:
projections with aggregates and arithmetic, inner joins (hash-join for
equi-conditions), WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, DISTINCT, IN/scalar/
EXISTS subqueries (uncorrelated), derived tables and single set operations.

``Database.execute`` runs the vector engine; this executor is the
independent reference it is checked against — diff-exec's ``native`` arm and
the tests' oracle.  Result semantics shared by both engines live in
:mod:`repro.engine.result`.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import ExecutionError
from repro.obs import get_tracer
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.engine.aggregates import AGGREGATES, _collect_aggregates, _has_aggregate
from repro.engine.expressions import Compiler, Scope
from repro.engine.result import (
    MAX_INTERMEDIATE_ROWS,
    Result,
    _apply_set_op,
    _canonical,
    _dedupe,
    _sort_component,
)


class Executor:
    """Evaluates queries against one database."""

    def __init__(self, database) -> None:
        self.database = database
        #: Monotonic work counters: rows read out of sources, and rows
        #: produced by join steps.  Per-query deltas land on ``engine.query``
        #: spans when tracing is on.
        self.rows_scanned = 0
        self.rows_joined = 0
        self._depth = 0  # recursion depth: only the outermost call gets a span

    # -- entry points -----------------------------------------------------------

    def execute(self, query: ast.Query) -> Result:
        tracer = get_tracer()
        if not tracer.enabled or self._depth:
            return self._execute_query(query)
        scanned_before = self.rows_scanned
        joined_before = self.rows_joined
        with tracer.span("engine.query") as span:
            result = self._execute_query(query)
            span.set_attr("rows", len(result.rows))
            span.set_attr("rows_scanned", self.rows_scanned - scanned_before)
            span.set_attr("rows_joined", self.rows_joined - joined_before)
            return result

    def _execute_query(self, query: ast.Query) -> Result:
        self._depth += 1
        try:
            left = self._execute_select(query.select)
            if query.set_op is None:
                return left
            right = self._execute_query(query.right)
            if len(left.columns) != len(right.columns):
                raise ExecutionError("set operation arms have different arities")
            return _apply_set_op(query.set_op, left, right, query.set_all)
        finally:
            self._depth -= 1

    # -- select core -------------------------------------------------------------

    def _execute_select(self, select: ast.Select) -> Result:
        scope, rows = self._evaluate_from(select)
        compiler = Compiler(scope, self.execute)

        if select.where is not None:
            predicate = compiler.compile_predicate(select.where)
            rows = [row for row in rows if predicate(row, None)]

        if select.group_by or _has_aggregate(select):
            return self._execute_aggregate(select, scope, compiler, rows)
        return self._execute_plain(select, scope, compiler, rows)

    # -- FROM evaluation -----------------------------------------------------------

    def _evaluate_from(self, select: ast.Select) -> tuple[Scope, list[tuple]]:
        scope = Scope()
        if not select.from_tables:
            # SELECT without FROM: one empty pseudo-row.
            return scope, [()]

        sources: list[tuple[str, list[tuple]]] = []
        for source in [*select.from_tables, *(join.table for join in select.joins)]:
            binding, columns, source_rows = self._load_source(source)
            scope.add(binding, columns)
            sources.append((binding, source_rows))
        joined = sources[len(select.from_tables):]

        # Inner joins filter one product, so an ON conjunct that names a
        # later-joined table is applied at the join of the latest table it
        # references (sqlite's semantics).
        offsets = [scope.offset_of(binding) for binding, _ in joined]
        conditions: list[list[ast.Expr]] = [[] for _ in joined]
        for i, join in enumerate(select.joins):
            for conjunct in ast.conjuncts(join.condition):
                last = max(
                    (
                        scope.resolve(ref.table, ref.column)
                        for ref in ast.local_column_refs(conjunct)
                    ),
                    default=-1,
                )
                conditions[max(i, bisect_right(offsets, last) - 1)].append(conjunct)

        # Base product over comma-separated FROM sources.
        rows: list[tuple] = [()]
        for _, source_rows in sources[: len(select.from_tables)]:
            rows = _cross(rows, source_rows)

        # JOIN ... ON clauses, hash-joined when the condition allows it.
        for (binding, source_rows), conjuncts in zip(joined, conditions):
            rows = self._join(rows, binding, source_rows, conjuncts, scope)
        return scope, rows

    def _load_source(self, source) -> tuple[str, list[str], list[tuple]]:
        if isinstance(source, ast.SubqueryRef):
            # Scan work inside the derived table is already counted by its
            # own execution; counting its *result* rows again would bill the
            # same work twice (and bill materialisation as scanning).
            result = self.execute(source.query)
            return source.binding, result.columns, result.rows
        table = self.database.table(source.name)
        self.rows_scanned += len(table.rows)
        return source.binding, table.columns, table.rows

    def _join(
        self,
        rows: list[tuple],
        binding: str,
        source_rows: list[tuple],
        conjuncts: list[ast.Expr],
        scope: Scope,
    ) -> list[tuple]:
        equalities, residual = _split_join_condition(conjuncts)
        offset = scope.offset_of(binding)
        hash_keys: list[tuple[int, int]] = []  # (left slot, right local slot)
        for left_ref, right_ref in equalities:
            li = scope.resolve(left_ref.table, left_ref.column)
            ri = scope.resolve(right_ref.table, right_ref.column)
            if li >= offset and ri < offset:
                li, ri = ri, li
            if li < offset <= ri:
                hash_keys.append((li, ri - offset))
            else:
                residual = _conjoin(residual, ast.Comparison("=", left_ref, right_ref))

        if hash_keys:
            index: dict[tuple, list[tuple]] = {}
            for srow in source_rows:
                key = tuple(srow[ri] for _, ri in hash_keys)
                if any(v is None for v in key):
                    continue
                index.setdefault(key, []).append(srow)
            combined = []
            for row in rows:
                key = tuple(row[li] for li, _ in hash_keys)
                for srow in index.get(key, ()):
                    combined.append(row + srow)
                    if len(combined) > MAX_INTERMEDIATE_ROWS:
                        raise ExecutionError("join result too large")
        else:
            combined = _cross(rows, source_rows)
        self.rows_joined += len(combined)

        if residual is not None:
            compiler = Compiler(scope, self.execute)
            # Conjuncts reach this join only once every table they reference
            # is joined, so the full-width compilation is safe on these rows.
            predicate = compiler.compile_predicate(residual)
            combined = [row for row in combined if predicate(row, None)]
        return combined

    # -- plain (non-aggregate) path --------------------------------------------------

    def _execute_plain(
        self, select: ast.Select, scope: Scope, compiler: Compiler, rows: list[tuple]
    ) -> Result:
        labels, getters = self._projection(select, scope, compiler)

        if select.order_by:
            rows = self._sorted(rows, select.order_by, compiler, None)

        projected = [tuple(g(row, None) for g in getters) for row in rows]

        if select.distinct:
            projected = _dedupe(projected)
        if select.limit is not None:
            projected = projected[: select.limit]
        return Result(columns=labels, rows=projected)

    # -- aggregate path ------------------------------------------------------------------

    def _execute_aggregate(
        self, select: ast.Select, scope: Scope, compiler: Compiler, rows: list[tuple]
    ) -> Result:
        group_fns = [compiler.compile(e) for e in select.group_by]

        groups: dict[tuple, list[tuple]] = {}
        if group_fns:
            for row in rows:
                key = tuple(_canonical(fn(row, None)) for fn in group_fns)
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = rows  # single implicit group (possibly empty)

        agg_nodes = _collect_aggregates(select)
        agg_arg_fns: dict[ast.FuncCall, object] = {}
        for node in agg_nodes:
            if node.args and not isinstance(node.args[0], ast.Star):
                agg_arg_fns[node] = compiler.compile(node.args[0])

        group_rows: list[tuple[tuple, dict]] = []
        for _key, members in groups.items():
            aggs: dict[ast.FuncCall, object] = {}
            for node in agg_nodes:
                name = node.name.lower()
                if node.args and isinstance(node.args[0], ast.Star):
                    if name != "count":
                        raise ExecutionError(f"{name.upper()}(*) is not valid")
                    aggs[node] = len(members)
                    continue
                arg_fn = agg_arg_fns[node]
                values = [arg_fn(row, None) for row in members]
                aggs[node] = AGGREGATES[name](values, distinct=node.distinct)
            representative = members[0] if members else tuple([None] * scope.width)
            group_rows.append((representative, aggs))

        if select.having is not None:
            having = compiler.compile_predicate(select.having)
            group_rows = [(rep, aggs) for rep, aggs in group_rows if having(rep, aggs)]

        labels, getters = self._projection(select, scope, compiler)

        if select.order_by:
            order_fns = [(compiler.compile(o.expr), o.desc) for o in select.order_by]
            group_rows = _sort_pairs(group_rows, order_fns)

        projected = [
            tuple(g(rep, aggs) for g in getters) for rep, aggs in group_rows
        ]
        if select.distinct:
            projected = _dedupe(projected)
        if select.limit is not None:
            projected = projected[: select.limit]
        return Result(columns=labels, rows=projected)

    # -- shared helpers ---------------------------------------------------------------

    def _projection(self, select: ast.Select, scope: Scope, compiler: Compiler):
        labels: list[str] = []
        getters = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                star = item.expr
                bindings = [star.table.lower()] if star.table else scope.bindings()
                for binding in bindings:
                    offset = scope.offset_of(binding)
                    for i, column in enumerate(scope.columns_of(binding)):
                        labels.append(column)
                        getters.append(_slot_getter(offset + i))
                continue
            labels.append(item.alias or to_sql(item.expr))
            getters.append(compiler.compile(item.expr))
        return labels, getters

    def _sorted(self, rows, order_by, compiler: Compiler, aggs):
        order_fns = [(compiler.compile(o.expr), o.desc) for o in order_by]
        decorated = [(row, aggs) for row in rows]
        decorated = _sort_pairs(decorated, order_fns)
        return [row for row, _ in decorated]


def _slot_getter(index: int):
    return lambda row, aggs: row[index]


def _cross(rows: list[tuple], source_rows: list[tuple]) -> list[tuple]:
    if len(rows) * max(len(source_rows), 1) > MAX_INTERMEDIATE_ROWS:
        raise ExecutionError("cartesian product too large")
    return [row + srow for row in rows for srow in source_rows]


def _split_join_condition(conjuncts: list[ast.Expr]):
    """Split ON conjuncts into hashable equality pairs and a residual."""
    equalities = []
    residual: ast.Expr | None = None
    for conjunct in conjuncts:
        if (
            isinstance(conjunct, ast.Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            equalities.append((conjunct.left, conjunct.right))
        else:
            residual = _conjoin(residual, conjunct)
    return equalities, residual


def _conjoin(left: ast.Expr | None, right: ast.Expr) -> ast.Expr:
    if left is None:
        return right
    return ast.BoolOp(op="and", operands=(left, right))


def _sort_pairs(pairs, order_fns):
    def key(pair):
        row, aggs = pair
        parts = []
        for fn, desc in order_fns:
            value = fn(row, aggs)
            parts.append(_sort_component(value, desc))
        return tuple(parts)

    return sorted(pairs, key=key)
