"""Cost-based planning: conjunct classification, join ordering, pushdown.

The planner turns one parsed query into a :class:`~repro.engine.vector.plan.
QueryPlan`:

1. **Classify** WHERE/ON conjuncts: single-source predicates push down to
   their scan, two-source column equalities become hash-join edges, and
   everything else is a residual filter applied at the earliest join step
   where all its sources exist (filter placement).  An ON conjunct that
   names a later-joined table belongs to the join of the latest-declared
   table it references (inner joins filter one product, as in sqlite).
   A conjunct that can raise on a row's values (arithmetic over a text
   column, an aggregate in WHERE) is never pushed: it becomes a *late
   filter*, run after the joins in the row engine's evaluation order, so
   it only sees rows the row engine would evaluate it on.
2. **Estimate** with the same :class:`~repro.schema.enhanced.ColumnStats`
   the static analyzer's cost pass consumes — including its sound
   :func:`~repro.analysis.cost._comparison_excluded` exclusion check for
   provably-empty scans — profiled lazily by the
   :class:`~repro.engine.vector.columns.ColumnStore`.
3. **Order joins** greedily: start from the smallest estimated (filtered)
   source, repeatedly attach the edge-connected source minimising the
   estimated join output ``|L| x |R| / max(ndv(keys))``; sources with no
   usable edge cross-join last, smallest first.

Join-key semantics track the row engine exactly: edges lifted from ON
clauses key on raw Python equality (how the row engine hash-joins), edges
lifted from WHERE equalities key on ``_compare`` equality (how the row
engine filters) — see :data:`~repro.engine.vector.plan.RAW`/``CI``.
The planner refuses no construct: its only errors are the query's own
(unknown tables or columns), and they are final.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ExecutionError
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.analysis.cost import _comparison_excluded
from repro.engine.aggregates import _collect_aggregates, _has_aggregate
from repro.engine.expressions import Scope, _compare
from repro.engine.vector.columns import ColumnStore
from repro.engine.vector.plan import (
    CI,
    RAW,
    CrossJoinNode,
    EdgeKey,
    FilterNode,
    JoinNode,
    PushedFilter,
    QueryPlan,
    ScanNode,
    SelectPlan,
    SubqueryScanNode,
)
from repro.engine.vector.vexpr import VectorCompiler

#: Default cardinality guess for derived tables (no statistics available).
DEFAULT_SUBQUERY_ROWS = 100.0


def _literal_value(expr: ast.Expr):
    """A comparable literal (negative numbers included), else None."""
    if isinstance(expr, ast.Literal) and not isinstance(expr.value, bool):
        return expr.value
    if isinstance(expr, ast.UnaryMinus) and isinstance(expr.operand, ast.Literal):
        value = expr.operand.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return -value
    return None


_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Planner:
    """Plans queries for one engine (scope resolution + store statistics)."""

    def __init__(
        self,
        store: ColumnStore,
        subquery: Callable[[ast.Query], object],
        database,
    ) -> None:
        self.store = store
        self.subquery = subquery
        self.database = database

    # -- entry points --------------------------------------------------------

    def plan_query(self, query: ast.Query, sql: str | None = None) -> QueryPlan:
        select_plan = self.plan_select(query.select)
        right = None
        if query.set_op is not None and query.right is not None:
            right = self.plan_query(query.right)
        return QueryPlan(
            select_plan=select_plan,
            set_op=query.set_op,
            right=right,
            set_all=query.set_all,
            sql=sql,
        )

    # -- select-core planning ------------------------------------------------

    def plan_select(self, select: ast.Select) -> SelectPlan:
        scope = Scope()
        scans: dict[str, ScanNode | SubqueryScanNode] = {}
        decls: dict[str, int] = {}
        join_conditions: list[tuple[int, str, ast.Expr | None]] = []

        decl = 0
        for source in select.from_tables:
            binding = self._add_source(scope, scans, decls, source, decl)
            decl += 1
        for join in select.joins:
            binding = self._add_source(scope, scans, decls, join.table, decl)
            join_conditions.append((decl, binding, join.condition))
            decl += 1

        compiler = VectorCompiler(scope, self.subquery)

        if not scans:
            plan = self._finish(select, scope, compiler, None, est_rows=1.0)
            if select.where is not None:
                plan.late_filters = [
                    PushedFilter(select.where, compiler.compile(select.where), 0.5)
                ]
            return plan

        # -- conjunct classification ---------------------------------------
        pushed: dict[str, list[tuple[ast.Expr, float, int]]] = {b: [] for b in scans}
        edges: dict[frozenset, list[EdgeKey]] = {}
        residuals: list[tuple[frozenset, ast.Expr | None, EdgeKey | None, int]] = []
        late: list[tuple[tuple[int, int], ast.Expr]] = []
        seq = 0

        def classify(conjunct: ast.Expr, on_binding: str | None, on_decl: int) -> None:
            nonlocal seq
            seq += 1
            slots = [
                scope.resolve(ref.table, ref.column)
                for ref in ast.local_column_refs(conjunct)
            ]
            bindings = list(dict.fromkeys(_slot_of(scope, i)[0] for i in slots))
            if on_binding is not None:
                latest = max(bindings, key=decls.__getitem__, default=None)
                if latest is not None and decls[latest] > on_decl:
                    on_binding = latest
            if not bindings or self._can_raise(conjunct, scope, scans):
                # Row-engine evaluation order: ON conjuncts join by join,
                # then WHERE, each in text order.  Source-free conjuncts
                # (an uncorrelated EXISTS) need no join either.
                step = decls[on_binding] if on_binding is not None else len(decls)
                late.append(((step, seq), conjunct))
                return
            equality = (
                isinstance(conjunct, ast.Comparison)
                and conjunct.op == "="
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.ColumnRef)
            )
            if equality and on_binding is not None and self._on_hash_edge(
                conjunct, slots, scope, on_binding, edges
            ):
                return
            if len(bindings) == 1:
                binding = bindings[0]
                pushed[binding].append(
                    (conjunct, self._selectivity(conjunct, scans[binding]), seq)
                )
                return
            if equality and len(bindings) == 2:
                (lb, lp), (rb, rp) = (_slot_of(scope, i) for i in slots)
                edge = EdgeKey(lb, lp, rb, rp, CI, label=to_sql(conjunct))
                edges.setdefault(frozenset((lb, rb)), []).append(edge)
                return
            residuals.append((frozenset(bindings), conjunct, None, seq))

        for conjunct in ast.conjuncts(select.where):
            classify(conjunct, None, -1)
        for on_decl, on_binding, condition in join_conditions:
            for conjunct in ast.conjuncts(condition):
                classify(conjunct, on_binding, on_decl)

        # -- scan estimates + filter compilation ---------------------------
        for binding, node in scans.items():
            filters = sorted(pushed[binding], key=lambda item: (item[1], item[2]))
            node.filters = [
                PushedFilter(expr, compiler.compile(expr), sel)
                for expr, sel, _ in filters
            ]
            base = (
                float(node.base_rows)
                if isinstance(node, ScanNode)
                else DEFAULT_SUBQUERY_ROWS
            )
            for pf in node.filters:
                base *= pf.selectivity
            node.est_rows = base

        # -- greedy join ordering ------------------------------------------
        root, order = self._order_joins(scans, decls, edges, residuals, compiler)
        order_decls = [decls[b] for b in order]
        needs_restore = order_decls != sorted(order_decls)
        plan = self._finish(
            select, scope, compiler, root, est_rows=getattr(root, "est_rows", 0.0)
        )
        plan.needs_restore = needs_restore
        plan.late_filters = [
            PushedFilter(expr, compiler.compile(expr), 0.5)
            for _, expr in sorted(late, key=lambda item: item[0])
        ]
        return plan

    # -- sources -------------------------------------------------------------

    def _add_source(self, scope, scans, decls, source, decl) -> str:
        if isinstance(source, ast.SubqueryRef):
            subplan = self.plan_query(source.query)
            columns = subplan.select_plan.labels
            scope.add(source.binding, columns)
            binding = source.binding.lower()
            scans[binding] = SubqueryScanNode(
                binding=binding, decl=decl, plan=subplan,
                est_rows=DEFAULT_SUBQUERY_ROWS,
            )
        else:
            table = self.store.table(source.name)
            scope.add(source.binding, table.columns)
            binding = source.binding.lower()
            scans[binding] = ScanNode(
                binding=binding, table=table.name, decl=decl,
                base_rows=table.n_rows, est_rows=float(table.n_rows),
            )
        decls[binding] = decl
        return binding

    def _can_raise(self, conjunct, scope, scans) -> bool:
        """Whether ``conjunct`` can raise on some row's values: an aggregate
        outside GROUP BY context, or arithmetic, negation or ABS over an
        operand that is not provably numeric (typed tables hold only
        numbers or NULL in a numeric column).  Such a conjunct is never
        pushed: it runs after the joins, on rows the row engine would
        evaluate it on as well."""
        for node in ast.walk_local(conjunct):
            if isinstance(node, ast.FuncCall) and (
                node.name.lower() in ast.AGGREGATE_FUNCTIONS
            ):
                return True
            if isinstance(node, (ast.BinaryOp, ast.UnaryMinus, ast.FuncCall)) and not all(
                self._numeric(operand, scope, scans) for operand in node.children()
            ):
                return True
        return False

    def _numeric(self, expr, scope, scans) -> bool:
        """Whether every non-NULL value of ``expr`` is a number (nested
        arithmetic counts: the walk checks its own operands)."""
        if isinstance(expr, ast.Literal):
            return not isinstance(expr.value, (str, bool))
        if isinstance(expr, ast.ColumnRef):
            index = scope.resolve(expr.table, expr.column)
            binding, position = _slot_of(scope, index)
            node = scans[binding]  # derived-table columns carry no type
            return isinstance(node, ScanNode) and self.database.table(
                node.table
            ).definition.columns[position].type.is_numeric
        return isinstance(expr, (ast.BinaryOp, ast.UnaryMinus, ast.FuncCall))

    def _on_hash_edge(self, conjunct, slots, scope, on_binding, edges) -> bool:
        """Mirror the row engine's hash-key detection for one ON column
        equality (``slots``: its two resolved sides): a raw-keyed edge when
        exactly one side lives in the joined table (the latest-declared
        table the conjunct references)."""
        li, ri = slots
        offset = scope.offset_of(on_binding)
        if li >= offset and ri < offset:
            li, ri = ri, li
        if not (li < offset <= ri):
            return False
        lb, lp = _slot_of(scope, li)
        edge = EdgeKey(lb, lp, on_binding, ri - offset, RAW, label=to_sql(conjunct))
        edges.setdefault(frozenset((lb, on_binding)), []).append(edge)
        return True

    # -- join ordering --------------------------------------------------------

    def _order_joins(self, scans, decls, edges, residuals, compiler):
        bindings = sorted(scans, key=lambda b: decls[b])
        start = min(bindings, key=lambda b: (scans[b].est_rows, decls[b]))
        joined = [start]
        node: object = scans[start]
        current_est = max(scans[start].est_rows, 0.0)
        pending = list(residuals)
        node, current_est = self._attach_residuals(
            node, current_est, joined, pending, edges, compiler, scans
        )
        remaining = [b for b in bindings if b != start]
        while remaining:
            best = None
            for candidate in remaining:
                keys = self._edges_between(edges, joined, candidate)
                if not keys:
                    continue
                ndv = self._edge_ndv(scans, keys, candidate)
                out = current_est * max(scans[candidate].est_rows, 0.0) / max(ndv, 1.0)
                if best is None or (out, decls[candidate]) < (best[0], decls[best[1]]):
                    best = (out, candidate, keys)
            if best is None:
                candidate = min(remaining, key=lambda b: (scans[b].est_rows, decls[b]))
                out = current_est * max(scans[candidate].est_rows, 1.0)
                node = CrossJoinNode(node, scans[candidate], est_rows=out)
            else:
                out, candidate, keys = best
                self._consume_edges(edges, joined, candidate)
                oriented = [self._orient(key, candidate) for key in keys]
                node = JoinNode(node, scans[candidate], oriented, est_rows=out)
            remaining.remove(candidate)
            joined.append(candidate)
            current_est = node.est_rows
            node, current_est = self._attach_residuals(
                node, current_est, joined, pending, edges, compiler, scans
            )
        return node, joined

    def _attach_residuals(
        self, node, current_est, joined, pending, edges, compiler, scans
    ):
        """Apply pending residual conjuncts (and leftover edges between
        already-joined sources) as soon as their bindings all exist."""
        joined_set = set(joined)
        ready = []
        for i, item in enumerate(pending):
            if item is None:
                continue
            bindings, _expr, _edge, _seq = item
            if bindings <= joined_set:
                ready.append(item)
                pending[i] = None
        # Edges whose endpoints are both joined but were never used as a
        # hash key become filters with their recorded semantics.
        for pair in sorted(edges, key=lambda p: sorted(p)):
            if not pair or not pair <= joined_set:
                continue
            for edge in edges[pair]:
                ready.append((pair, None, edge, 10_000))
            edges[pair] = []
        if not ready:
            return node, current_est
        ready.sort(key=lambda item: item[3])
        est = current_est * (0.5 ** len(ready))
        return self._filter_node(node, ready, compiler, est), est

    def _filter_node(self, node, items, compiler, est) -> FilterNode:
        filters = []
        raw_edges = []
        for _bindings, expr, edge, _seq in sorted(items, key=lambda item: item[3]):
            if expr is not None:
                filters.append(PushedFilter(expr, compiler.compile(expr), 0.5))
            elif edge is not None:
                if edge.semantics == RAW:
                    raw_edges.append(edge)
                else:
                    filters.append(
                        PushedFilter(None, _edge_filter(edge), 0.5, edge.describe())
                    )
        return FilterNode(node, filters=filters, raw_edges=raw_edges, est_rows=est)

    @staticmethod
    def _edges_between(edges, joined, candidate) -> list[EdgeKey]:
        """Peek (never consume) the usable edges between the joined set and
        a candidate — scoring must not destroy a losing candidate's edges."""
        keys = []
        for binding in joined:
            pair = frozenset((binding, candidate))
            if pair in edges and edges[pair]:
                keys.extend(edges[pair])
        return keys

    @staticmethod
    def _consume_edges(edges, joined, candidate) -> None:
        for binding in joined:
            pair = frozenset((binding, candidate))
            if pair in edges:
                edges[pair] = []

    def _edge_ndv(self, scans, keys: list[EdgeKey], candidate: str) -> float:
        ndv = 1.0
        for key in keys:
            for binding, position in (
                (key.left_binding, key.left_position),
                (key.right_binding, key.right_position),
            ):
                node = scans[binding]
                if not isinstance(node, ScanNode):
                    continue
                stats = self.store.stats(node.table, self._column_name(node, position))
                if stats is not None:
                    ndv = max(ndv, float(stats.n_distinct))
        return ndv

    def _column_name(self, node: ScanNode, position: int) -> str:
        return self.store.table(node.table).columns[position]

    @staticmethod
    def _orient(key: EdgeKey, build_binding: str) -> EdgeKey:
        """Orient an edge so its right side is the build (new) source."""
        if key.right_binding == build_binding:
            return key
        return EdgeKey(
            key.right_binding, key.right_position,
            key.left_binding, key.left_position,
            key.semantics, key.label,
        )

    # -- selectivity ----------------------------------------------------------

    def _selectivity(self, conjunct: ast.Expr, node) -> float:
        stats = None
        column = self._single_column(conjunct, node)
        if column is not None and isinstance(node, ScanNode):
            stats = self.store.stats(node.table, column)
        if isinstance(conjunct, ast.Comparison):
            op, value = self._comparison_literal(conjunct)
            if op in ("like", "not like"):
                return 0.25 if op == "like" else 0.75
            if op is not None and value is not None and stats is not None:
                if _comparison_excluded(op, value, stats):
                    return 0.0
                if op == "=":
                    return 1.0 / max(stats.n_distinct, 1)
                if op == "!=":
                    return 1.0 - 1.0 / max(stats.n_distinct, 1)
                return 1.0 / 3.0
            if op == "=":
                return 0.1
            return 0.5 if op in ("!=", None) else 1.0 / 3.0
        if isinstance(conjunct, ast.Between):
            if stats is not None and not conjunct.negated:
                low = _literal_value(conjunct.low)
                high = _literal_value(conjunct.high)
                if low is not None and high is not None:
                    try:
                        if stats.n_distinct == 0 or (
                            stats.max_value is not None and low > stats.max_value
                        ) or (stats.min_value is not None and high < stats.min_value):
                            return 0.0
                    except TypeError:
                        pass
            return 0.75 if conjunct.negated else 0.25
        if isinstance(conjunct, ast.InList):
            width = len(conjunct.values)
            if stats is not None:
                inside = min(1.0, width / max(stats.n_distinct, 1))
                return 1.0 - inside if conjunct.negated else inside
            return 0.5 if conjunct.negated else min(0.5, 0.1 * width)
        if isinstance(conjunct, ast.IsNull):
            if stats is not None and stats.n_rows > 0:
                fraction = stats.n_null / stats.n_rows
                return 1.0 - fraction if conjunct.negated else fraction
            return 0.1 if not conjunct.negated else 0.9
        return 0.5

    @staticmethod
    def _single_column(conjunct: ast.Expr, node) -> str | None:
        refs = ast.local_column_refs(conjunct)
        if len(refs) == 1:
            return refs[0].column.lower()
        return None

    @staticmethod
    def _comparison_literal(conjunct: ast.Comparison):
        """(normalised op, literal) with the column on the left, else Nones."""
        if conjunct.op in ("like", "not like"):
            return conjunct.op, None
        if isinstance(conjunct.left, ast.ColumnRef):
            value = _literal_value(conjunct.right)
            if value is not None:
                return conjunct.op, value
            return conjunct.op, None
        if isinstance(conjunct.right, ast.ColumnRef):
            value = _literal_value(conjunct.left)
            if value is not None:
                return _MIRROR.get(conjunct.op, conjunct.op), value
        return None, None

    # -- projection / stage compilation ---------------------------------------

    def _finish(
        self, select: ast.Select, scope: Scope, compiler: VectorCompiler,
        source, est_rows: float,
    ) -> SelectPlan:
        labels, projection = self._projection(select, scope, compiler)
        aggregate = bool(select.group_by) or _has_aggregate(select)
        stages: dict = {"projection": projection, "scope": scope}
        if aggregate:
            stages["group_fns"] = [compiler.compile(e) for e in select.group_by]
            agg_nodes = _collect_aggregates(select)
            stages["agg_nodes"] = agg_nodes
            arg_fns: dict = {}
            for node in agg_nodes:
                if node.args and not isinstance(node.args[0], ast.Star):
                    arg_fns[node] = compiler.compile(node.args[0])
            stages["agg_arg_fns"] = arg_fns
        if select.having is not None:
            stages["having_fn"] = compiler.compile(select.having)
        if select.order_by:
            stages["order_fns"] = [
                (compiler.compile(o.expr), o.desc) for o in select.order_by
            ]
        return SelectPlan(
            select=select, source=source, aggregate=aggregate,
            labels=labels, est_rows=est_rows, stages=stages,
        )

    def _projection(self, select: ast.Select, scope: Scope, compiler):
        labels: list[str] = []
        items: list[tuple] = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                star = item.expr
                bindings = [star.table.lower()] if star.table else scope.bindings()
                for binding in bindings:
                    for i, column in enumerate(scope.columns_of(binding)):
                        labels.append(column)
                        items.append(("slot", binding, i))
                continue
            labels.append(item.alias or to_sql(item.expr))
            items.append(("expr", compiler.compile(item.expr), None))
        return labels, items


def _slot_of(scope: Scope, index: int) -> tuple[str, int]:
    """(binding, column position) of a resolved slot index."""
    for binding in scope.bindings():
        offset = scope.offset_of(binding)
        width = len(scope.columns_of(binding))
        if offset <= index < offset + width:
            return binding, index - offset
    raise ExecutionError(f"slot {index} outside scope")


def _edge_filter(edge: EdgeKey) -> Callable:
    """A positional equality filter for a leftover CI edge (both endpoints
    already joined before the edge could key a hash join)."""

    def fn(ctx):
        left = ctx.column(edge.left_binding, edge.left_position)
        right = ctx.column(edge.right_binding, edge.right_position)
        return [_compare("=", a, b) for a, b in zip(left, right)]

    return fn
