"""The vector engine: cached cost-based plans executed over columnar batches.

:class:`VectorEngine` is the engine behind every ``Database.execute``.  It
answers exactly what the row ``Executor`` (its independent reference)
answers — same ``execute(query) -> Result`` surface, same results byte for
byte.  Differences that buy the speed:

* **One-time columnar load** — each table is transposed once per version
  into the engine's :class:`~repro.engine.vector.columns.ColumnStore`.
* **Plan caching** — parsing aside, the per-query planning work (conjunct
  classification, join ordering, expression compilation) happens once per
  distinct repeated query; repeated executions replay the compiled plan.
  A plan is admitted to the cache only on its query's second sighting, so
  one-shot queries (candidate checks, generated SQL) never pin a plan and
  its cached scan selections.
* **Selection-vector filters and hash joins** — predicates evaluate
  column-at-a-time and only the referenced columns are ever gathered.

Error semantics: an :class:`~repro.errors.ExecutionError` raised here is
final.  Errors carry the row engine's messages (shared name resolution,
aggregates and value helpers).  A conjunct that can raise on a row's values
runs as a late filter after the joins, in the row engine's order, so a
data-dependent type error can vanish relative to the row engine (pushdown
removed the offending row first) but never appear (see DESIGN.md, "Error
semantics").

Observability: ``engine.vector.query`` spans carry ``rows``,
``rows_scanned`` (corrected: derived-table result rows are not scan work),
``rows_joined``, ``batches`` and ``plan_hash``; plan builds get an
``engine.plan`` span; counters land in a :class:`~repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ExecutionError
from repro.obs import MetricsRegistry, get_tracer
from repro.sql import ast
from repro.checks.lockorder import new_lock
from repro.engine.aggregates import AGGREGATES
from repro.engine.result import (
    MAX_INTERMEDIATE_ROWS,
    Result,
    _apply_set_op,
    _canonical,
    _dedupe,
    _sort_component,
)
from repro.engine.vector.batch import Batch, SourceView, restore_order
from repro.engine.vector.columns import ColumnStore
from repro.engine.vector.plan import (
    RAW,
    CrossJoinNode,
    FilterNode,
    JoinNode,
    QueryPlan,
    ScanNode,
    SelectPlan,
    SubqueryScanNode,
)
from repro.engine.vector.planner import Planner
from repro.engine.vector.vexpr import EvalContext

#: Compiled plans kept per engine (LRU by query AST).
PLAN_CACHE_SIZE = 256

#: Plan-key hashes the admission doorkeeper remembers (FIFO): a plan is
#: cached only when its key was seen among the last this-many misses.
DOORKEEPER_SIZE = 4 * PLAN_CACHE_SIZE


def _plan_key(query: ast.Query) -> tuple:
    """The structural plan-cache key of ``query``.

    AST equality alone is not enough: Python has ``1 == 1.0 == True``, so
    ``SELECT 1`` and ``SELECT 1.0`` compare (and hash) equal but must not
    share a plan.  The literal types, in pre-order, tell them apart.
    """
    return (query, tuple(type(literal.value) for literal in ast.literals(query)))


class ExecState:
    """Per-execution mutable state: work counters plus the subquery memo
    (kept off the engine so concurrent executions never share mutables)."""

    __slots__ = ("rows_scanned", "rows_joined", "batches", "subqueries")

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.rows_joined = 0
        self.batches = 0
        self.subqueries: dict = {}


class VectorEngine:
    """Executes queries for one database via cached columnar plans."""

    def __init__(self, database, metrics: MetricsRegistry | None = None) -> None:
        self.database = database
        self.store = ColumnStore(database)
        self.metrics = metrics or MetricsRegistry()
        self._plans: OrderedDict[tuple, QueryPlan] = OrderedDict()
        # Identity-keyed front cache: repeated executions of the *same*
        # parsed Query object skip the deep structural hash.  Values hold a
        # strong reference to the query so its id cannot be recycled.
        self._plans_by_id: OrderedDict[int, tuple[ast.Query, QueryPlan]] = (
            OrderedDict()
        )
        self._seen: OrderedDict[int, None] = OrderedDict()
        self._lock = new_lock("engine.vector")
        self._local = threading.local()
        self._planner = Planner(self.store, self._nested, database)
        self._queries = self.metrics.counter("engine.vector.queries")
        self._plans_built = self.metrics.counter("engine.vector.plans_built")
        self._plan_hits = self.metrics.counter("engine.vector.plan_cache_hits")

    # -- entry point -------------------------------------------------------------

    def execute(self, query: ast.Query) -> Result:
        self._queries.inc()
        tracer = get_tracer()
        if not tracer.enabled:
            return self._execute(query, None)
        with tracer.span("engine.vector.query") as span:
            return self._execute(query, span)

    def explain(self, query: ast.Query, sql: str | None = None) -> str:
        """The costed plan tree the query runs as."""
        plan, _cached = self._plan_traced(query)
        if sql is not None and plan.sql is None:
            plan.sql = sql
        return plan.render()

    def _execute(self, query: ast.Query, span) -> Result:
        state = ExecState()
        plan, cached = self._plan_traced(query)
        previous = getattr(self._local, "state", None)
        self._local.state = state
        try:
            result = self._execute_plan(plan, state)
        finally:
            self._local.state = previous
        if span is not None:
            span.set_attr("rows", len(result.rows))
            span.set_attr("rows_scanned", state.rows_scanned)
            span.set_attr("rows_joined", state.rows_joined)
            span.set_attr("batches", state.batches)
            span.set_attr("plan_hash", plan.plan_hash)
            span.set_attr("plan_cached", cached)
        return result

    def _nested(self, query: ast.Query) -> Result:
        """Execute an IN/scalar/EXISTS subquery mid-evaluation (planned and
        cached like any query, counters folded into the active execution)."""
        plan, _cached = self._plan_traced(query)
        return self._execute_plan(plan, self._local.state)

    # -- planning ----------------------------------------------------------------

    def _plan_traced(self, query: ast.Query) -> tuple[QueryPlan, bool]:
        key = id(query)
        structural = None
        with self._lock:
            hit = self._plans_by_id.get(key)
            if hit is not None and hit[0] is query:
                plan = hit[1]
            else:
                structural = _plan_key(query)
                plan = self._plans.get(structural)
                if plan is not None:
                    self._plans.move_to_end(structural)
                    self._remember_id_locked(key, query, plan)
        if plan is not None:
            self._plan_hits.inc()
            return plan, True
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("engine.plan") as span:
                plan = self._planner.plan_query(query)
                span.set_attr("plan_hash", plan.plan_hash)
        else:
            plan = self._planner.plan_query(query)
        self._plans_built.inc()
        with self._lock:
            if self._admit_locked(hash(structural)):
                self._plans[structural] = plan
                while len(self._plans) > PLAN_CACHE_SIZE:
                    self._plans.popitem(last=False)
                self._remember_id_locked(key, query, plan)
        return plan, False

    def _admit_locked(self, digest: int) -> bool:
        """Second-sighting admission: True when ``digest`` is among the
        recently missed keys; otherwise remember it and keep the plan out.
        A hash collision only admits early — it changes speed, never a
        result."""
        if digest in self._seen:
            return True
        self._seen[digest] = None
        if len(self._seen) > DOORKEEPER_SIZE:
            self._seen.popitem(last=False)
        return False

    def _remember_id_locked(
        self, key: int, query: ast.Query, plan: QueryPlan
    ) -> None:
        self._plans_by_id[key] = (query, plan)
        while len(self._plans_by_id) > PLAN_CACHE_SIZE:
            self._plans_by_id.popitem(last=False)

    # -- plan execution ----------------------------------------------------------

    def _execute_plan(self, plan: QueryPlan, state: ExecState) -> Result:
        left = self._execute_select_plan(plan.select_plan, state)
        if plan.set_op is None or plan.right is None:
            return left
        right = self._execute_plan(plan.right, state)
        if len(left.columns) != len(right.columns):
            raise ExecutionError("set operation arms have different arities")
        return _apply_set_op(plan.set_op, left, right, plan.set_all)

    def _execute_select_plan(self, splan: SelectPlan, state: ExecState) -> Result:
        if splan.source is None:
            batch = Batch.unit()
        else:
            batch = self._execute_source(splan.source, state)
        # The row engine's output order is declaration-order row ids; group
        # first-seen order, DISTINCT first-seen order and sort stability all
        # depend on it, so restore before any stage runs.
        batch = restore_order(batch)
        batch = self._apply_filters(batch, splan.late_filters, state)
        if splan.aggregate:
            return self._aggregate(splan, batch, state)
        return self._plain(splan, batch, state)

    # -- source tree -------------------------------------------------------------

    def _execute_source(self, node, state: ExecState) -> Batch:
        if isinstance(node, ScanNode):
            table = self.store.table(node.table)
            # Logical scan work (counted whether or not the selection below
            # is served from cache, so span attrs are run-stable).
            state.rows_scanned += table.n_rows
            view = SourceView.from_table(node.binding, node.decl, table)
            state.batches += 1
            if not node.filters:
                return Batch.from_view(view)
            # The filters' combined selection is a pure function of the
            # database contents; replay it while nothing changed.
            version = self.database.data_version()
            cached = node.selection_cache
            if cached is not None and cached[0] == version:
                return Batch.from_view(view).take(cached[1], monotonic=True)
            batch = self._apply_filters(
                Batch.from_view(view), node.filters, state
            )
            node.selection_cache = (version, batch.views[0].indices)
            return batch
        if isinstance(node, SubqueryScanNode):
            result = self._execute_plan(node.plan, state)
            batch = Batch.from_view(
                SourceView.from_rows(
                    node.binding, node.decl, result.columns, result.rows
                )
            )
            state.batches += 1
            return self._apply_filters(batch, node.filters, state)
        if isinstance(node, JoinNode):
            left = self._execute_source(node.left, state)
            right = self._execute_source(node.right, state)
            return self._hash_join(left, right, node, state)
        if isinstance(node, CrossJoinNode):
            left = self._execute_source(node.left, state)
            right = self._execute_source(node.right, state)
            return self._cross_join(left, right, state)
        if isinstance(node, FilterNode):
            batch = self._execute_source(node.input, state)
            batch = self._apply_filters(batch, node.filters, state)
            return self._apply_raw_edges(batch, node.raw_edges, state)
        raise ExecutionError(f"unknown plan node {type(node).__name__}")

    def _apply_filters(self, batch: Batch, filters, state: ExecState) -> Batch:
        for pushed in filters:
            if batch.n == 0:
                break
            ctx = EvalContext(batch, None, state.subqueries)
            values = pushed.fn(ctx)
            positions = [j for j, value in enumerate(values) if value is True]
            batch = batch.take(positions, monotonic=True)
            state.batches += 1
        return batch

    def _apply_raw_edges(self, batch: Batch, edges, state: ExecState) -> Batch:
        for edge in edges:
            if batch.n == 0:
                break
            left = batch.column(edge.left_binding, edge.left_position)
            right = batch.column(edge.right_binding, edge.right_position)
            # Raw hash-key equality: Python ``==`` with the same identity
            # shortcut dict probing has, NULLs never match.
            positions = [
                j
                for j in range(batch.n)
                if left[j] is not None
                and right[j] is not None
                and (left[j] is right[j] or left[j] == right[j])
            ]
            batch = batch.take(positions, monotonic=True)
            state.batches += 1
        return batch

    def _hash_join(
        self, left: Batch, right: Batch, node: JoinNode, state: ExecState
    ) -> Batch:
        keys = node.keys
        left_columns = [
            left.column(k.left_binding, k.left_position) for k in keys
        ]
        right_columns = [
            right.column(k.right_binding, k.right_position) for k in keys
        ]
        raw = [k.semantics == RAW for k in keys]

        if len(keys) == 1:
            right_node = node.right
            if (
                isinstance(right_node, ScanNode)
                and not right_node.filters
                and len(right.views) == 1
                and right.views[0].full
            ):
                # Unfiltered scan build side: positions are row ids, so the
                # index is shareable across executions (built per version).
                is_raw = raw[0]
                index = self.store.join_index(
                    right_node.table,
                    keys[0].right_position,
                    is_raw,
                    lambda column: _build_single(column, is_raw),
                )
            else:
                index = _build_single(right_columns[0], raw[0])
            probe = _probe_column(left_columns[0], raw[0])
        else:
            index = {}
            for j in range(right.n):
                key = _join_key(right_columns, raw, j)
                if key is not None:
                    index.setdefault(key, []).append(j)
            probe = [_join_key(left_columns, raw, i) for i in range(left.n)]

        left_positions: list[int] = []
        right_positions: list[int] = []
        append_left = left_positions.append
        append_right = right_positions.append
        get = index.get
        for i, key in enumerate(probe):
            if key is None:
                continue
            matches = get(key)
            if matches is None:
                continue
            for j in matches:
                append_left(i)
                append_right(j)
            if len(left_positions) > MAX_INTERMEDIATE_ROWS:
                raise ExecutionError("join result too large")
        state.rows_joined += len(left_positions)
        return self._combine(left, right, left_positions, right_positions, state)

    def _cross_join(self, left: Batch, right: Batch, state: ExecState) -> Batch:
        if left.n * max(right.n, 1) > MAX_INTERMEDIATE_ROWS:
            raise ExecutionError("cartesian product too large")
        left_positions = [i for i in range(left.n) for _ in range(right.n)]
        right_positions = list(range(right.n)) * left.n
        state.rows_joined += len(left_positions)
        return self._combine(left, right, left_positions, right_positions, state)

    def _combine(
        self,
        left: Batch,
        right: Batch,
        left_positions: list[int],
        right_positions: list[int],
        state: ExecState,
    ) -> Batch:
        views = [view.take(left_positions) for view in left.views]
        views.extend(view.take(right_positions) for view in right.views)
        max_left_decl = max((view.decl for view in left.views), default=-1)
        min_right_decl = min((view.decl for view in right.views), default=-1)
        canonical = (
            left.canonical and right.canonical and min_right_decl > max_left_decl
        )
        state.batches += 1
        return Batch(views, len(left_positions), canonical)

    # -- plain path --------------------------------------------------------------

    def _plain(self, splan: SelectPlan, batch: Batch, state: ExecState) -> Result:
        select = splan.select
        ctx = EvalContext(batch, None, state.subqueries)
        order_fns = splan.stages.get("order_fns")
        if order_fns:
            ctx = ctx.take(_sort_positions(ctx, order_fns), monotonic=False)
        projected = _project(splan.stages["projection"], ctx)
        if select.distinct:
            projected = _dedupe(projected)
        if select.limit is not None:
            projected = projected[: select.limit]
        return Result(columns=splan.labels, rows=projected)

    # -- aggregate path ----------------------------------------------------------

    def _aggregate(self, splan: SelectPlan, batch: Batch, state: ExecState) -> Result:
        select = splan.select
        stages = splan.stages
        ctx = EvalContext(batch, None, state.subqueries)

        group_fns = stages.get("group_fns") or []
        groups: dict = {}
        if len(group_fns) == 1:
            canon = [_canonical(value) for value in group_fns[0](ctx)]
            for j, key in enumerate(canon):
                groups.setdefault(key, []).append(j)
        elif group_fns:
            key_vectors = [
                [_canonical(value) for value in fn(ctx)] for fn in group_fns
            ]
            for j, key in enumerate(zip(*key_vectors)):
                groups.setdefault(key, []).append(j)
        else:
            groups[()] = list(range(batch.n))  # single implicit group

        agg_nodes = stages.get("agg_nodes", [])
        arg_fns = stages.get("agg_arg_fns", {})
        arg_vectors = {node: fn(ctx) for node, fn in arg_fns.items()}

        member_lists = list(groups.values())
        aggenv: dict[ast.FuncCall, list] = {node: [] for node in agg_nodes}
        for members in member_lists:
            for node in agg_nodes:
                name = node.name.lower()
                if node.args and isinstance(node.args[0], ast.Star):
                    if name != "count":
                        raise ExecutionError(f"{name.upper()}(*) is not valid")
                    aggenv[node].append(len(members))
                    continue
                vector = arg_vectors[node]
                values = [vector[j] for j in members]
                aggenv[node].append(AGGREGATES[name](values, distinct=node.distinct))

        # Representative rows: the first member of each group (first-seen
        # group order == ascending first positions, so the take is monotonic);
        # an empty global group reads as one all-NULL row.
        if member_lists and not member_lists[0] and not group_fns:
            rep_batch = batch.null_row()
        else:
            rep_batch = batch.take(
                [members[0] for members in member_lists], monotonic=True
            )
        state.batches += 1
        ctx = EvalContext(rep_batch, aggenv, state.subqueries)

        having_fn = stages.get("having_fn")
        if having_fn is not None:
            values = having_fn(ctx)
            ctx = ctx.take([j for j, value in enumerate(values) if value is True])

        order_fns = stages.get("order_fns")
        if order_fns:
            ctx = ctx.take(_sort_positions(ctx, order_fns), monotonic=False)

        projected = _project(stages["projection"], ctx)
        if select.distinct:
            projected = _dedupe(projected)
        if select.limit is not None:
            projected = projected[: select.limit]
        return Result(columns=splan.labels, rows=projected)


# -- stage helpers ---------------------------------------------------------------


def _build_single(column: list, is_raw: bool) -> dict:
    """Single-key build side: value -> positions (NULLs never match; CI
    keys lower text and drop NaN, mirroring ``_compare`` equality)."""
    index: dict = {}
    if is_raw:
        for j, value in enumerate(column):
            if value is not None:
                index.setdefault(value, []).append(j)
        return index
    for j, value in enumerate(column):
        if value is None:
            continue
        if isinstance(value, str):
            value = value.lower()
        elif isinstance(value, float) and value != value:
            continue
        index.setdefault(value, []).append(j)
    return index


def _probe_column(column: list, is_raw: bool) -> list:
    """Single-key probe side: transformed keys, None where no match is
    possible."""
    if is_raw:
        return column
    out = []
    for value in column:
        if isinstance(value, str):
            out.append(value.lower())
        elif isinstance(value, float) and value != value:
            out.append(None)
        else:
            out.append(value)
    return out


def _join_key(columns: list[list], raw: list[bool], j: int):
    """The hash key of row ``j``, or None when it cannot match anything.

    Raw components keep the value untouched (Python dict equality — exactly
    the row engine's hash-join keying).  CI components mirror ``_compare``
    equality: text lowers, numbers and bools unify under Python ``==``
    already, and NaN (never equal under ``_compare``) drops the row.
    """
    parts = []
    for column, is_raw in zip(columns, raw):
        value = column[j]
        if value is None:
            return None
        if not is_raw:
            if isinstance(value, str):
                value = value.lower()
            elif isinstance(value, float) and value != value:
                return None
        parts.append(value)
    return tuple(parts)


def _project(projection, ctx: EvalContext) -> list[tuple]:
    columns = []
    for item in projection:
        if item[0] == "slot":
            columns.append(ctx.column(item[1], item[2]))
        else:
            columns.append(item[1](ctx))
    if not columns:
        return [()] * ctx.n
    if len(columns) == 1:
        return [(value,) for value in columns[0]]
    return list(zip(*columns))


def _sort_positions(ctx: EvalContext, order_fns) -> list[int]:
    components = [
        [_sort_component(value, desc) for value in fn(ctx)]
        for fn, desc in order_fns
    ]
    if len(components) == 1:
        keys = components[0]
    else:
        keys = list(zip(*components))
    return sorted(range(ctx.n), key=keys.__getitem__)

