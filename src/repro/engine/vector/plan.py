"""Explainable plan trees for the vector engine.

The planner compiles one :class:`QueryPlan` per SQL query: a left-deep tree
of source nodes (scans, hash joins, cross joins, filters) per SELECT core,
wrapped by the core's aggregate/sort/projection stages.  Every node carries
the planner's cardinality estimate, so ``sciencebenchmark explain`` renders
the full costed tree, and a stable ``plan_hash`` (BLAKE2b over the rendered
shape, estimates excluded) identifies the plan on ``engine.plan`` spans and
in benchmark reports.

The same tree is what the executor walks — there is no second, hidden plan
representation, so what ``explain`` prints is exactly what runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.sql import ast
from repro.sql.printer import to_sql
from repro.engine.vector.vexpr import VCompiled

#: Edge/filter semantics: "raw" mirrors the row engine's hash-join keying
#: (Python equality, NULLs drop); "ci" mirrors ``_compare`` equality
#: (numbers unify, text case-insensitive).
RAW = "raw"
CI = "ci"


@dataclass
class PushedFilter:
    """One conjunct pushed down to a scan (or applied post-join)."""

    expr: ast.Expr | None
    fn: VCompiled
    selectivity: float
    label: str = ""

    def describe(self) -> str:
        if self.expr is None:
            return self.label
        return to_sql(self.expr)


@dataclass
class EdgeKey:
    """One equality key of a hash join: left/right (binding, column position)."""

    left_binding: str
    left_position: int
    right_binding: str
    right_position: int
    semantics: str  # RAW | CI
    label: str = ""

    def describe(self) -> str:
        return self.label or (
            f"{self.left_binding}[{self.left_position}] = "
            f"{self.right_binding}[{self.right_position}]"
        )


@dataclass
class ScanNode:
    """A base-table scan with pushed-down filters."""

    binding: str
    table: str
    decl: int
    filters: list[PushedFilter] = field(default_factory=list)
    base_rows: int = 0
    est_rows: float = 0.0
    #: Runtime memo ``(data_version, row_ids)``: the filters' combined
    #: selection, reusable while the database contents are unchanged.
    selection_cache: tuple[int, list[int]] | None = field(
        default=None, repr=False
    )

    def describe(self) -> str:
        note = f" filters=[{', '.join(f.describe() for f in self.filters)}]" if self.filters else ""
        return (
            f"Scan {self.table}"
            + (f" AS {self.binding}" if self.binding != self.table.lower() else "")
            + note
        )

    def shape(self) -> str:
        return f"Scan {self.table} {self.binding} [{';'.join(f.describe() for f in self.filters)}]"

    def children(self):
        return ()


@dataclass
class SubqueryScanNode:
    """A derived table in FROM, planned as a nested :class:`QueryPlan`."""

    binding: str
    decl: int
    plan: "QueryPlan"
    filters: list[PushedFilter] = field(default_factory=list)
    est_rows: float = 0.0

    def describe(self) -> str:
        note = f" filters=[{', '.join(f.describe() for f in self.filters)}]" if self.filters else ""
        return f"SubqueryScan {self.binding}{note}"

    def shape(self) -> str:
        return f"SubqueryScan {self.binding} ({self.plan.shape()})"

    def children(self):
        return ()


@dataclass
class JoinNode:
    """A hash join: probe the accumulated left side, build on the right scan."""

    left: "SourceNode"
    right: "ScanNode | SubqueryScanNode"
    keys: list[EdgeKey]
    est_rows: float = 0.0

    def describe(self) -> str:
        keys = ", ".join(k.describe() for k in self.keys)
        return f"HashJoin keys=[{keys}]"

    def shape(self) -> str:
        keys = ";".join(
            f"{k.left_binding}.{k.left_position}={k.right_binding}.{k.right_position}/{k.semantics}"
            for k in self.keys
        )
        return f"HashJoin[{keys}]({self.left.shape()},{self.right.shape()})"

    def children(self):
        return (self.left, self.right)


@dataclass
class CrossJoinNode:
    """A cross product (no usable equality edge)."""

    left: "SourceNode"
    right: "SourceNode"
    est_rows: float = 0.0

    def describe(self) -> str:
        return "CrossJoin"

    def shape(self) -> str:
        return f"CrossJoin({self.left.shape()},{self.right.shape()})"

    def children(self):
        return (self.left, self.right)


@dataclass
class FilterNode:
    """Residual predicates applied at the earliest point their bindings exist."""

    input: "SourceNode"
    filters: list[PushedFilter] = field(default_factory=list)
    raw_edges: list[EdgeKey] = field(default_factory=list)
    est_rows: float = 0.0

    def describe(self) -> str:
        parts = [f.describe() for f in self.filters]
        parts.extend(f"{k.describe()} (raw)" for k in self.raw_edges)
        return f"Filter ({' AND '.join(parts)})"

    def shape(self) -> str:
        parts = [f.describe() for f in self.filters]
        parts.extend(k.describe() + "/raw" for k in self.raw_edges)
        return f"Filter[{';'.join(parts)}]({self.input.shape()})"

    def children(self):
        return (self.input,)


#: Every node shape a SELECT core's source tree is built from.
SourceNode = ScanNode | SubqueryScanNode | JoinNode | CrossJoinNode | FilterNode


@dataclass
class SelectPlan:
    """One planned SELECT core: the source tree plus its select stages."""

    select: ast.Select
    source: "SourceNode | None"  # None for a FROM-less select
    aggregate: bool
    labels: list[str]
    est_rows: float = 0.0
    #: Set when the planner reordered joins and the final batch must be
    #: sorted back into declaration-order row ids before projection.
    needs_restore: bool = False
    #: Conjuncts that can raise on a row's values, applied after the joins
    #: and the order restore, in the row engine's evaluation order.
    late_filters: list[PushedFilter] = field(default_factory=list)
    # Compiled stage payloads, attached by the planner (opaque to render).
    stages: dict = field(default_factory=dict)

    def describe_stages(self) -> list[str]:
        select = self.select
        lines = []
        if select.limit is not None:
            lines.append(f"Limit {select.limit}")
        if select.distinct:
            lines.append("Distinct")
        lines.append(f"Project [{', '.join(self.labels)}]")
        if select.order_by:
            keys = ", ".join(
                to_sql(o.expr) + (" DESC" if o.desc else "") for o in select.order_by
            )
            lines.append(f"Sort [{keys}]")
        if self.aggregate:
            groups = ", ".join(to_sql(e) for e in select.group_by)
            aggs = ", ".join(
                to_sql(node) for node in self.stages.get("agg_nodes", ())
            )
            having = f" having=({to_sql(select.having)})" if select.having is not None else ""
            lines.append(
                f"Aggregate groups=[{groups}] aggs=[{aggs}]{having}"
            )
        if self.late_filters:
            conjuncts = " AND ".join(f.describe() for f in self.late_filters)
            lines.append(f"LateFilter ({conjuncts})")
        if self.needs_restore:
            lines.append("RestoreOrder [declaration-order row ids]")
        return lines

    def shape(self) -> str:
        source = self.source.shape() if self.source is not None else "Unit"
        return "|".join(self.describe_stages()) + "<-" + source


@dataclass
class QueryPlan:
    """A full planned query: one SELECT core plus at most one set operation."""

    select_plan: SelectPlan
    set_op: str | None = None
    right: "QueryPlan | None" = None
    set_all: bool = False
    sql: str | None = None

    def shape(self) -> str:
        text = self.select_plan.shape()
        if self.set_op is not None and self.right is not None:
            text += f"|{self.set_op}{'-all' if self.set_all else ''}|{self.right.shape()}"
        return text

    @property
    def plan_hash(self) -> str:
        return hashlib.blake2b(self.shape().encode(), digest_size=6).hexdigest()

    def render(self) -> str:
        lines: list[str] = [f"plan {self.plan_hash}"]
        self._render_into(lines, 0)
        return "\n".join(lines)

    def _render_into(self, lines: list[str], depth: int) -> None:
        indent = "  " * depth
        stage_depth = depth
        for stage in self.select_plan.describe_stages():
            lines.append("  " * stage_depth + stage)
            stage_depth += 1
        source = self.select_plan.source
        if source is None:
            lines.append("  " * stage_depth + "Unit [no FROM]")
        else:
            _render_source(source, lines, stage_depth)
        if self.set_op is not None and self.right is not None:
            lines.append(f"{indent}{self.set_op.upper()}{' ALL' if self.set_all else ''}")
            self.right._render_into(lines, depth + 1)


def _render_source(node, lines: list[str], depth: int) -> None:
    est = getattr(node, "est_rows", None)
    note = f"  (est {est:.0f} rows)" if est is not None else ""
    base = getattr(node, "base_rows", None)
    if base is not None:
        note = f"  (est {est:.0f}/{base} rows)"
    lines.append("  " * depth + node.describe() + note)
    for child in node.children():
        if isinstance(child, SubqueryScanNode):
            _render_source(child, lines, depth + 1)
        elif hasattr(child, "children"):
            _render_source(child, lines, depth + 1)
    if isinstance(node, SubqueryScanNode):
        node.plan._render_into(lines, depth + 1)
