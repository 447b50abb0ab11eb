"""Pass 3 — join validity.

Rules
-----
``join.non-fk-equijoin``    an ON equality joins two base tables along an
                            edge the schema does not declare as a foreign key
``join.cartesian-product``  the FROM sources do not form one connected
                            component under the available equality edges
                            (ON conditions plus WHERE conjuncts)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schema.model import Schema
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.analysis.analyzer import AnalysisContext, SelectContext
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.scope import Scope


@dataclass(frozen=True)
class _Equality:
    """One ``a.x = b.y`` edge between two distinct local bindings."""

    left_binding: str
    left_table: str | None  # base table name, None for derived bindings
    left_column: str
    right_binding: str
    right_table: str | None
    right_column: str


def check(ctx: AnalysisContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for core in ctx.cores:
        diagnostics.extend(_check_core(core, ctx.schema))
    return diagnostics


def _check_core(core: SelectContext, schema: Schema) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    scope = core.scope
    select = core.select

    # FK conformance of each explicit join condition.
    for i, join in enumerate(select.joins):
        if join.condition is None:
            continue
        equalities = _binding_equalities(join.condition, scope)
        base_pairs = [e for e in equalities if e.left_table and e.right_table]
        if not base_pairs:
            continue
        if not any(_is_fk_edge(schema, e) for e in base_pairs):
            diagnostics.append(
                Diagnostic(
                    rule="join.non-fk-equijoin",
                    severity=Severity.WARNING,
                    message=(
                        f"join condition '{to_sql(join.condition)}' does not "
                        f"follow a declared foreign key"
                    ),
                    path=f"{core.path}.joins[{i}]",
                )
            )

    # Connectivity: every binding must be reachable through equality edges.
    bindings = list(scope.bindings)
    if len(bindings) > 1:
        parent = {name: name for name in bindings}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        edges: list[_Equality] = []
        for join in select.joins:
            if join.condition is not None:
                edges.extend(_binding_equalities(join.condition, scope))
        for conjunct in ast.conjuncts(select.where):
            edges.extend(_binding_equalities(conjunct, scope))
        for edge in edges:
            parent[find(edge.left_binding.lower())] = find(edge.right_binding.lower())
        roots = dict.fromkeys(find(name) for name in bindings)
        if len(roots) > 1:
            detached = sorted(scope.bindings[root].name for root in roots)[1:]
            diagnostics.append(
                Diagnostic(
                    rule="join.cartesian-product",
                    severity=Severity.WARNING,
                    message=(
                        "FROM sources are not connected by any join "
                        f"condition (detached: {', '.join(detached)})"
                    ),
                    path=core.path,
                )
            )
    return diagnostics


def _binding_equalities(condition: ast.Expr, scope: Scope) -> list[_Equality]:
    """All ``col = col`` equalities between two distinct local bindings."""
    local = {id(b): b for b in scope.bindings.values()}
    equalities = []
    for node in ast.walk_local(condition):
        if not (isinstance(node, ast.Comparison) and node.op == "="):
            continue
        if not (
            isinstance(node.left, ast.ColumnRef)
            and isinstance(node.right, ast.ColumnRef)
        ):
            continue
        left = scope.resolve(node.left)
        right = scope.resolve(node.right)
        if not (left.ok and right.ok):
            continue
        if left.binding is None or right.binding is None:
            continue
        if left.binding is right.binding:
            continue
        # A correlated reference to an outer binding is not a local edge.
        if id(left.binding) not in local or id(right.binding) not in local:
            continue
        equalities.append(
            _Equality(
                left_binding=left.binding.name,
                left_table=left.binding.table.name
                if left.binding.kind == "base" and left.binding.table is not None
                else None,
                left_column=node.left.column,
                right_binding=right.binding.name,
                right_table=right.binding.table.name
                if right.binding.kind == "base" and right.binding.table is not None
                else None,
                right_column=node.right.column,
            )
        )
    return equalities


def _is_fk_edge(schema: Schema, equality: _Equality) -> bool:
    """Whether the equality matches a declared FK edge, in either direction."""
    left = (equality.left_table or "").lower(), equality.left_column.lower()
    right = (equality.right_table or "").lower(), equality.right_column.lower()
    for fk in schema.foreign_keys:
        source = fk.table.lower(), fk.column.lower()
        target = fk.ref_table.lower(), fk.ref_column.lower()
        if (left, right) in ((source, target), (target, source)):
            return True
    return False
