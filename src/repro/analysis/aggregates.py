"""Pass 4 — aggregate / GROUP BY correctness.

Rules
-----
``agg.aggregate-in-where``      aggregates inside WHERE (execution-fatal)
``agg.aggregate-in-group-by``   aggregates as grouping keys
``agg.nested-aggregate``        an aggregate inside another aggregate's
                                arguments (execution-fatal)
``agg.having-without-group-by`` HAVING on an ungrouped, unaggregated core
``agg.ungrouped-column``        a bare column in SELECT/HAVING/ORDER BY that
                                is not a grouping key (warning: the executor
                                picks an arbitrary row, SQLite-style)
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.sql import ast
from repro.sql.printer import to_sql
from repro.analysis.analyzer import AnalysisContext, SelectContext
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.scope import Scope


def check(ctx: AnalysisContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for core in ctx.cores:
        diagnostics.extend(_check_core(core))
    return diagnostics


def _check_core(core: SelectContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    select = core.select
    scope = core.scope

    if select.where is not None:
        for call in _aggregate_calls(select.where):
            diagnostics.append(
                Diagnostic(
                    rule="agg.aggregate-in-where",
                    severity=Severity.ERROR,
                    message=f"aggregate '{to_sql(call)}' in WHERE clause",
                    path=f"{core.path}.where",
                )
            )

    for i, key in enumerate(select.group_by):
        for call in _aggregate_calls(key):
            diagnostics.append(
                Diagnostic(
                    rule="agg.aggregate-in-group-by",
                    severity=Severity.ERROR,
                    message=f"aggregate '{to_sql(call)}' as a GROUP BY key",
                    path=f"{core.path}.group_by[{i}]",
                )
            )

    for clause, expr in _all_clauses(select):
        for call in _aggregate_calls(expr):
            for arg in call.args:
                inner = list(_aggregate_calls(arg))
                if inner:
                    diagnostics.append(
                        Diagnostic(
                            rule="agg.nested-aggregate",
                            severity=Severity.ERROR,
                            message=(
                                f"aggregate '{to_sql(inner[0])}' nested inside "
                                f"'{call.name.upper()}'"
                            ),
                            path=f"{core.path}.{clause}",
                        )
                    )

    if select.having is not None and not select.group_by:
        diagnostics.append(
            Diagnostic(
                rule="agg.having-without-group-by",
                severity=Severity.WARNING,
                message="HAVING without GROUP BY acts on a single global group",
                path=f"{core.path}.having",
            )
        )

    diagnostics.extend(_check_grouping(core, select, scope))
    return diagnostics


def _check_grouping(
    core: SelectContext, select: ast.Select, scope: Scope
) -> list[Diagnostic]:
    has_aggregate = any(
        list(_aggregate_calls(expr)) for _, expr in _all_clauses(select)
    )
    if not select.group_by and not has_aggregate:
        return []
    if not select.group_by and not any(
        list(_aggregate_calls(item.expr)) for item in select.items
    ):
        # Aggregates only in ORDER BY over an ungrouped select — the
        # executor evaluates them over the whole result; leave it alone.
        return []

    keys = {_canonical(key, scope) for key in select.group_by}
    diagnostics = []
    clauses: list[tuple[str, ast.Expr]] = [
        (f"items[{i}]", item.expr) for i, item in enumerate(select.items)
    ]
    if select.having is not None:
        clauses.append(("having", select.having))
    for i, item in enumerate(select.order_by):
        clauses.append((f"order_by[{i}]", item.expr))
    for clause, expr in clauses:
        if _canonical(expr, scope) in keys:
            continue
        for ref in _bare_columns(expr):
            if _canonical(ref, scope) in keys:
                continue
            diagnostics.append(
                Diagnostic(
                    rule="agg.ungrouped-column",
                    severity=Severity.WARNING,
                    message=(
                        f"column {ref!s} is neither aggregated nor a "
                        f"GROUP BY key; execution picks an arbitrary row"
                    ),
                    path=f"{core.path}.{clause}",
                )
            )
    return diagnostics


def _all_clauses(select: ast.Select) -> Iterator[tuple[str, ast.Expr]]:
    for i, item in enumerate(select.items):
        yield f"items[{i}]", item.expr
    if select.where is not None:
        yield "where", select.where
    for i, key in enumerate(select.group_by):
        yield f"group_by[{i}]", key
    if select.having is not None:
        yield "having", select.having
    for i, item in enumerate(select.order_by):
        yield f"order_by[{i}]", item.expr


def _aggregate_calls(expr: ast.Expr) -> Iterator[ast.FuncCall]:
    for node in ast.walk_local(expr):
        if isinstance(node, ast.FuncCall) and node.name.lower() in ast.AGGREGATE_FUNCTIONS:
            yield node


def _bare_columns(expr: ast.Expr) -> Iterator[ast.ColumnRef]:
    """Column references not nested inside an aggregate call."""
    if isinstance(expr, ast.ColumnRef):
        yield expr
        return
    if isinstance(expr, ast.FuncCall) and expr.name.lower() in ast.AGGREGATE_FUNCTIONS:
        return
    for child in expr.children():
        if isinstance(child, (ast.Query,)):
            continue
        if isinstance(child, ast.Expr):
            yield from _bare_columns(child)


def _canonical(expr: ast.Expr, scope: Scope) -> str:
    """Normalised text of an expression for grouping-key comparison.

    Column references are canonicalised through resolution so ``T1.x``,
    ``x`` and ``X`` compare equal when they denote the same column.
    """
    if isinstance(expr, ast.ColumnRef):
        resolution = scope.resolve(expr)
        if resolution.status in ("ok", "ambiguous") and resolution.binding is not None:
            return f"{resolution.binding.name}.{expr.column}".lower()
    return to_sql(expr).lower()
