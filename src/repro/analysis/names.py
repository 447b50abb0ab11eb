"""Pass 1 — name resolution.

Rules
-----
``name.unknown-table``      FROM/JOIN references a table the schema lacks
``name.duplicate-binding``  two FROM sources share one visible name
``name.unknown-column``     a column reference resolves to no binding
``name.dangling-alias``     a qualifier (``X.col``) matches no binding
``name.ambiguous-column``   an unqualified column exists in several bindings
                            (warning: the executor silently takes the first)
"""

from __future__ import annotations

from repro.sql import ast
from repro.analysis.analyzer import AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.scope import clause_exprs


def check(ctx: AnalysisContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for core in ctx.cores:
        scope = core.scope
        for table in scope.unknown_tables:
            diagnostics.append(
                Diagnostic(
                    rule="name.unknown-table",
                    severity=Severity.ERROR,
                    message=f"unknown table {table!r}",
                    path=core.path,
                )
            )
        for name in scope.duplicates:
            diagnostics.append(
                Diagnostic(
                    rule="name.duplicate-binding",
                    severity=Severity.ERROR,
                    message=f"duplicate table binding {name!r}",
                    path=core.path,
                )
            )
        for clause, expr in clause_exprs(core.select):
            path = f"{core.path}.{clause}"
            for node in ast.walk_local(expr):
                if isinstance(node, ast.ColumnRef):
                    diagnostics.extend(_check_ref(node, scope, path))
                elif isinstance(node, ast.Star) and node.table is not None:
                    if scope.resolve_binding(node.table) is None:
                        diagnostics.append(_dangling(node.table, path))
    return diagnostics


def _check_ref(ref: ast.ColumnRef, scope, path: str) -> list[Diagnostic]:
    resolution = scope.resolve(ref)
    if resolution.status == "unknown-binding":
        return [_dangling(ref.table or "", path)]
    if resolution.status == "unknown-column":
        return [
            Diagnostic(
                rule="name.unknown-column",
                severity=Severity.ERROR,
                message=f"unknown column {ref!s}",
                path=path,
            )
        ]
    if resolution.status == "ambiguous":
        bindings = ", ".join(resolution.matches)
        return [
            Diagnostic(
                rule="name.ambiguous-column",
                severity=Severity.WARNING,
                message=(
                    f"unqualified column {ref.column!r} exists in several "
                    f"bindings ({bindings}); execution takes the first"
                ),
                path=path,
            )
        ]
    return []


def _dangling(qualifier: str, path: str) -> Diagnostic:
    return Diagnostic(
        rule="name.dangling-alias",
        severity=Severity.ERROR,
        message=f"qualifier {qualifier!r} is not a table or alias in scope",
        path=path,
    )
