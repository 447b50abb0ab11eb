"""Pass 2 — type checking.

Rules
-----
``type.incompatible-comparison``  comparing numeric against textual operands
``type.math-on-non-numeric``      arithmetic over TEXT/DATE operands (fatal
                                  at execution time)
``type.like-non-text``            LIKE over a non-text column or pattern
``type.aggregate-non-numeric``    SUM/AVG over TEXT/DATE (fatal at execution)
``type.between-reversed``         literal BETWEEN bounds with low > high
``type.non-aggregatable``         SUM/AVG over an identifier column the
                                  enhanced schema marks non-aggregatable
                                  (executable but meaningless — the paper's
                                  ``AVG(specobjid)`` anti-example)
"""

from __future__ import annotations

from repro.sql import ast
from repro.sql.printer import to_sql
from repro.analysis.analyzer import AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.scope import (
    Scope,
    clause_exprs,
    infer_type,
    is_textual_type,
    types_comparable,
)

_ORDERED_OPS = {"=", "!=", "<", ">", "<=", ">="}


def check(ctx: AnalysisContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for core in ctx.cores:
        for clause, expr in clause_exprs(core.select):
            path = f"{core.path}.{clause}"
            for node in ast.walk_local(expr):
                diagnostics.extend(_check_node(node, core.scope, ctx, path))
    return diagnostics


def _check_node(
    node: ast.Node, scope: Scope, ctx: AnalysisContext, path: str
) -> list[Diagnostic]:
    if isinstance(node, ast.Comparison):
        if node.op in _ORDERED_OPS:
            return _check_comparison(node, scope, ctx, path)
        return _check_like(node, scope, ctx, path)
    if isinstance(node, ast.BinaryOp):
        return _check_math(node, (node.left, node.right), scope, ctx, path)
    if isinstance(node, ast.UnaryMinus):
        return _check_math(node, (node.operand,), scope, ctx, path)
    if isinstance(node, ast.FuncCall):
        return _check_aggregate_arg(node, scope, ctx, path)
    if isinstance(node, ast.Between):
        return _check_between(node, scope, ctx, path)
    return []


def _check_comparison(
    node: ast.Comparison, scope: Scope, ctx: AnalysisContext, path: str
) -> list[Diagnostic]:
    left = infer_type(node.left, scope, ctx.env)
    right = infer_type(node.right, scope, ctx.env)
    if left is None or right is None or types_comparable(left, right):
        return []
    return [
        Diagnostic(
            rule="type.incompatible-comparison",
            severity=Severity.ERROR,
            message=(
                f"cannot compare {left.value} with {right.value} "
                f"in '{to_sql(node)}'"
            ),
            path=path,
        )
    ]


def _check_like(
    node: ast.Comparison, scope: Scope, ctx: AnalysisContext, path: str
) -> list[Diagnostic]:
    diagnostics = []
    left = infer_type(node.left, scope, ctx.env)
    if left is not None and not is_textual_type(left):
        diagnostics.append(
            Diagnostic(
                rule="type.like-non-text",
                severity=Severity.ERROR,
                message=f"LIKE over {left.value} operand in '{to_sql(node)}'",
                path=path,
            )
        )
    right = infer_type(node.right, scope, ctx.env)
    if right is not None and not is_textual_type(right):
        diagnostics.append(
            Diagnostic(
                rule="type.like-non-text",
                severity=Severity.ERROR,
                message=f"LIKE pattern is {right.value} in '{to_sql(node)}'",
                path=path,
            )
        )
    return diagnostics


def _check_math(
    node: ast.Expr, operands: tuple[ast.Expr, ...], scope: Scope,
    ctx: AnalysisContext, path: str,
) -> list[Diagnostic]:
    diagnostics = []
    for operand in operands:
        operand_type = infer_type(operand, scope, ctx.env)
        if operand_type is not None and is_textual_type(operand_type):
            diagnostics.append(
                Diagnostic(
                    rule="type.math-on-non-numeric",
                    severity=Severity.ERROR,
                    message=(
                        f"arithmetic over {operand_type.value} operand "
                        f"'{to_sql(operand)}'"
                    ),
                    path=path,
                )
            )
    return diagnostics


def _check_aggregate_arg(
    node: ast.FuncCall, scope: Scope, ctx: AnalysisContext, path: str
) -> list[Diagnostic]:
    name = node.name.lower()
    if name not in ("sum", "avg") or not node.args:
        return []
    arg = node.args[0]
    if isinstance(arg, ast.Star):
        return []
    arg_type = infer_type(arg, scope, ctx.env)
    if arg_type is not None and is_textual_type(arg_type):
        return [
            Diagnostic(
                rule="type.aggregate-non-numeric",
                severity=Severity.ERROR,
                message=f"{name.upper()} over {arg_type.value} column '{to_sql(arg)}'",
                path=path,
            )
        ]
    diagnostics = []
    if ctx.enhanced is not None and isinstance(arg, ast.ColumnRef):
        resolution = scope.resolve(arg)
        if (
            resolution.ok
            and resolution.binding is not None
            and resolution.binding.kind == "base"
            and resolution.binding.table is not None
        ):
            table = resolution.binding.table.name
            annotation = ctx.enhanced.annotation(table, arg.column)
            if not annotation.aggregatable:
                diagnostics.append(
                    Diagnostic(
                        rule="type.non-aggregatable",
                        severity=Severity.INFO,
                        message=(
                            f"{name.upper()} over identifier-like column "
                            f"{table}.{arg.column} is meaningless"
                        ),
                        path=path,
                    )
                )
    return diagnostics


def _check_between(
    node: ast.Between, scope: Scope, ctx: AnalysisContext, path: str
) -> list[Diagnostic]:
    diagnostics = []
    expr_type = infer_type(node.expr, scope, ctx.env)
    for bound in (node.low, node.high):
        bound_type = infer_type(bound, scope, ctx.env)
        if (
            expr_type is not None
            and bound_type is not None
            and not types_comparable(expr_type, bound_type)
        ):
            diagnostics.append(
                Diagnostic(
                    rule="type.incompatible-comparison",
                    severity=Severity.ERROR,
                    message=(
                        f"BETWEEN bound '{to_sql(bound)}' ({bound_type.value}) "
                        f"does not match {expr_type.value} operand"
                    ),
                    path=path,
                )
            )
    low = _literal_value(node.low)
    high = _literal_value(node.high)
    if low is not None and high is not None:
        try:
            reversed_bounds = low > high
        except TypeError:
            reversed_bounds = False
        if reversed_bounds:
            diagnostics.append(
                Diagnostic(
                    rule="type.between-reversed",
                    severity=Severity.WARNING,
                    message=f"BETWEEN bounds reversed: {low!r} > {high!r}",
                    path=path,
                )
            )
    return diagnostics


def _literal_value(expr: ast.Expr):
    if isinstance(expr, ast.Literal) and not isinstance(expr.value, bool):
        return expr.value
    if isinstance(expr, ast.UnaryMinus) and isinstance(expr.operand, ast.Literal):
        value = expr.operand.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return -value
    return None
