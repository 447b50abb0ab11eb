"""The analyzer driver: parse, build scopes, run every pass.

:func:`analyze` is the single public entry point.  It accepts SQL text or an
already-parsed :class:`~repro.sql.ast.Query`, builds a scope for every SELECT
core (including all subqueries), and runs the five passes in a fixed order:
name resolution, type checking, join validity, aggregate correctness and
cost/cardinality heuristics.  Parse failures become a ``syntax.error``
diagnostic instead of an exception, so callers can treat "does not parse"
uniformly with the other findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SqlSyntaxError
from repro.schema.enhanced import EnhancedSchema
from repro.schema.model import Schema
from repro.sql import ast, parse
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.scope import Scope, TypeEnv, clause_exprs


@dataclass
class SelectContext:
    """One SELECT core with its scope and position in the query."""

    select: ast.Select
    scope: Scope
    path: str


@dataclass
class AnalysisContext:
    """Everything the passes need: the query, schemas and all scopes."""

    query: ast.Query
    schema: Schema
    enhanced: EnhancedSchema | None
    cores: list[SelectContext] = field(default_factory=list)
    env: TypeEnv = field(default_factory=TypeEnv)

    def scope_of(self, select: ast.Select) -> Scope:
        return self.env.scopes[id(select)]


def build_context(
    query: ast.Query, schema: Schema, enhanced: EnhancedSchema | None = None
) -> AnalysisContext:
    """Build scopes for every SELECT core reachable from ``query``."""
    ctx = AnalysisContext(query=query, schema=schema, enhanced=enhanced)

    def visit_query(q: ast.Query, path: str, parent: Scope | None) -> None:
        visit_select(q.select, f"{path}.select", parent)
        if q.right is not None:
            visit_query(q.right, f"{path}.right", parent)

    def visit_select(select: ast.Select, path: str, parent: Scope | None) -> None:
        scope = Scope(select, schema, parent)
        ctx.env.scopes[id(select)] = scope
        ctx.cores.append(SelectContext(select=select, scope=scope, path=path))
        for i, source in enumerate(select.from_tables):
            if isinstance(source, ast.SubqueryRef):
                # Derived tables cannot see the enclosing FROM clause.
                visit_query(source.query, f"{path}.from[{i}]", None)
        for clause, expr in clause_exprs(select):
            for node in ast.walk_local(expr):
                if isinstance(node, (ast.InSubquery, ast.ScalarSubquery, ast.Exists)):
                    # Predicate subqueries may correlate with this scope.
                    visit_query(node.query, f"{path}.{clause}.subquery", scope)

    visit_query(query, "query", None)
    return ctx


def analyze(
    query: str | ast.Query,
    schema: Schema,
    enhanced: EnhancedSchema | None = None,
) -> list[Diagnostic]:
    """Statically check a query against a schema; returns all findings."""
    from repro.analysis import aggregates, cost, joins, names, typecheck

    if isinstance(query, str):
        try:
            query = parse(query)
        except SqlSyntaxError as exc:
            return [
                Diagnostic(
                    rule="syntax.error",
                    severity=Severity.ERROR,
                    message=str(exc),
                    path="query",
                )
            ]
    ctx = build_context(query, schema, enhanced)
    diagnostics: list[Diagnostic] = []
    for check in (names.check, typecheck.check, joins.check, aggregates.check, cost.check):
        diagnostics.extend(check(ctx))
    return _dedupe(diagnostics)


def _dedupe(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    seen: set[tuple[str, str, str]] = set()
    result: list[Diagnostic] = []
    for diag in diagnostics:
        key = (diag.rule, diag.path, diag.message)
        if key in seen:
            continue
        seen.add(key)
        result.append(diag)
    return result


#: Rules whose queries are guaranteed to fail execution (the engine raises).
#: Only these may gate the generation pre-filter: rejecting on anything the
#: engine merely tolerates would change the generated query set.
EXECUTION_FATAL_RULES = frozenset(
    {
        "name.unknown-table",
        "name.unknown-column",
        "name.dangling-alias",
        "name.duplicate-binding",
        "type.math-on-non-numeric",
        "type.aggregate-non-numeric",
        "agg.aggregate-in-where",
        "agg.nested-aggregate",
        "syntax.error",
    }
)


def rejects_execution(
    diagnostics: list[Diagnostic], require_nonempty: bool = True
) -> bool:
    """Whether the pre-filter may skip executing this query.

    True when execution is statically guaranteed to fail, or — under
    ``require_nonempty`` — to return zero rows.  Sound by construction: the
    generation loop makes exactly the same skip decision after executing.
    """
    for diag in diagnostics:
        if diag.rule in EXECUTION_FATAL_RULES:
            return True
        if require_nonempty and diag.rule == "cost.empty-result":
            return True
    return False
