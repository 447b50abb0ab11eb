"""Name binding and type inference for one SELECT core.

A :class:`Scope` mirrors the executor's resolution rules exactly — the
analyzer must predict what execution *would* do, so the two must never
disagree:

* FROM/JOIN sources introduce bindings (alias or table name), duplicates are
  an error;
* qualified references look the binding up in the current scope, then in the
  enclosing scopes (correlated subqueries);
* unqualified references search the current scope's bindings in FROM order —
  when several bindings carry the column, *the first one wins* (the
  executor's SQLite-compatible behaviour), which the analyzer surfaces as an
  ambiguity warning rather than an error;
* select-item aliases are **not** visible in ORDER BY / HAVING (the executor
  raises ``unknown column`` for them, and so does the analyzer).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.schema.model import ColumnType, Schema, TableDef
from repro.sql import ast


@dataclass
class Binding:
    """One visible FROM-clause source: a base table or a derived subquery."""

    name: str
    kind: str  # "base" | "derived" | "invalid"
    table: TableDef | None = None
    #: Output columns of a derived table: (name-or-None, type-or-None).
    output: tuple[tuple[str | None, ColumnType | None], ...] = ()
    #: True when the derived table projects ``*`` — any column may resolve.
    opaque: bool = False

    def column_type(self, column: str) -> tuple[bool, ColumnType | None]:
        """(found, type) for ``column`` inside this binding."""
        if self.kind == "invalid" or self.opaque:
            return True, None  # do not cascade errors from an unknown table
        if self.kind == "base":
            assert self.table is not None
            if self.table.has_column(column):
                return True, self.table.column(column).type
            return False, None
        lowered = column.lower()
        for name, column_type in self.output:
            if name is not None and name.lower() == lowered:
                return True, column_type
        return False, None


@dataclass
class Resolution:
    """Outcome of resolving one column reference."""

    status: str  # "ok" | "unknown-binding" | "unknown-column" | "ambiguous"
    type: ColumnType | None = None
    binding: Binding | None = None
    matches: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Scope:
    """The bindings visible inside one SELECT core."""

    def __init__(
        self,
        select: ast.Select,
        schema: Schema,
        parent: "Scope | None" = None,
    ) -> None:
        self.select = select
        self.schema = schema
        self.parent = parent
        self.bindings: dict[str, Binding] = {}
        self.duplicates: list[str] = []
        self.unknown_tables: list[str] = []
        for source in select.from_tables:
            if isinstance(source, ast.TableRef):
                self._add_table(source)
            else:
                self._add_derived(source)
        for join in select.joins:
            self._add_table(join.table)

    def _add_table(self, ref: ast.TableRef) -> None:
        if self.schema.has_table(ref.name):
            binding = Binding(
                name=ref.binding, kind="base", table=self.schema.table(ref.name)
            )
        else:
            self.unknown_tables.append(ref.name)
            binding = Binding(name=ref.binding, kind="invalid")
        self._register(binding)

    def _add_derived(self, ref: ast.SubqueryRef) -> None:
        output, opaque = derived_output(ref.query, self.schema)
        self._register(
            Binding(name=ref.binding, kind="derived", output=output, opaque=opaque)
        )

    def _register(self, binding: Binding) -> None:
        key = binding.name.lower()
        if key in self.bindings:
            self.duplicates.append(binding.name)
            return
        self.bindings[key] = binding

    # -- resolution ----------------------------------------------------------

    def resolve(self, ref: ast.ColumnRef) -> Resolution:
        if ref.table is not None:
            return self._resolve_qualified(ref.table, ref.column)
        return self._resolve_unqualified(ref.column)

    def resolve_binding(self, name: str) -> Binding | None:
        scope: Scope | None = self
        while scope is not None:
            binding = scope.bindings.get(name.lower())
            if binding is not None:
                return binding
            scope = scope.parent
        return None

    def _resolve_qualified(self, table: str, column: str) -> Resolution:
        binding = self.resolve_binding(table)
        if binding is None:
            return Resolution(status="unknown-binding")
        found, column_type = binding.column_type(column)
        if not found:
            return Resolution(status="unknown-column", binding=binding)
        return Resolution(status="ok", type=column_type, binding=binding)

    def _resolve_unqualified(self, column: str) -> Resolution:
        scope: Scope | None = self
        while scope is not None:
            matches: list[tuple[Binding, ColumnType | None]] = []
            for binding in scope.bindings.values():
                found, column_type = binding.column_type(column)
                if found:
                    matches.append((binding, column_type))
            if matches:
                first, first_type = matches[0]
                if len(matches) > 1:
                    return Resolution(
                        status="ambiguous",
                        type=first_type,
                        binding=first,
                        matches=tuple(b.name for b, _ in matches),
                    )
                return Resolution(status="ok", type=first_type, binding=first)
            scope = scope.parent
        return Resolution(status="unknown-column")


def derived_output(
    query: ast.Query, schema: Schema
) -> tuple[tuple[tuple[str | None, ColumnType | None], ...], bool]:
    """Output column names/types of a subquery used as a derived table."""
    select = query.select
    inner = Scope(select, schema)
    output: list[tuple[str | None, ColumnType | None]] = []
    opaque = False
    for item in select.items:
        if isinstance(item.expr, ast.Star):
            opaque = True
            continue
        name = item.alias
        if name is None and isinstance(item.expr, ast.ColumnRef):
            name = item.expr.column
        output.append((name, infer_type(item.expr, inner)))
    return tuple(output), opaque


def clause_exprs(select: ast.Select) -> Iterator[tuple[str, ast.Expr]]:
    """Every top-level expression of a SELECT core, labelled by clause."""
    for i, item in enumerate(select.items):
        yield f"items[{i}]", item.expr
    for i, join in enumerate(select.joins):
        if join.condition is not None:
            yield f"joins[{i}].on", join.condition
    if select.where is not None:
        yield "where", select.where
    for i, expr in enumerate(select.group_by):
        yield f"group_by[{i}]", expr
    if select.having is not None:
        yield "having", select.having
    for i, item in enumerate(select.order_by):
        yield f"order_by[{i}]", item.expr


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------

_NUMERIC = (ColumnType.INTEGER, ColumnType.REAL, ColumnType.BOOLEAN)
_TEXTUAL = (ColumnType.TEXT, ColumnType.DATE)


def is_numeric_type(column_type: ColumnType) -> bool:
    """Numeric for the engine's purposes (Python treats bool as int)."""
    return column_type in _NUMERIC


def is_textual_type(column_type: ColumnType) -> bool:
    return column_type in _TEXTUAL


def types_comparable(left: ColumnType, right: ColumnType) -> bool:
    """Whether comparing the two types can ever be meaningful."""
    if left in _NUMERIC and right in _NUMERIC:
        return True
    if left in _TEXTUAL and right in _TEXTUAL:
        return True
    return False


@dataclass
class TypeEnv:
    """Shared type-inference context: every SELECT core's scope by identity."""

    scopes: dict[int, Scope] = field(default_factory=dict)

    def infer(self, expr: ast.Expr, scope: Scope) -> ColumnType | None:
        return infer_type(expr, scope, self)


def infer_type(
    expr: ast.Expr, scope: Scope, env: TypeEnv | None = None
) -> ColumnType | None:
    """Static type of ``expr`` in ``scope``; None when unknown."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, bool):
            return ColumnType.BOOLEAN
        if isinstance(value, int):
            return ColumnType.INTEGER
        if isinstance(value, float):
            return ColumnType.REAL
        if isinstance(value, str):
            return ColumnType.TEXT
        return None  # NULL
    if isinstance(expr, ast.ColumnRef):
        resolution = scope.resolve(expr)
        if resolution.status in ("ok", "ambiguous"):
            return resolution.type
        return None
    if isinstance(expr, ast.UnaryMinus):
        return infer_type(expr.operand, scope, env)
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "/":
            return ColumnType.REAL
        left = infer_type(expr.left, scope, env)
        right = infer_type(expr.right, scope, env)
        if ColumnType.REAL in (left, right):
            return ColumnType.REAL
        if left is ColumnType.INTEGER and right is ColumnType.INTEGER:
            return ColumnType.INTEGER
        return None
    if isinstance(expr, ast.FuncCall):
        name = expr.name.lower()
        if name == "count":
            return ColumnType.INTEGER
        if name == "avg":
            return ColumnType.REAL
        if name in ("sum", "min", "max", "abs") and expr.args:
            arg = expr.args[0]
            if isinstance(arg, ast.Star):
                return None
            return infer_type(arg, scope, env)
        return None
    if isinstance(expr, ast.ScalarSubquery):
        inner = expr.query.select
        inner_scope = env.scopes.get(id(inner)) if env is not None else None
        if inner_scope is None or not inner.items:
            return None
        first = inner.items[0].expr
        if isinstance(first, ast.Star):
            return None
        return infer_type(first, inner_scope, env)
    if isinstance(
        expr,
        (ast.Comparison, ast.Between, ast.InList, ast.InSubquery, ast.Exists,
         ast.IsNull, ast.Not, ast.BoolOp),
    ):
        return ColumnType.BOOLEAN
    return None
