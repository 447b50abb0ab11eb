"""The :class:`Database`: a schema plus populated tables plus its engine.

This is the central runtime object of the reproduction: the augmentation
pipeline samples values from it, the NL-to-SQL systems index its contents for
value linking, and the evaluation harness executes gold and predicted SQL
against it to compute execution accuracy.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import ExecutionError, SchemaError
from repro.schema.model import Schema
from repro.engine.result import Result
from repro.engine.table import Table


class Database:
    """An in-memory relational database instance."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.name = schema.name
        self._tables: dict[str, Table] = {
            t.name.lower(): Table(t) for t in schema.tables
        }
        self._engine = _new_engine(self)

    # -- pickling ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The engine is derived state (column stores, plans, join indexes):
        # it never travels, so a pickled or deep-copied database carries
        # only schema and rows, and its bytes do not depend on history.
        state = self.__dict__.copy()
        del state["_engine"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._engine = _new_engine(self)

    # -- table access -----------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise ExecutionError(
                f"no table {name!r} in database {self.name!r}"
            ) from None

    def tables(self) -> list[Table]:
        return [self._tables[t.name.lower()] for t in self.schema.tables]

    def data_version(self) -> int:
        """Monotonic counter covering every table's contents; caches keyed
        on it (vector-engine scan selections, join indexes) invalidate on
        any insert anywhere in the database."""
        return sum(t.version for t in self._tables.values())

    def insert(self, table: str, rows: Iterable[tuple | list]) -> None:
        """Bulk-insert rows into one table."""
        self.table(table).insert_many(rows)

    # -- querying ----------------------------------------------------------------

    def execute(self, sql) -> Result:
        """Execute a SQL string or a pre-parsed :class:`~repro.sql.ast.Query`
        on the vector engine; its result or :class:`ExecutionError` is
        final."""
        from repro.sql import ast, parse

        if isinstance(sql, str):
            query = parse(sql)
        elif isinstance(sql, ast.Query):
            query = sql
        else:
            raise ExecutionError(f"cannot execute {type(sql).__name__}")
        return self._engine.execute(query)

    def try_execute(self, sql) -> Result | None:
        """Execute, returning None instead of raising on any library error.

        Used by the pipeline's executability filter and by the evaluation
        harness, where a failing predicted query simply scores zero.
        """
        from repro.errors import ReproError

        try:
            return self.execute(sql)
        except (ReproError, RecursionError):
            return None

    # -- statistics (Table 1) ------------------------------------------------------

    def row_count(self) -> int:
        return sum(len(t) for t in self.tables())

    def average_rows_per_table(self) -> float:
        tables = self.tables()
        if not tables:
            return 0.0
        return self.row_count() / len(tables)

    def estimated_bytes(self) -> int:
        return sum(t.estimated_bytes() for t in self.tables())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, {len(self._tables)} tables, {self.row_count()} rows)"


def _new_engine(database: Database):
    # Imported late: the vector planner reaches ``repro.analysis``, whose
    # package imports this module.
    from repro.engine.vector import VectorEngine

    return VectorEngine(database)


def create_database(schema: Schema, data: dict[str, list[tuple]] | None = None) -> Database:
    """Build a database from a schema and an optional ``{table: rows}`` mapping."""
    db = Database(schema)
    if data:
        for table_name, rows in data.items():
            if not schema.has_table(table_name):
                raise SchemaError(f"data provided for unknown table {table_name!r}")
            db.insert(table_name, rows)
    return db
