"""SQLite execution backend (stdlib ``sqlite3``, in-memory).

Loads a benchmark :class:`~repro.engine.database.Database` into an
in-memory SQLite database and executes SQL through it.  The schema mapping
mirrors the in-repo engine's comparison semantics so differential execution
compares like with like:

* ``TEXT``/``DATE`` columns get ``COLLATE NOCASE`` — the engine's string
  equality, IN-lists and GROUP BY keys are case-insensitive (Spider's
  execution-match convention), and the collation gives SQLite the same
  behaviour at the operator level.
* ``BOOLEAN`` maps to ``INTEGER`` (SQLite has no boolean type); Python
  ``bool`` values are stored as 0/1, which is exactly how the result
  canonicaliser (:func:`repro.engine.result._canonical`) compares them.
* No PRIMARY KEY/NOT NULL/FK constraints are emitted: the rows were already
  validated by the engine's typed tables, and constraint side effects
  (implicit indexes, NULL rejection) must not change query results.

Remaining intentional alignments: SQLite sorts NULLs first ascending (the
engine's rule), aggregates over empty input return NULL except COUNT (both
engines), and ASCII ``LIKE`` is case-insensitive on both sides.
"""

from __future__ import annotations

from repro.engine.backends import ExecutionBackend
from repro.engine.database import Database
from repro.engine.result import Result
from repro.errors import ExecutionError
from repro.obs import get_tracer
from repro.schema.model import ColumnType

try:  # pragma: no cover - sqlite3 ships with CPython
    import sqlite3
except ImportError:  # pragma: no cover - gated for minimal interpreters
    sqlite3 = None  # type: ignore[assignment]

#: Engine column type -> SQLite column declaration.
_SQL_TYPES = {
    ColumnType.INTEGER: "INTEGER",
    ColumnType.REAL: "REAL",
    ColumnType.TEXT: "TEXT COLLATE NOCASE",
    ColumnType.BOOLEAN: "INTEGER",
    ColumnType.DATE: "TEXT COLLATE NOCASE",
}


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _ddl(table_def) -> str:
    columns = ", ".join(
        f"{_quote(column.name)} {_SQL_TYPES[column.type]}"
        for column in table_def.columns
    )
    return f"CREATE TABLE {_quote(table_def.name)} ({columns})"


def _storable(value):
    if isinstance(value, bool):
        return int(value)
    return value


class SqliteBackend(ExecutionBackend):
    """Stdlib SQLite as an independent execution engine."""

    name = "sqlite"

    def __init__(self) -> None:
        if sqlite3 is None:  # pragma: no cover - gated for minimal interpreters
            raise ExecutionError(
                "the sqlite backend requires the stdlib sqlite3 module, "
                "which this interpreter was built without"
            )
        self._connection = None
        self._db_name: str | None = None

    def load(self, database: Database) -> None:
        self.close()
        connection = sqlite3.connect(":memory:")
        tracer = get_tracer()
        with tracer.span("backend.sqlite.load", database=database.name):
            cursor = connection.cursor()
            for table in database.tables():
                cursor.execute(_ddl(table.definition))
                if len(table) == 0:
                    continue
                placeholders = ", ".join("?" for _ in table.columns)
                cursor.executemany(
                    f"INSERT INTO {_quote(table.name)} VALUES ({placeholders})",
                    (tuple(_storable(v) for v in row) for row in table),
                )
            connection.commit()
        self._connection = connection
        self._db_name = database.name

    def execute(self, sql: str) -> Result:
        if self._connection is None:
            raise ExecutionError("sqlite backend has no database loaded")
        tracer = get_tracer()
        with tracer.span("backend.sqlite.query", database=self._db_name) as span:
            try:
                cursor = self._connection.execute(sql)
                rows = [tuple(row) for row in cursor.fetchall()]
            except sqlite3.Error as exc:
                raise ExecutionError(f"sqlite: {exc}") from exc
            columns = (
                [item[0] for item in cursor.description] if cursor.description else []
            )
            span.set_attr("rows", len(rows))
        return Result(columns=columns, rows=rows)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
            self._db_name = None
