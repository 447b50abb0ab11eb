"""The vector engine wrapped as an :class:`ExecutionBackend`.

:meth:`Database.execute` runs on the vector engine, so this adapter
delegates to the database; differential execution compares it with the
row engine (:class:`~repro.engine.backends.native.NativeBackend`).
"""

from __future__ import annotations

from repro.engine.backends import ExecutionBackend
from repro.engine.database import Database
from repro.engine.executor import Result
from repro.errors import ExecutionError


class VectorBackend(ExecutionBackend):
    """The vector engine over the reproduction's in-memory tables."""

    name = "vector"

    def __init__(self) -> None:
        self._database: Database | None = None

    def load(self, database: Database) -> None:
        self._database = database

    def execute(self, sql: str) -> Result:
        if self._database is None:
            raise ExecutionError("vector backend has no database loaded")
        return self._database.execute(sql)
