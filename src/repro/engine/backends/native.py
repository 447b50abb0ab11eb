"""The row engine wrapped as an :class:`ExecutionBackend`.

Runs a row :class:`~repro.engine.executor.Executor` directly, not
:meth:`Database.execute` (which is the vector engine): differential
execution's native arm must be the independent row-at-a-time
implementation, or ``diff-exec --backend all`` would compare the vector
engine with itself.
"""

from __future__ import annotations

from repro.engine.backends import ExecutionBackend
from repro.engine.database import Database
from repro.engine.executor import Executor, Result
from repro.errors import ExecutionError
from repro.sql import parse


class NativeBackend(ExecutionBackend):
    """The reproduction's row-at-a-time SQL engine."""

    name = "native"

    def __init__(self) -> None:
        self._executor: Executor | None = None

    def load(self, database: Database) -> None:
        self._executor = Executor(database)

    def execute(self, sql: str) -> Result:
        if self._executor is None:
            raise ExecutionError("native backend has no database loaded")
        return self._executor.execute(parse(sql))
