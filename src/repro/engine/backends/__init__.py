"""Execution backends: one interface, many engines.

An :class:`ExecutionBackend` is an external SQL engine loaded with one
benchmark database; ``sqlite`` (Python's stdlib ``sqlite3``) is the one
shipped.  Differential execution (:mod:`repro.engine.diffexec`) runs the
same query set through the in-repo engines and a backend and reports
divergences — correctness fuzzing for the engine, and the real-database
path future domains need.

Backends are resolved by name through :func:`get_backend`; the mapping is
import-lazy so ``sqlite3`` is only required when actually requested.
"""

from __future__ import annotations

import abc
from importlib import import_module

from repro.engine.database import Database
from repro.engine.executor import Result
from repro.errors import ExecutionError, ReproError


class ExecutionBackend(abc.ABC):
    """One SQL execution engine loaded with one benchmark database."""

    #: Backend name as shown in reports and trace spans.
    name: str = "abstract"

    @abc.abstractmethod
    def load(self, database: Database) -> None:
        """(Re)load the backend with ``database``'s schema and rows."""

    @abc.abstractmethod
    def execute(self, sql: str) -> Result:
        """Execute ``sql``, returning an engine-shaped :class:`Result`."""

    def try_execute(self, sql: str) -> Result | None:
        """Execute, returning None on any query error (including SQL the
        in-repo parser rejects), like :meth:`Database.try_execute`."""
        try:
            return self.execute(sql)
        except (ReproError, RecursionError):
            return None

    def close(self) -> None:
        """Release backend resources (no-op by default)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


#: name -> (module, class) — imported lazily by :func:`get_backend`.
_BACKENDS = {
    "sqlite": ("repro.engine.backends.sqlite", "SqliteBackend"),
}


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        module_name, class_name = _BACKENDS[name]
    except KeyError:
        raise ExecutionError(
            f"unknown execution backend {name!r}; available: "
            + ", ".join(available_backends())
        ) from None
    return getattr(import_module(module_name), class_name)()
