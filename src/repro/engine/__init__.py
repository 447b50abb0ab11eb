"""In-memory relational engine: tables, databases and query results."""

from repro.engine.database import Database, create_database
from repro.engine.result import Result
from repro.engine.table import Table

__all__ = ["Database", "create_database", "Result", "Table"]
