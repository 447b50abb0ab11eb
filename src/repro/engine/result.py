"""Result semantics shared by every engine: the :class:`Result` type, value
canonicalisation, DISTINCT and set operations, sort keys and the size guard.

Execution accuracy — the paper's headline metric — compares the
:class:`Result` of a predicted query with the gold query's result, so these
semantics (set semantics of UNION/INTERSECT/EXCEPT, NULL ordering, text
compared case-insensitively) follow SQLite, the engine Spider uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.engine.aggregates import _order_key

#: Hard ceiling on intermediate join sizes, protecting benchmark runs from
#: accidental cartesian blow-ups in generated queries.
MAX_INTERMEDIATE_ROWS = 2_000_000


@dataclass
class Result:
    """A query result: ordered column labels and row tuples."""

    columns: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def to_multiset(self) -> dict:
        """Row multiset (order-insensitive) used for execution accuracy."""
        counts: dict = {}
        for row in self.rows:
            key = tuple(_canonical(v) for v in row)
            counts[key] = counts.get(key, 0) + 1
        return counts


def _canonical(value):
    """Normalise a value for result comparison (ints/floats unify, text
    compares case-insensitively — mirroring the Spider execution matcher)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return round(value, 6)
    if isinstance(value, str):
        return value.lower()
    return value


class _Reversed:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key


def _sort_component(value, desc: bool):
    # NULLs sort first ascending (SQLite behaviour), last descending.
    null_rank = 0 if value is None else 1
    key = (null_rank, _order_key(value) if value is not None else (0, 0))
    return _Reversed(key) if desc else key


def _dedupe(rows: list[tuple]) -> list[tuple]:
    seen = set()
    result = []
    for row in rows:
        key = tuple(_canonical(v) for v in row)
        if key in seen:
            continue
        seen.add(key)
        result.append(row)
    return result


def _apply_set_op(op: str, left: Result, right: Result, set_all: bool) -> Result:
    left_keys = [tuple(_canonical(v) for v in row) for row in left.rows]
    right_keys = {tuple(_canonical(v) for v in row) for row in right.rows}
    if op == "union":
        if set_all:
            return Result(columns=left.columns, rows=left.rows + right.rows)
        rows = _dedupe(left.rows + right.rows)
        return Result(columns=left.columns, rows=rows)
    if op == "intersect":
        rows = [row for row, key in zip(left.rows, left_keys) if key in right_keys]
        return Result(columns=left.columns, rows=_dedupe(rows))
    if op == "except":
        rows = [row for row, key in zip(left.rows, left_keys) if key not in right_keys]
        return Result(columns=left.columns, rows=_dedupe(rows))
    raise ExecutionError(f"unknown set operation {op!r}")
