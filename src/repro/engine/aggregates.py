"""SQL aggregate functions with standard NULL semantics.

Each aggregate takes the list of values of its argument expression over the
rows of one group (``count(*)`` is special-cased by the executor) and returns
a scalar.  NULLs are skipped; an empty input yields NULL for everything but
COUNT, which yields 0 — matching SQLite/PostgreSQL behaviour, which matters
for execution-accuracy comparisons of aggregate queries over empty groups.
``_has_aggregate``/``_collect_aggregates`` find a SELECT's aggregate calls.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import ExecutionError
from repro.sql import ast


def agg_count(values: Sequence, distinct: bool = False) -> int:
    """COUNT(expr): non-NULL values (optionally distinct)."""
    present = [v for v in values if v is not None]
    if distinct:
        return len(set(present))
    return len(present)


def agg_sum(values: Sequence, distinct: bool = False):
    """SUM over non-NULL numeric values; NULL when the input is empty."""
    present = _numeric(values, "SUM")
    if distinct:
        present = list(dict.fromkeys(present))
    if not present:
        return None
    total = sum(present)
    return total


def agg_avg(values: Sequence, distinct: bool = False):
    """AVG over non-NULL numeric values; NULL when the input is empty."""
    present = _numeric(values, "AVG")
    if distinct:
        present = list(dict.fromkeys(present))
    if not present:
        return None
    return sum(present) / len(present)


def agg_min(values: Sequence, distinct: bool = False):
    """MIN over non-NULL values; NULL when the input is empty."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return min(present, key=_order_key)


def agg_max(values: Sequence, distinct: bool = False):
    """MAX over non-NULL values; NULL when the input is empty."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return max(present, key=_order_key)


def _numeric(values: Sequence, func: str) -> list:
    present = []
    for v in values:
        if v is None:
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ExecutionError(f"{func} over non-numeric value {v!r}")
        present.append(v)
    return present


def _order_key(value):
    """Total order over mixed-type values: numbers < text < bool."""
    if isinstance(value, bool):
        return (2, value)
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))


AGGREGATES: dict[str, Callable] = {
    "count": agg_count,
    "sum": agg_sum,
    "avg": agg_avg,
    "min": agg_min,
    "max": agg_max,
}


def _aggregate_calls(select: ast.Select):
    """Aggregate calls in the select list, HAVING and ORDER BY, in walk order."""
    roots: list[ast.Node] = [item.expr for item in select.items]
    if select.having is not None:
        roots.append(select.having)
    roots.extend(o.expr for o in select.order_by)
    for root in roots:
        for node in root.walk():
            if isinstance(node, ast.FuncCall) and node.name.lower() in ast.AGGREGATE_FUNCTIONS:
                yield node


def _has_aggregate(select: ast.Select) -> bool:
    return next(_aggregate_calls(select), None) is not None


def _collect_aggregates(select: ast.Select) -> list[ast.FuncCall]:
    """The distinct aggregate calls of ``select``, first occurrence first."""
    return list(dict.fromkeys(_aggregate_calls(select)))
