"""``repro.engine.vector`` — columnar execution with a cost-based planner.

The row ``Executor`` (the reference engine) interprets one closure tree
per row; this subsystem, the engine behind every ``Database.execute``,
executes the same SQL dialect over *columns*:

* :mod:`~repro.engine.vector.columns` decomposes each table once into typed
  per-column value lists (invalidated by the table's version counter);
* :mod:`~repro.engine.vector.batch` carries intermediate results as
  selection vectors over those columns (late materialisation);
* :mod:`~repro.engine.vector.vexpr` compiles AST expressions to vector
  evaluators with the row engine's exact value semantics;
* :mod:`~repro.engine.vector.planner` orders joins and places filters with
  the same :class:`~repro.schema.enhanced.ColumnStats` the static analyzer's
  cost pass consumes, producing an explainable
  :class:`~repro.engine.vector.plan.QueryPlan`;
* :mod:`~repro.engine.vector.executor` runs plans (cached per query);
  its errors are final.

The contract is byte identity: for every query both engines accept, the
vector engine returns the same columns, the same rows, in the same order.
Shared result semantics live in :mod:`repro.engine.result`.
"""

from __future__ import annotations

from repro.engine.vector.executor import VectorEngine
from repro.engine.vector.plan import QueryPlan

__all__ = ["QueryPlan", "VectorEngine"]
