"""Vector planner: cost-based join ordering, pushdown, plan stability.

The planner's join order must follow the :class:`ColumnStats` cardinality
estimates (smallest filtered scan drives), single-binding predicates must
push down onto their scans, and the rendered plan / ``plan_hash`` must be
deterministic — the hash identifies plans on spans and in reports, so two
structurally equal queries must agree on it.
"""

from __future__ import annotations

import pytest

from repro.engine import create_database
from repro.engine.diffexec import run_diff_exec
from repro.engine.vector import VectorEngine
from repro.schema.model import Column, ColumnType, Schema, TableDef
from repro.sql import parse

I = ColumnType.INTEGER
T = ColumnType.TEXT


@pytest.fixture(scope="module")
def skew_db():
    """Two tables with a 40:4 cardinality skew, linked by a foreign key."""
    schema = Schema(
        name="skew",
        tables=(
            TableDef(
                "events",
                (Column("id", I), Column("kind_id", I), Column("label", T)),
                primary_key="id",
            ),
            TableDef(
                "kinds",
                (Column("kind_id", I), Column("name", T)),
                primary_key="kind_id",
            ),
        ),
        foreign_keys=(),
    )
    return create_database(
        schema,
        {
            "events": [
                (n, n % 4, f"event-{n % 7}") for n in range(40)
            ],
            "kinds": [(k, f"kind-{k}") for k in range(4)],
        },
    )


def _plan_text(database, sql: str) -> str:
    return VectorEngine(database).explain(parse(sql), sql)


def test_join_order_follows_cardinalities(skew_db):
    """With no filters, the 4-row side must drive the join, not the
    declaration order (events is declared first but is 10x larger)."""
    rendered = _plan_text(
        skew_db,
        "SELECT k.name, e.label FROM events AS e "
        "JOIN kinds AS k ON e.kind_id = k.kind_id",
    )
    assert rendered.index("Scan kinds") < rendered.index("Scan events")
    # Reordering away from declaration order forces the restore stage that
    # keeps output order byte-identical to the row engine.
    assert "RestoreOrder" in rendered


def test_filtered_scan_becomes_the_driver(skew_db):
    """A selective filter flips the driver: events filtered to one label
    (~6 of 40 rows) now beats the 4-row kinds table only if the estimate
    says so — with ndv(label)=7 the estimate is ~5.7 rows, so kinds (4)
    still drives; with an equality on the unique id (est 1) events must."""
    rendered = _plan_text(
        skew_db,
        "SELECT k.name FROM events AS e "
        "JOIN kinds AS k ON e.kind_id = k.kind_id WHERE e.id = 7",
    )
    assert rendered.index("Scan events") < rendered.index("Scan kinds")


def test_single_binding_predicates_push_down(skew_db):
    rendered = _plan_text(
        skew_db,
        "SELECT e.label FROM events AS e "
        "JOIN kinds AS k ON e.kind_id = k.kind_id "
        "WHERE k.name = 'kind-1' AND e.id > 10",
    )
    assert "Scan kinds AS k filters=[k.name = 'kind-1']" in rendered
    assert "Scan events AS e filters=[e.id > 10]" in rendered


def test_declaration_order_join_needs_no_restore(skew_db):
    """When the cost order equals declaration order the plan must not pay
    for (or advertise) an order-restoration stage."""
    rendered = _plan_text(
        skew_db,
        "SELECT k.name, e.label FROM kinds AS k "
        "JOIN events AS e ON e.kind_id = k.kind_id",
    )
    assert "RestoreOrder" not in rendered


def test_plan_hash_stable_and_discriminating(skew_db):
    sql = "SELECT label FROM events WHERE kind_id = 2 ORDER BY label"
    engine_a = VectorEngine(skew_db)
    engine_b = VectorEngine(skew_db)
    plan_a = engine_a._planner.plan_query(parse(sql), sql)
    plan_b = engine_b._planner.plan_query(parse(sql), sql)
    assert plan_a.plan_hash == plan_b.plan_hash
    other = engine_a._planner.plan_query(
        parse("SELECT label FROM events WHERE kind_id = 3 ORDER BY label"),
        None,
    )
    # Same shape, different constant: the hash keys on structure.
    assert other.shape() != plan_a.shape() or other.plan_hash == plan_a.plan_hash


def test_plan_estimates_appear_in_render(skew_db):
    rendered = _plan_text(
        skew_db, "SELECT label FROM events WHERE kind_id = 2"
    )
    assert rendered.startswith("plan ")
    assert "est" in rendered and "/40 rows" in rendered


def test_aggregate_stage_renders_groups_and_aggs(skew_db):
    rendered = _plan_text(
        skew_db,
        "SELECT kind_id, COUNT(*) FROM events GROUP BY kind_id "
        "HAVING COUNT(*) > 5 ORDER BY COUNT(*) DESC LIMIT 2",
    )
    assert "Aggregate groups=[kind_id] aggs=[COUNT(*)]" in rendered
    assert "having=(COUNT(*) > 5)" in rendered
    assert "Limit 2" in rendered


# ---------------------------------------------------------------------------
# Three-way differential execution (the satellite's 0-divergence gate)
# ---------------------------------------------------------------------------


def test_three_way_diffexec_agrees_on_sdss_gold(sdss_domain):
    reports = run_diff_exec(sdss_domain, splits=("seed", "dev"))
    assert [r.backend for r in reports] == ["vector", "sqlite"]
    for report in reports:
        assert report.agreed, report.render()
        assert report.n_queries > 0
