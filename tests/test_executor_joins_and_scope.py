"""Executor edge cases: join planning, scope resolution, guards."""

import pytest

from repro.engine import create_database
from repro.engine.result import MAX_INTERMEDIATE_ROWS
from repro.errors import ExecutionError
from repro.schema.model import Column, ColumnType, Schema, TableDef

I = ColumnType.INTEGER
T = ColumnType.TEXT


def test_duplicate_binding_rejected(mini_db):
    with pytest.raises(ExecutionError):
        mini_db.execute("SELECT a.objid FROM photoobj AS a JOIN specobj AS a ON a.objid = a.bestobjid")


def test_join_without_condition_is_cross(mini_db):
    result = mini_db.execute("SELECT COUNT(*) FROM photoobj JOIN neighbors")
    assert result.rows == [(5 * 4,)]


def test_comma_from_is_cartesian(mini_db):
    result = mini_db.execute("SELECT COUNT(*) FROM photoobj, specobj")
    assert result.rows == [(25,)]


def test_join_residual_condition(mini_db):
    # Equality for hashing plus a residual inequality on the joined pair.
    result = mini_db.execute(
        "SELECT T2.specobjid FROM photoobj AS T1 "
        "JOIN specobj AS T2 ON T2.bestobjid = T1.objid AND T2.z > 0.5"
    )
    assert {r[0] for r in result.rows} == {10, 13, 14}


def test_join_on_nonequality_only(mini_db):
    result = mini_db.execute(
        "SELECT COUNT(*) FROM photoobj AS T1 JOIN specobj AS T2 ON T2.z > T1.u"
    )
    assert result.rows == [(0,)]  # magnitudes dwarf redshifts in the fixture


def test_null_join_keys_do_not_match(mini_schema):
    db = create_database(mini_schema)
    db.insert("photoobj", [(1, 1.0, 1.0, 3)])
    db.insert("specobj", [(10, None, "GALAXY", None, 0.5, 1.0)])
    result = db.execute(
        "SELECT COUNT(*) FROM specobj AS s JOIN photoobj AS p ON s.bestobjid = p.objid"
    )
    assert result.rows == [(0,)]


def test_unqualified_column_resolves_first_binding(mini_db):
    # `objid` exists in photoobj and neighbors; SQLite resolution order picks
    # the first FROM binding.
    result = mini_db.execute(
        "SELECT objid FROM photoobj AS p JOIN neighbors AS n ON n.objid = p.objid "
        "WHERE p.objid = 1"
    )
    assert result.rows == [(1,)]


def test_select_without_from(mini_db):
    result = mini_db.execute("SELECT 1 + 2")
    assert result.rows == [(3,)]


def test_cartesian_guard():
    schema = Schema(
        name="big",
        tables=(TableDef("t", (Column("a", I),)),),
    )
    db = create_database(schema, {"t": [(i,) for i in range(2000)]})
    assert 2000 * 2000 > MAX_INTERMEDIATE_ROWS
    with pytest.raises(ExecutionError):
        db.execute("SELECT COUNT(*) FROM t AS x, t AS y")


def test_group_by_on_expression(mini_db):
    result = mini_db.execute(
        "SELECT COUNT(*) FROM specobj GROUP BY class ORDER BY COUNT(*) DESC"
    )
    assert result.rows == [(3,), (1,), (1,)]


def test_order_by_aggregate_in_group_context(mini_db):
    result = mini_db.execute(
        "SELECT class FROM specobj GROUP BY class ORDER BY AVG(z) DESC LIMIT 1"
    )
    assert result.rows == [("QSO",)]


def test_having_on_avg(mini_db):
    result = mini_db.execute(
        "SELECT class FROM specobj GROUP BY class HAVING AVG(z) > 0.4"
    )
    assert {r[0] for r in result.rows} == {"GALAXY", "QSO"}


def test_projection_alias_used_as_label(mini_db):
    result = mini_db.execute("SELECT z AS redshift FROM specobj WHERE specobjid = 10")
    assert result.columns == ["redshift"]
