"""Vector engine: byte-identity with the row engine, caching, errors.

The vector engine's contract is *exact* equality with the row engine —
same columns, same rows, same order, same value objects — on every query.
These tests check that contract three ways: a hypothesis sweep over
generated queries (filters, joins, aggregates, set-relevant ORDER BY ties),
the real SDSS gold split, and targeted cases for the caching machinery,
forward ON references and error messages (which the vector engine now
answers alone).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine import create_database
from repro.engine import executor as row_executor
from repro.engine.backends.sqlite import SqliteBackend
from repro.engine.executor import Executor
from repro.engine.vector import VectorEngine
from repro.engine.vector import executor as vector_executor
from repro.errors import ExecutionError
from repro.obs import Tracer
from repro.sql import parse


def _counter(engine: VectorEngine, name: str) -> float:
    entry = engine.metrics.snapshot().get(f"engine.vector.{name}")
    return entry["value"] if entry else 0.0


def _assert_identical(database, engine: VectorEngine, sql: str) -> None:
    row = Executor(database).execute(parse(sql))
    vec = engine.execute(parse(sql))
    assert list(vec.columns) == list(row.columns), sql
    assert vec.rows == row.rows, sql


@pytest.fixture(scope="module")
def engines(mini_db):
    """One shared engine pair over the session database — repeated examples
    exercise the plan/selection/join-index caches, not just cold planning."""
    return mini_db, VectorEngine(mini_db)


# ---------------------------------------------------------------------------
# Property sweep: vector == row, byte for byte
# ---------------------------------------------------------------------------

_CONDITIONS = [
    "z > 0.5",
    "z >= 0.55",
    "z < 0.3",
    "class = 'GALAXY'",
    "class != 'STAR'",
    "subclass IS NULL",
    "subclass IS NOT NULL",
    "z BETWEEN 0.2 AND 1.0",
    "class IN ('GALAXY', 'STAR')",
    "class LIKE 'G%'",
    "bestobjid = 3",
]

_PHOTO_CONDITIONS = ["type = 3", "r > 17.0", "u <= 20.0", "type != 6"]

_AGGS = ["COUNT(*)", "SUM(z)", "AVG(z)", "MIN(ra)", "MAX(z)"]


@st.composite
def vector_queries(draw):
    kind = draw(st.sampled_from(["single", "join", "agg"]))
    if kind == "single":
        columns = ["specobjid", "bestobjid", "class", "subclass", "z", "ra"]
        projection = draw(
            st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True)
        )
        sql = (
            "SELECT "
            + ("DISTINCT " if draw(st.booleans()) else "")
            + ", ".join(projection)
            + " FROM specobj"
        )
        conditions = draw(
            st.lists(st.sampled_from(_CONDITIONS), min_size=0, max_size=2)
        )
        if conditions:
            sql += " WHERE " + draw(st.sampled_from([" AND ", " OR "])).join(
                conditions
            )
        if draw(st.booleans()):
            # 'class' ties across rows: byte-identity requires both engines
            # to break ties the same way.
            order = draw(st.sampled_from(["class", projection[0]]))
            sql += f" ORDER BY {order} {draw(st.sampled_from(['ASC', 'DESC']))}"
        if draw(st.booleans()):
            sql += f" LIMIT {draw(st.integers(min_value=1, max_value=4))}"
        return sql
    if kind == "join":
        sql = (
            "SELECT s.class, p.r FROM specobj AS s "
            "JOIN photoobj AS p ON s.bestobjid = p.objid"
        )
        if draw(st.booleans()):
            sql += " JOIN neighbors AS n ON n.objid = p.objid"
        where = []
        if draw(st.booleans()):
            where.append("s." + draw(st.sampled_from(_CONDITIONS[:5])))
        if draw(st.booleans()):
            where.append("p." + draw(st.sampled_from(_PHOTO_CONDITIONS)))
        if where:
            sql += " WHERE " + " AND ".join(where)
        if draw(st.booleans()):
            sql += " ORDER BY s.class, p.r"
        return sql
    aggs = draw(st.lists(st.sampled_from(_AGGS), min_size=1, max_size=2, unique=True))
    sql = f"SELECT class, {', '.join(aggs)} FROM specobj GROUP BY class"
    if draw(st.booleans()):
        sql += " HAVING COUNT(*) >= 1"
    if draw(st.booleans()):
        sql += f" ORDER BY {aggs[0]} DESC"
    return sql


@given(vector_queries())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_vector_matches_row_engine(engines, sql):
    database, engine = engines
    _assert_identical(database, engine, sql)


# ---------------------------------------------------------------------------
# Gold split identity on a real domain
# ---------------------------------------------------------------------------


def test_sdss_gold_split_byte_identical(sdss_domain):
    engine = VectorEngine(sdss_domain.database)
    for pair in sdss_domain.seed.pairs:
        _assert_identical(sdss_domain.database, engine, pair.sql)


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------


def test_warm_rerun_is_identical_and_cached(mini_db):
    engine = VectorEngine(mini_db)
    query = parse(
        "SELECT s.class, COUNT(*) FROM specobj AS s "
        "JOIN photoobj AS p ON s.bestobjid = p.objid "
        "WHERE p.type = 3 GROUP BY s.class ORDER BY COUNT(*) DESC"
    )
    expected = Executor(mini_db).execute(query)
    # First sighting: planned and dropped; second: planned and admitted;
    # third: served from the plan cache.
    runs = [engine.execute(query) for _ in range(3)]
    for result in runs:
        assert result.rows == expected.rows
        assert list(result.columns) == list(expected.columns)
    assert _counter(engine, "plans_built") == 2
    assert _counter(engine, "plan_cache_hits") >= 1


@pytest.mark.parametrize(
    "order",
    [
        ("SELECT 1 FROM singer", "SELECT 1.0 FROM singer"),
        ("SELECT 1.0 FROM singer", "SELECT 1 FROM singer"),
    ],
)
def test_plan_cache_keeps_int_and_float_literals_apart(order):
    # 1 == 1.0 in Python, so a cache keyed on AST equality alone served the
    # first literal's plan to the second query.
    import random

    from repro.spider.domains import DOMAIN_BUILDERS

    database = DOMAIN_BUILDERS["concert_singer"](random.Random(2))
    engine = VectorEngine(database)
    for sql in order:
        row = Executor(database).execute(parse(sql))
        # Twice: the second sighting admits the plan, so the next query
        # would be served it if the keys collided.
        for _ in range(2):
            vec = engine.execute(parse(sql))
            assert vec.rows == row.rows, sql
            assert [type(r[0]) for r in vec.rows] == [type(r[0]) for r in row.rows], sql
            assert list(vec.columns) == list(row.columns), sql
    assert _counter(engine, "plans_built") == 4


def test_insert_invalidates_columnar_caches(mini_schema):
    database = create_database(
        mini_schema,
        {"photoobj": [(1, 19.0, 16.5, 3), (2, 20.0, 19.5, 6)]},
    )
    engine = VectorEngine(database)
    query = parse("SELECT COUNT(*) FROM photoobj WHERE type = 3")
    assert engine.execute(query).rows == [(1,)]
    database.insert("photoobj", [(3, 21.0, 18.0, 3)])
    # Both the columnar snapshot and the scan's selection cache must refresh.
    assert engine.execute(query).rows == [(2,)]
    assert Executor(database).execute(query).rows == [(2,)]


def test_engine_swap_on_database(mini_schema):
    """``Database.execute`` runs on the vector engine; the row executor
    stays available explicitly and agrees."""
    database = create_database(
        mini_schema, {"photoobj": [(1, 19.0, 16.5, 3)]}
    )
    sql = "SELECT objid FROM photoobj"
    assert Executor(database).execute(parse(sql)).rows == [(1,)]
    tracer = Tracer()
    with obs.use_tracer(tracer):
        assert database.execute(sql).rows == [(1,)]
    names = [span.name for span in tracer.finished()]
    assert "engine.vector.query" in names
    assert "engine.query" not in names


# ---------------------------------------------------------------------------
# Forward ON references: sqlite's inner-join semantics
# ---------------------------------------------------------------------------

#: ON clauses that name a table joined later.  Inner joins filter one
#: product, so each conjunct applies at the join of the latest table it
#: references.
_FORWARD_ON = [
    # An equality to a later table.
    "SELECT s.specobjid, p.objid, n.neighborobjid FROM specobj AS s "
    "JOIN photoobj AS p ON p.objid = n.objid "
    "JOIN neighbors AS n ON n.neighborobjid = s.bestobjid",
    # A mixed conjunct list: one forward equality, one to an earlier table.
    "SELECT s.specobjid, n.neighborobjid FROM specobj AS s "
    "JOIN photoobj AS p ON p.objid = n.objid AND s.bestobjid = p.objid "
    "JOIN neighbors AS n ON n.neighbormode >= 2",
    # A non-equality residual.
    "SELECT s.specobjid, p.objid, n.objid FROM specobj AS s "
    "JOIN photoobj AS p ON p.r > n.distance * 60 "
    "JOIN neighbors AS n ON n.objid = s.bestobjid",
]


@pytest.mark.parametrize("sql", _FORWARD_ON)
def test_forward_on_reference_joins_at_the_later_table(mini_db, sql):
    row = Executor(mini_db).execute(parse(sql))
    assert row.rows, "shape must select rows to compare"
    vec = mini_db.execute(sql)
    assert list(vec.columns) == list(row.columns)
    assert vec.rows == row.rows
    with SqliteBackend() as backend:
        backend.load(mini_db)
        assert sorted(backend.execute(sql).rows) == sorted(row.rows)
    assert mini_db.try_execute(sql) == vec


def test_forward_on_reference_explains_as_a_plan(mini_db):
    engine = VectorEngine(mini_db)
    sql = (
        "SELECT COUNT(*) FROM specobj AS s "
        "JOIN photoobj AS p ON p.objid = n.objid "
        "JOIN neighbors AS n ON n.neighborobjid = p.objid"
    )
    rendered = engine.explain(parse(sql), sql)
    assert rendered.startswith("plan ")
    assert "HashJoin keys=[p.objid = n.objid, n.neighborobjid = p.objid]" in rendered


# ---------------------------------------------------------------------------
# Error semantics: the vector engine's errors are final
# ---------------------------------------------------------------------------

#: Queries whose text-typed arithmetic, negation or ABS would raise on some
#: row, but the row engine (and sqlite) never evaluate it there: a join or
#: an earlier conjunct eliminates the row first, or an earlier AND/OR
#: operand or IN item decides it.
_GUARDED = [
    # A pushed-down copy would see every specobj row before the join.
    "SELECT s.specobjid FROM specobj AS s JOIN photoobj AS p "
    "ON s.bestobjid = p.objid WHERE p.objid = 999 AND s.class + 1 > 0",
    # An ON conjunct, short-circuited by the one before it.
    "SELECT s.specobjid FROM specobj AS s JOIN photoobj AS p "
    "ON s.bestobjid = p.objid AND p.type = 99 AND ABS(s.class) > 0",
    "SELECT s.specobjid FROM specobj AS s JOIN photoobj AS p "
    "ON s.bestobjid = p.objid AND p.type = 99 AND -s.class < 0",
    "SELECT specobjid FROM specobj WHERE class IS NOT NULL OR class + 1 > 0",
    "SELECT specobjid FROM specobj WHERE specobjid IN (specobjid, class + 1)",
    "SELECT class, COUNT(*) FROM specobj GROUP BY class "
    "HAVING COUNT(*) > 1 OR MIN(z) + 1 > 0",
]


@pytest.mark.parametrize("sql", _GUARDED)
def test_raising_conjuncts_see_only_the_row_engines_rows(mini_db, sql, monkeypatch):
    row = Executor(mini_db).execute(parse(sql))
    with SqliteBackend() as backend:
        backend.load(mini_db)
        assert sorted(backend.execute(sql).rows) == sorted(row.rows)

    def unreachable(self, database):
        raise AssertionError("the row engine was constructed")

    monkeypatch.setattr(Executor, "__init__", unreachable)
    vec = mini_db.execute(sql)
    assert list(vec.columns) == list(row.columns)
    assert vec.rows == row.rows


def test_only_conjuncts_that_can_raise_run_after_the_joins(mini_db):
    engine = VectorEngine(mini_db)
    late = engine.explain(parse(_GUARDED[0]))
    assert "LateFilter (s.class + 1 > 0)" in late
    # Arithmetic over numeric columns cannot raise and stays in the scan.
    sql = (
        "SELECT s.specobjid FROM specobj AS s JOIN photoobj AS p "
        "ON s.bestobjid = p.objid WHERE p.u - p.r < 2.22"
    )
    pushed = engine.explain(parse(sql))
    assert "LateFilter" not in pushed
    assert "Scan photoobj AS p filters=[p.u - p.r < 2.22]" in pushed


_ERRORS = [
    "SELECT objid FROM nosuchtable",
    "SELECT nosuchcolumn FROM specobj",
    "SELECT AVG(class) FROM specobj",
    "SELECT SUM(*) FROM specobj",
    "SELECT class FROM specobj UNION SELECT class, z FROM specobj",
    "SELECT COUNT(*) FROM specobj AS s, photoobj AS p",
    # 3 x 3 GALAXY pairs + 1 + 1 = 11 joined rows.
    "SELECT COUNT(*) FROM specobj AS s JOIN specobj AS t ON s.class = t.class",
    # The first offending row in the row engine's order names the value.
    "SELECT s.specobjid FROM specobj AS s JOIN photoobj AS p "
    "ON s.bestobjid = p.objid WHERE p.type = 6 AND s.class + 1 > 0",
]


def test_errors_match_the_row_engine_without_it(mini_db, monkeypatch):
    # A size guard of 10 rows makes the cartesian (5 x 5) and join (11
    # rows) guards cheap to reach while single 5-row scans stay under it.
    for module in (row_executor, vector_executor):
        monkeypatch.setattr(module, "MAX_INTERMEDIATE_ROWS", 10)
    expected = {}
    for sql in _ERRORS:
        with pytest.raises(ExecutionError) as info:
            Executor(mini_db).execute(parse(sql))
        expected[sql] = str(info.value)

    def unreachable(self, database):
        raise AssertionError("the row engine was constructed")

    monkeypatch.setattr(Executor, "__init__", unreachable)
    for sql in _ERRORS:
        with pytest.raises(ExecutionError) as info:
            mini_db.execute(sql)
        assert str(info.value) == expected[sql], sql
        assert mini_db.try_execute(sql) is None, sql
    assert "cartesian product too large" in expected.values()
    assert "join result too large" in expected.values()


# ---------------------------------------------------------------------------
# Observability: corrected counters on spans
# ---------------------------------------------------------------------------


def _query_span_attrs(database, engine_name: str, sql: str) -> dict:
    engine = Executor(database) if engine_name == "native" else VectorEngine(database)
    tracer = Tracer()
    with obs.use_tracer(tracer):
        engine.execute(parse(sql))
    names = {"native": "engine.query", "vector": "engine.vector.query"}
    spans = [s for s in tracer.finished() if s.name == names[engine_name]]
    assert spans, f"no {names[engine_name]} span recorded"
    return spans[-1].attrs


def test_rows_scanned_excludes_derived_table_results(mini_schema):
    """The satellite fix: subquery *result* rows are not scan work.  Both
    engines bill only the 5 base-table rows for a derived-table query."""
    database = create_database(
        mini_schema,
        {
            "specobj": [
                (10, 1, "GALAXY", "STARBURST", 0.70, 120.0),
                (11, 2, "GALAXY", "AGN", 0.30, 121.0),
                (12, 3, "STAR", "OB", 0.00, 122.0),
                (13, 4, "QSO", "BROADLINE", 1.80, 123.0),
                (14, 5, "GALAXY", None, 0.55, 124.5),
            ]
        },
    )
    sql = "SELECT class FROM (SELECT class FROM specobj) AS t"
    for engine_name in ("native", "vector"):
        attrs = _query_span_attrs(database, engine_name, sql)
        assert attrs["rows_scanned"] == 5, engine_name


def test_vector_span_carries_plan_hash(mini_schema):
    database = create_database(
        mini_schema, {"photoobj": [(1, 19.0, 16.5, 3)]}
    )
    attrs = _query_span_attrs(
        database, "vector", "SELECT objid FROM photoobj WHERE type = 3"
    )
    assert len(attrs["plan_hash"]) == 12
    assert attrs["batches"] >= 1
