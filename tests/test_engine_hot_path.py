"""One engine on the hot path: ``Database.execute`` runs the vector engine.

The vector engine's identity with the row executor is checked on the gold
queries elsewhere; these tests go beyond them.  Every query the hot paths
actually issue — each Phase-2 candidate, accepted or rejected, and the
candidate SQL the three NL-to-SQL systems execute while predicting — must
give exactly what the row :class:`~repro.engine.executor.Executor` gives:
the same columns, the same rows in the same order with the same value
types, or the same error.  The outcome compared is the one the hot path saw,
in whatever engine state its history left.

Also here: plan-cache admission (a plan is cached on its query's second
sighting only) and the :class:`Database` pickling contract (the engine is
derived state and never travels).
"""

from __future__ import annotations

import contextlib
import copy
import pickle
import random

import pytest

from repro import adapters
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.vector import executor as vector_executor
from repro.errors import ReproError
from repro.experiments.config import quick
from repro.llm.models import GPT3_PROFILE, make_model
from repro.nl2sql import SmBoP, T5Seq2Seq, ValueNet
from repro.runtime import derive_seed
from repro.sql import parse
from repro.synthesis import AugmentationPipeline, PipelineConfig
from repro.synthesis.generation import SqlGenerator
from repro.synthesis.seeding import extract_templates

CONFIG = quick()


def _result_outcome(result) -> tuple:
    """Columns plus the rows' repr (which tells ``1``, ``1.0`` and ``True``
    apart)."""
    return ("ok", list(result.columns), repr(result.rows))


def _error_outcome(exc: BaseException) -> tuple:
    return ("error", type(exc).__name__, str(exc))


def _outcome(run, sql) -> tuple:
    """A comparable outcome of ``run(sql)``: the result or the error."""
    try:
        return _result_outcome(run(sql))
    except (ReproError, RecursionError) as exc:
        return _error_outcome(exc)


@contextlib.contextmanager
def recording_executions():
    """Record ``(database, sql, outcome)`` for every ``Database.execute``
    call made inside the block (``try_execute`` goes through it too)."""
    issued: list[tuple[Database, object, tuple]] = []
    original = Database.execute

    def execute(self, sql):
        try:
            result = original(self, sql)
        except (ReproError, RecursionError) as exc:
            issued.append((self, sql, _error_outcome(exc)))
            raise
        issued.append((self, sql, _result_outcome(result)))
        return result

    Database.execute = execute
    try:
        yield issued
    finally:
        Database.execute = original


def _assert_row_engine_agrees(issued) -> None:
    for database, sql, seen in issued:
        executor = Executor(database)

        def run(sql):
            # Parsing inside: a query that does not parse is an outcome too.
            return executor.execute(parse(sql) if isinstance(sql, str) else sql)

        assert seen == _outcome(run, sql), sql


@pytest.fixture(scope="module")
def quick_domains():
    return {
        name: adapters.get_adapter(name).build(scale=CONFIG.domain_scale)
        for name in ("cordis", "sdss", "oncomx")
    }


@pytest.mark.parametrize("name", ["cordis", "sdss", "oncomx"])
def test_every_phase2_candidate_matches_the_row_engine(quick_domains, name):
    domain = quick_domains[name]
    seed = derive_seed(CONFIG.seed, f"domain:{name}")
    pipeline = AugmentationPipeline(
        domain,
        model=make_model(GPT3_PROFILE, seed=seed),
        config=PipelineConfig(target_queries=CONFIG.synth_targets[name], seed=seed),
    )
    seeding = extract_templates(domain.seed.pairs, domain.database.schema)
    generator = SqlGenerator(
        domain.database, domain.enhanced, random.Random(seed),
        config=pipeline.config.generation,
    )
    with recording_executions() as issued:
        pipeline._generate_queries(generator, seeding)
    stats = generator.stats
    assert len(issued) == stats.executed
    assert stats.accepted and stats.runtime_rejected  # both kinds covered
    _assert_row_engine_agrees(issued)


@pytest.mark.parametrize("cls", [ValueNet, SmBoP, T5Seq2Seq])
def test_system_candidate_sql_matches_the_row_engine(quick_domains, cls):
    domain = quick_domains["cordis"]
    system = cls()
    system.register_database(domain.name, domain.database, domain.enhanced)
    system.train(list(domain.seed.pairs))
    with recording_executions() as issued:
        system.predict_all(list(domain.dev.pairs))
    assert issued
    _assert_row_engine_agrees(issued)


# -- plan-cache admission ----------------------------------------------------------


def test_one_execution_leaves_no_plan_and_a_second_admits_it(mini_db):
    database = copy.deepcopy(mini_db)  # a fresh engine
    engine = database._engine
    sql = "SELECT objid FROM photoobj WHERE type = 3"
    first = database.execute(sql)
    assert not engine._plans and not engine._plans_by_id
    second = database.execute(sql)
    assert len(engine._plans) == 1 and len(engine._plans_by_id) == 1
    assert first == second == Executor(database).execute(parse(sql))


def test_admission_doorkeeper_is_bounded(mini_db, monkeypatch):
    monkeypatch.setattr(vector_executor, "DOORKEEPER_SIZE", 2)
    database = copy.deepcopy(mini_db)
    engine = database._engine
    for threshold in range(4):
        database.execute(f"SELECT objid FROM photoobj WHERE type > {threshold}")
    assert len(engine._seen) == 2
    # The oldest key aged out: seeing it again counts as a first sighting.
    database.execute("SELECT objid FROM photoobj WHERE type > 0")
    assert not engine._plans


def test_concurrent_executions_share_one_engine(mini_db, monkeypatch):
    """Serving's decode threads share each database's engine: admission,
    LRU eviction and selection caches must not mix results up."""
    import sys
    import threading

    monkeypatch.setattr(vector_executor, "PLAN_CACHE_SIZE", 3)
    monkeypatch.setattr(vector_executor, "DOORKEEPER_SIZE", 4)
    database = copy.deepcopy(mini_db)
    queries = [
        f"SELECT s.class, COUNT(*) FROM specobj AS s JOIN photoobj AS p "
        f"ON s.bestobjid = p.objid WHERE p.type >= {t} GROUP BY s.class"
        for t in range(4)
    ] + [f"SELECT objid FROM photoobj WHERE r > {r}" for r in (16, 17, 18, 19)]
    expected = {sql: Executor(database).execute(parse(sql)) for sql in queries}
    failures: list[str] = []

    def worker(offset: int) -> None:
        for i in range(200):
            sql = queries[(offset + i) % len(queries)]
            if database.execute(sql) != expected[sql]:
                failures.append(sql)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert len(database._engine._plans) <= 3


# -- pickling contract -------------------------------------------------------------


def test_pickle_and_deepcopy_carry_no_engine_state(quick_domains):
    database = quick_domains["sdss"].database
    pairs = list(quick_domains["sdss"].seed.pairs) + list(quick_domains["sdss"].dev.pairs)
    queries = [pair.sql for pair in pairs][:50] * 2  # 100 runs, each twice

    before = pickle.dumps(database)
    for sql in queries:
        database.try_execute(sql)
    after = pickle.dumps(database)
    assert before == after
    assert b"VectorEngine" not in after and b"ColumnStore" not in after

    unpickled = pickle.loads(after)
    deep = copy.deepcopy(database)
    for clone in (unpickled, deep):
        assert clone._engine is not database._engine
        assert clone._engine.database is clone
        assert not clone._engine._plans
    for sql in queries[:50]:
        expected = _outcome(database.execute, sql)
        assert _outcome(unpickled.execute, sql) == expected, sql
        assert _outcome(deep.execute, sql) == expected, sql
