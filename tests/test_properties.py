"""Property-based tests (hypothesis) on the core invariants.

Covered invariants:

* printer/parser round-trip stability for generated SQL ASTs;
* SemQL round-trips never change query semantics (execution equivalence);
* the executor agrees with a naive reference evaluation for filters;
* BLEU identity/bounds, embedding determinism and geometric-median
  permutation stability;
* hardness classification is total over the sampler's query space.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.embeddings import SentenceEmbedder, geometric_median_ranking
from repro.metrics.bleu import corpus_bleu
from repro.spider.hardness import HARDNESS_LEVELS, classify_hardness
from repro.sql import parse, to_sql

# ---------------------------------------------------------------------------
# Strategy: generate small SQL queries over the mini schema.
# ---------------------------------------------------------------------------

_COLUMNS = {
    "specobj": ["specobjid", "bestobjid", "class", "subclass", "z", "ra"],
    "photoobj": ["objid", "u", "r", "type"],
}
_NUMERIC = {"specobjid", "bestobjid", "z", "ra", "objid", "u", "r", "type"}
_TEXT_VALUES = ["GALAXY", "STAR", "QSO", "STARBURST", "AGN", "OB"]


@st.composite
def simple_queries(draw):
    table = draw(st.sampled_from(sorted(_COLUMNS)))
    columns = _COLUMNS[table]
    projection = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True))
    sql = f"SELECT {', '.join(projection)} FROM {table}"

    n_conditions = draw(st.integers(min_value=0, max_value=2))
    conditions = []
    for _ in range(n_conditions):
        column = draw(st.sampled_from(columns))
        if column in _NUMERIC:
            op = draw(st.sampled_from(["=", ">", "<", ">=", "<="]))
            value = draw(st.integers(min_value=-5, max_value=30))
            conditions.append(f"{column} {op} {value}")
        else:
            value = draw(st.sampled_from(_TEXT_VALUES))
            conditions.append(f"{column} = '{value}'")
    if conditions:
        connector = draw(st.sampled_from([" AND ", " OR "]))
        sql += " WHERE " + connector.join(conditions)

    if draw(st.booleans()):
        order = draw(st.sampled_from(columns))
        direction = draw(st.sampled_from(["ASC", "DESC"]))
        sql += f" ORDER BY {order} {direction}"
        if draw(st.booleans()):
            sql += f" LIMIT {draw(st.integers(min_value=1, max_value=5))}"
    return sql


@given(simple_queries())
@settings(max_examples=120, deadline=None)
def test_parse_print_round_trip_fixpoint(sql):
    printed = to_sql(parse(sql))
    assert to_sql(parse(printed)) == printed
    assert parse(printed) == parse(printed)


@given(simple_queries())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_execution_survives_round_trip(mini_db, sql):
    original = mini_db.try_execute(sql)
    assert original is not None
    roundtripped = mini_db.try_execute(to_sql(parse(sql)))
    assert roundtripped is not None
    assert original.to_multiset() == roundtripped.to_multiset()


@given(simple_queries())
@settings(max_examples=60, deadline=None)
def test_hardness_total_function(sql):
    assert classify_hardness(sql) in HARDNESS_LEVELS


@given(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["=", ">", "<", ">=", "<=", "!="]),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_filter_agrees_with_reference(mini_db, threshold, op):
    """The executor's comparison semantics match Python's on clean data."""
    result = mini_db.execute(f"SELECT type FROM photoobj WHERE type {op} {threshold}")
    reference = [
        (v,)
        for v in mini_db.table("photoobj").column_values("type")
        if _apply(op, v, threshold)
    ]
    assert sorted(result.rows) == sorted(reference)


def _apply(op, a, b):
    return {
        "=": a == b,
        "!=": a != b,
        ">": a > b,
        "<": a < b,
        ">=": a >= b,
        "<=": a <= b,
    }[op]


# ---------------------------------------------------------------------------
# Metric properties
# ---------------------------------------------------------------------------

_sentences = st.lists(
    st.sampled_from(
        "find show redshift galaxies stars count average the of all objects".split()
    ),
    min_size=1,
    max_size=8,
).map(" ".join)


@given(_sentences)
@settings(max_examples=60, deadline=None)
def test_bleu_identity_and_bounds(sentence):
    score = corpus_bleu([sentence], [[sentence]])
    assert score.score == pytest.approx(100.0)
    other = corpus_bleu([sentence], [["zebra quantum pickle"]])
    assert 0.0 <= other.score <= 100.0


@given(_sentences)
@settings(max_examples=40, deadline=None)
def test_embeddings_deterministic_and_unit(sentence):
    a = SentenceEmbedder().embed(sentence)
    b = SentenceEmbedder().embed(sentence)
    assert np.allclose(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)


@given(st.lists(_sentences, min_size=2, max_size=6, unique=True), st.randoms())
@settings(max_examples=30, deadline=None)
def test_geometric_median_permutation_invariant(sentences, rng):
    embedder = SentenceEmbedder()
    matrix = embedder.embed_all(sentences)
    similarity = matrix @ matrix.T
    scores = similarity.sum(axis=0)
    tied_best = {
        sentences[i] for i in range(len(sentences)) if scores[i] >= scores.max() - 1e-9
    }
    shuffled = sentences[:]
    random.Random(rng.random()).shuffle(shuffled)
    permuted = geometric_median_ranking(embedder.embed_all(shuffled))
    assert shuffled[permuted[0]] in tied_best


@given(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_result_multiset_symmetry(letters):
    """to_multiset equality is symmetric and reflexive over row orderings."""
    from repro.engine.result import Result

    rows = [(l,) for l in letters]
    a = Result(columns=["x"], rows=rows)
    b = Result(columns=["x"], rows=list(reversed(rows)))
    assert a.to_multiset() == b.to_multiset()
