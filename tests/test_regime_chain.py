"""Chained Table-5 training: a forked system continues its parent's training.

``train:<sys>:<domain>:both`` forks the trained ``seed`` system, which forks
``zero``, so each regime observes only the pairs its base did not.  These
tests pin the contract that makes the chain invisible in the tables: the
fork's learned state is byte-identical to training the concatenated pairs
from scratch, and training the fork never changes the parent (lexicons are
copy-on-write and shared with it).
"""

from __future__ import annotations

import pickle

import pytest

from repro.datasets.records import NLSQLPair
from repro.experiments import ExperimentConfig
from repro.experiments.tasks import (
    CORPUS_TASK,
    DOMAIN_REGIMES,
    SPIDER_REGIMES,
    SYNTH_SPIDER_TASK,
    build_suite_graph,
    domain_task,
    train_task,
)
from repro.nl2sql import SmBoP, T5Seq2Seq, ValueNet
from repro.spider import build_corpus

SYSTEMS = (ValueNet, T5Seq2Seq, SmBoP)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(train_per_db=12, dev_per_db=2)


def make_system(cls, corpus, domain):
    system = cls()
    for db_id, database in corpus.databases.items():
        system.register_database(db_id, database, corpus.enhanced[db_id])
    system.register_database(domain.name, domain.database, domain.enhanced)
    return system


def fingerprint(system) -> dict[str, bytes]:
    """Pickled learned state, one entry per store (so sharing between stores
    does not change the bytes)."""
    state = {
        f"lexicon:{db_id}": pickle.dumps(lexicon)
        for db_id, lexicon in system._lexicons.items()
    }
    state["templates"] = pickle.dumps(system.templates.entries)
    if isinstance(system, T5Seq2Seq):
        state["memory"] = pickle.dumps(system._memory)
    if isinstance(system, SmBoP):
        state["projection_counts"] = pickle.dumps(system._projection_counts)
    return state


@pytest.mark.parametrize("cls", SYSTEMS)
def test_fork_chain_matches_training_from_scratch(cls, corpus, sdss_domain):
    prefix = list(corpus.train.pairs)
    seed = list(sdss_domain.seed.pairs)
    first, second = seed[: len(seed) // 2], seed[len(seed) // 2 :]

    fresh = make_system(cls, corpus, sdss_domain)
    fresh.train(prefix + first + second)

    zero = make_system(cls, corpus, sdss_domain)
    zero.train(prefix)
    zero_before = fingerprint(zero)
    middle = zero.fork()
    middle.train(first)
    middle_before = fingerprint(middle)
    child = middle.fork()
    child.train(second)

    assert fingerprint(child) == fingerprint(fresh)
    # Aliasing guard: neither ancestor moved while its descendants trained.
    assert fingerprint(zero) == zero_before
    assert fingerprint(middle) == middle_before
    dev = sdss_domain.dev.pairs[:6]
    assert child.predict_all(dev) == fresh.predict_all(dev)


def test_fork_copies_only_the_lexicons_it_trains(corpus, sdss_domain):
    zero = make_system(ValueNet, corpus, sdss_domain)
    zero.train(list(corpus.train.pairs))
    child = zero.fork()
    child.train(list(sdss_domain.seed.pairs))
    assert child._lexicons["sdss"] is not zero._lexicons["sdss"]
    assert child._lexicons["concert_singer"] is zero._lexicons["concert_singer"]
    assert child.templates.entries is not zero.templates.entries
    # A second training pass on a Spider database copies that lexicon too.
    spider_pair = next(p for p in corpus.train.pairs if p.db_id == "concert_singer")
    child.train([spider_pair])
    assert child._lexicons["concert_singer"] is not zero._lexicons["concert_singer"]
    assert zero._lexicons["concert_singer"].n_pairs + 1 == (
        child._lexicons["concert_singer"].n_pairs
    )


def test_fork_starts_with_an_empty_link_memo(corpus, sdss_domain):
    zero = make_system(ValueNet, corpus, sdss_domain)
    zero.train(list(corpus.train.pairs))
    zero.predict("How many objects are there?", "sdss")
    assert zero._link_cache
    child = zero.fork()
    assert not child._link_cache
    child.predict("How many galaxies are there?", "sdss")
    assert ("sdss", "How many galaxies are there?") not in zero._link_cache


@pytest.mark.parametrize("cls", SYSTEMS)
def test_out_of_grammar_pair_keeps_each_store_semantics(cls, mini_db, mini_enhanced):
    """One lift per pair: the out-of-grammar pair still counts in the
    lexicon's n-gram frequencies and in T5's memory, and nowhere else."""
    good = NLSQLPair(
        question="Show the redshift of galaxies.",
        sql="SELECT z FROM specobj WHERE class = 'GALAXY'",
        db_id="mini_sdss",
    )
    bad = NLSQLPair(question="weird redshift question", sql="SELECT a FROM nope WHERE",
                    db_id="mini_sdss")

    def trained(pairs):
        system = cls()
        system.register_database("mini_sdss", mini_db, mini_enhanced)
        system.train(pairs)
        return system

    with_bad, without = trained([good, bad]), trained([good])
    lexicon, reference = with_bad._lexicons["mini_sdss"], without._lexicons["mini_sdss"]
    assert lexicon.n_pairs == reference.n_pairs + 1
    assert lexicon.ngram_freq["weird"] == 1
    assert lexicon.column_assoc == reference.column_assoc
    assert lexicon.table_assoc == reference.table_assoc
    assert lexicon.value_assoc == reference.value_assoc
    assert pickle.dumps(with_bad.templates.entries) == pickle.dumps(without.templates.entries)
    if isinstance(with_bad, T5Seq2Seq):
        assert len(with_bad._memory) == 2
        _, pair, template, structure = with_bad._memory[1]
        assert pair is bad and template is None and structure is None
    if isinstance(with_bad, SmBoP):
        assert with_bad._projection_counts == without._projection_counts


def test_suite_graph_chains_the_regimes():
    graph = build_suite_graph(ExperimentConfig(domains=("cordis", "sdss")))
    expected_base = {"seed": "zero", "synth": "zero", "both": "seed"}
    for system in ("valuenet", "t5-large", "smbop"):
        for name in ("cordis", "sdss"):
            for regime in DOMAIN_REGIMES:
                deps = dict(graph.task(train_task(system, name, regime)).deps)
                if regime == "zero":
                    assert "base" not in deps
                    assert deps["corpus"] == CORPUS_TASK
                    assert domain_task("sdss") in deps and domain_task("cordis") in deps
                else:
                    assert deps == {
                        "base": train_task(system, name, expected_base[regime]),
                        domain_task(name): domain_task(name),
                    }
        spider = {r: dict(graph.task(train_task(system, "spider", r)).deps)
                  for r in SPIDER_REGIMES}
        assert spider["zero"] == {"corpus": CORPUS_TASK}
        assert spider["plus-synth"] == {
            "base": train_task(system, "spider", "zero"),
            SYNTH_SPIDER_TASK: SYNTH_SPIDER_TASK,
        }
        assert spider["synth-only"] == {
            "corpus": CORPUS_TASK,
            SYNTH_SPIDER_TASK: SYNTH_SPIDER_TASK,
        }
