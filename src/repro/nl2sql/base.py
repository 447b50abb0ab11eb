"""Common infrastructure of the trainable NL-to-SQL systems.

A system is trained on NL/SQL pairs spanning any number of databases (the
Table 5 regimes mix MiniSpider with domain seed/synth splits) and is asked
to predict SQL for questions over a *registered* database, which supplies
schema, content index and enhanced metadata — mirroring how the paper's
systems receive the target database and its NL column labels at inference.

Training populates two stores per system:

* a per-database :class:`~repro.nl2sql.lexicon.LearnedLexicon` — domain
  phrasing only helps on the domain it was learned from;
* a global :class:`~repro.nl2sql.templates_store.TemplateStore` — query
  *structure* transfers across databases, which is why Spider-trained
  systems produce plausible-but-wrong SQL on scientific domains rather than
  nothing at all.
"""

from __future__ import annotations

import abc
import copy
from collections import OrderedDict
from dataclasses import dataclass

from repro.datasets.records import NLSQLPair
from repro.engine.database import Database
from repro.errors import TrainingError
from repro.nl2sql.lexicon import LearnedLexicon
from repro.nl2sql.linking import Links, SchemaLinker
from repro.nl2sql.observation import LiftedSQL, lift_sql
from repro.nl2sql.templates_store import TemplateStore
from repro.schema.enhanced import EnhancedSchema


@dataclass
class DomainContext:
    """Everything a system may consult about one registered database."""

    db_id: str
    database: Database
    enhanced: EnhancedSchema


class NLToSQLSystem(abc.ABC):
    """Base class: registration, training bookkeeping, linking."""

    name: str = "abstract"

    #: Bound of the per-system schema-linking memo (see :meth:`link`).
    LINK_CACHE_SIZE = 512

    def __init__(self) -> None:
        self._contexts: dict[str, DomainContext] = {}
        self._linkers: dict[str, SchemaLinker] = {}
        self._lexicons: dict[str, LearnedLexicon] = {}
        #: Databases whose lexicon this system may mutate; the rest are
        #: borrowed from the system it was forked from (see :meth:`fork`).
        self._owned_lexicons: set[str] = set()
        self.templates = TemplateStore()
        self._trained = False
        self._link_cache: OrderedDict[tuple[str, str], Links] = OrderedDict()

    # -- registration -------------------------------------------------------------

    def register_database(
        self, db_id: str, database: Database, enhanced: EnhancedSchema
    ) -> None:
        """Make a database available for training and prediction."""
        context = DomainContext(db_id=db_id, database=database, enhanced=enhanced)
        self._contexts[db_id] = context
        self._linkers[db_id] = SchemaLinker(database, enhanced)
        if db_id not in self._lexicons:
            self._lexicons[db_id] = LearnedLexicon(db_id=db_id)
            self._owned_lexicons.add(db_id)
        self._link_cache.clear()

    def context(self, db_id: str) -> DomainContext:
        try:
            return self._contexts[db_id]
        except KeyError:
            raise TrainingError(f"database {db_id!r} was never registered") from None

    # -- training -------------------------------------------------------------------

    def train(self, pairs: list[NLSQLPair]) -> None:
        """Train on NL/SQL pairs (all referenced databases must be registered).

        Training is incremental: a second call continues from the state the
        first left, exactly as if both pair lists had been one.  Each pair's
        SQL is lifted to SemQL once and every store learns from that.
        """
        if not pairs:
            raise TrainingError("no training pairs supplied")
        for pair in pairs:
            context = self.context(pair.db_id)
            lifted = lift_sql(pair.sql, context.database.schema)
            self._own_lexicon(pair.db_id).observe(pair.question, lifted)
            self.templates.observe(pair.question, lifted)
            self._observe(pair, context, lifted)
        self._trained = True
        # Training updates the lexicons, which feed linking.
        self._link_cache.clear()

    def _observe(self, pair: NLSQLPair, context: DomainContext, lifted: LiftedSQL) -> None:
        """Hook for system-specific training statistics."""

    # -- forking --------------------------------------------------------------------

    def fork(self) -> "NLToSQLSystem":
        """A system that continues training from this one's learned state.

        ``parent.fork().train(more)`` learns exactly what a fresh system
        learns from ``prefix + more`` when the parent was trained on
        ``prefix``.  The fork shares the registered contexts, linkers and
        databases, copies the template store and system statistics (see
        :meth:`_fork_state`) and starts with an empty link memo.  Lexicons
        are copy-on-write: the fork borrows the parent's and copies one only
        when a training pair first touches its database.  Training the fork
        never changes the parent; the parent itself must not be trained
        again once forked, since its lexicons are then shared.
        """
        child = copy.copy(self)
        child._contexts = dict(self._contexts)
        child._linkers = dict(self._linkers)
        child._lexicons = dict(self._lexicons)
        child._owned_lexicons = set()
        child.templates = self.templates.copy()
        child._link_cache = OrderedDict()
        self._fork_state(child)
        return child

    def _fork_state(self, child: "NLToSQLSystem") -> None:
        """Hook: give ``child`` its own copy of system-specific learned state."""

    def _own_lexicon(self, db_id: str) -> LearnedLexicon:
        """The lexicon of ``db_id``, copied first if it is borrowed from a parent."""
        lexicon = self._lexicons[db_id]
        if db_id not in self._owned_lexicons:
            lexicon = self._lexicons[db_id] = lexicon.copy()
            self._owned_lexicons.add(db_id)
        return lexicon

    # -- prediction -------------------------------------------------------------------

    def link(self, question: str, db_id: str) -> Links:
        """Schema-link a question (memoized).

        Linking is deterministic in (question, database, lexicon) and no
        consumer mutates the returned :class:`Links`, so results are shared
        through a bounded LRU — a micro-batch warms the memo once and every
        decode inside the batch reuses it.  Training and registration clear
        the memo because both change what linking would return.
        """
        key = (db_id, question)
        cached = self._link_cache.get(key)
        if cached is not None:
            self._link_cache.move_to_end(key)
            return cached
        lexicon = self._lexicons.get(db_id)
        links = self._linkers[db_id].link(question, learned=lexicon)
        self._link_cache[key] = links
        if len(self._link_cache) > self.LINK_CACHE_SIZE:
            self._link_cache.popitem(last=False)
        return links

    def predict(self, question: str, db_id: str) -> str | None:
        """Predict SQL for a question over a registered database."""
        if not self._trained:
            raise TrainingError(f"{self.name} must be trained before predicting")
        return self._predict(question, self.context(db_id))

    @abc.abstractmethod
    def _predict(self, question: str, context: DomainContext) -> str | None:
        """System-specific decoding."""

    def predict_batch(self, questions: list[str], db_id: str) -> list[str | None]:
        """Predict SQL for a batch of questions over one database.

        Byte-identical to calling :meth:`predict` per question — decoding is
        deterministic and pure, which is what lets the serving layer batch
        freely.  Exact duplicate questions decode once; schema linking is
        shared through the link memo.
        """
        if not self._trained:
            raise TrainingError(f"{self.name} must be trained before predicting")
        context = self.context(db_id)
        decoded: dict[str, str | None] = {}
        results: list[str | None] = []
        for question in questions:
            if question not in decoded:
                decoded[question] = self._predict(question, context)
            results.append(decoded[question])
        return results

    def predict_all(self, pairs: list[NLSQLPair]) -> list[str | None]:
        """Predictions for mixed-database pairs, batched per database.

        Offline evaluation (Table 5) and serving share this one inference
        path; outputs are identical to per-pair :meth:`predict` calls.
        """
        results: list[str | None] = [None] * len(pairs)
        by_db: dict[str, list[int]] = {}
        for index, pair in enumerate(pairs):
            by_db.setdefault(pair.db_id, []).append(index)
        for db_id, indices in by_db.items():
            batch = self.predict_batch([pairs[i].question for i in indices], db_id)
            for index, sql in zip(indices, batch):
                results[index] = sql
        return results
