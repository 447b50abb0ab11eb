"""One training pair's SQL, lifted once for every store that learns from it.

Training feeds each NL/SQL pair to several consumers — the per-database
lexicon, the template store and the system's own ``_observe`` hook — and
all of them need the same front-end work: parse the SQL, lift it to SemQL
and, for the template consumers, anonymize the tree into a template.
:func:`lift_sql` does that work once per pair; consumers read the resulting
:class:`LiftedSQL`.  SemQL nodes and :class:`Template` are frozen, so one
lifted pair is safely shared by every consumer.

Each consumer keeps its own failure semantics on top of the two ``None``
cases: the lexicon still counts n-grams of an out-of-grammar pair, the
template store skips a pair without a template, T5 keeps the pair in its
memory with ``template=None``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.schema.model import Schema
from repro.semql import nodes as sq
from repro.semql.from_sql import sql_to_semql
from repro.semql.templates import Template, extract_template
from repro.sql import parse


@dataclass(frozen=True)
class LiftedSQL:
    """A pair's SQL as SemQL: ``tree`` is ``None`` when the SQL is outside
    the grammar, ``template`` is ``None`` when no template was extracted."""

    tree: sq.Z | None
    template: Template | None


def lift_sql(sql: str, schema: Schema) -> LiftedSQL:
    """Parse ``sql``, lift it to SemQL over ``schema`` and extract its template."""
    try:
        tree = sql_to_semql(parse(sql), schema)
    except ReproError:
        return LiftedSQL(tree=None, template=None)
    try:
        template = extract_template(tree, source_sql=sql)
    except ReproError:
        template = None
    return LiftedSQL(tree=tree, template=template)
