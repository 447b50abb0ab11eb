"""Columnar batches: selection vectors over per-source base columns.

A :class:`Batch` is the vector engine's intermediate result: one
:class:`SourceView` per FROM/JOIN source, each holding the source's base
column vectors plus a selection-index list.  All views of a batch have the
same length; row ``j`` of the logical joined relation is the combination of
``view.indices[j]`` across views.  Columns materialise lazily (one gather
per referenced column) — filters and joins only ever touch the columns
their predicates and keys name.

Row-order contract: the row engine emits joined rows in lexicographic
order of per-source row ids, sources taken in FROM/JOIN declaration order.
A batch tracks whether its physical order still *is* that order
(``canonical``); when the planner's join reordering breaks it,
:func:`restore_order` sorts the final batch by the declaration-ordered
row-id tuples — giving the planner full reordering freedom while keeping
output rows byte-identical to the row engine.
"""

from __future__ import annotations

from repro.engine.vector.columns import ColumnTable

#: Selection index marking an all-NULL pseudo row (the representative row
#: of a global aggregate over an empty input).
NULL_ROW = -1


class SourceView:
    """One FROM/JOIN source inside a batch: base columns + selection."""

    __slots__ = (
        "binding", "decl", "columns", "_vectors", "indices", "has_null", "full",
    )

    def __init__(
        self,
        binding: str,
        decl: int,
        columns: list[str],
        vectors: list[list],
        indices: list[int],
        has_null: bool = False,
        full: bool = False,
    ) -> None:
        self.binding = binding
        self.decl = decl
        self.columns = columns
        self._vectors = vectors
        self.indices = indices
        self.has_null = has_null
        #: True when ``indices`` is the untouched all-rows selection, so
        #: ``column`` can return the base vector without a gather copy.
        self.full = full

    @classmethod
    def from_table(cls, binding: str, decl: int, table: ColumnTable) -> "SourceView":
        vectors = [table.vector(i) for i in range(len(table.columns))]
        return cls(
            binding, decl, table.columns, vectors, table.identity, full=True
        )

    @classmethod
    def from_rows(
        cls, binding: str, decl: int, columns: list[str], rows: list[tuple]
    ) -> "SourceView":
        """Decompose a derived table's row-shaped result."""
        vectors: list[list] = [
            [row[i] for row in rows] for i in range(len(columns))
        ]
        return cls(
            binding, decl, [c.lower() for c in columns], vectors,
            list(range(len(rows))), full=True,
        )

    def __len__(self) -> int:
        return len(self.indices)

    def column(self, position: int) -> list:
        """Materialise one column under the current selection."""
        base = self._vectors[position]
        if self.full:
            return base
        if self.has_null:
            return [None if i == NULL_ROW else base[i] for i in self.indices]
        return [base[i] for i in self.indices]

    def take(self, positions: list[int]) -> "SourceView":
        """Compose the selection with ``positions`` (indices into this view).
        Views never mutate their index list, so sharing ``positions`` across
        the views of a batch is safe."""
        if self.full:
            return SourceView(
                self.binding, self.decl, self.columns, self._vectors,
                positions, self.has_null,
            )
        indices = self.indices
        return SourceView(
            self.binding, self.decl, self.columns, self._vectors,
            [indices[p] for p in positions], self.has_null,
        )

    def null_view(self) -> "SourceView":
        """A one-row view whose every column reads NULL."""
        return SourceView(
            self.binding, self.decl, self.columns, self._vectors,
            [NULL_ROW], has_null=True,
        )


class Batch:
    """A fixed-length collection of equally-selected source views."""

    __slots__ = ("views", "n", "canonical")

    def __init__(self, views: list[SourceView], n: int, canonical: bool) -> None:
        self.views = views
        self.n = n
        self.canonical = canonical

    @classmethod
    def unit(cls) -> "Batch":
        """The one-pseudo-row batch of a FROM-less select."""
        return cls([], 1, True)

    @classmethod
    def from_view(cls, view: SourceView) -> "Batch":
        return cls([view], len(view), True)

    def column(self, binding: str, position: int) -> list:
        for view in self.views:
            if view.binding == binding:
                return view.column(position)
        raise KeyError(binding)

    def take(self, positions: list[int], monotonic: bool = False) -> "Batch":
        """Select ``positions`` from every view.  ``monotonic`` asserts the
        positions are strictly increasing (a filter), which preserves the
        canonical row order; any other selection loses it."""
        views = [view.take(positions) for view in self.views]
        return Batch(views, len(positions), self.canonical and monotonic)

    def null_row(self) -> "Batch":
        """A one-row batch whose every column reads NULL (the representative
        row of an empty global aggregate group)."""
        return Batch([view.null_view() for view in self.views], 1, False)


def restore_order(batch: Batch) -> Batch:
    """Sort a batch back into the row engine's declaration-order row-id
    order (a no-op when the physical order is already canonical)."""
    if batch.canonical or batch.n <= 1 or not batch.views:
        return batch
    ordered_views = sorted(batch.views, key=lambda view: view.decl)
    index_lists = [view.indices for view in ordered_views]
    positions = sorted(
        range(batch.n), key=lambda j: tuple(ids[j] for ids in index_lists)
    )
    taken = batch.take(positions)
    taken.canonical = True
    return taken
