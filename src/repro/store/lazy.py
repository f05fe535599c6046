"""Per-predicate lazy join indexes over a snapshot.

:class:`LazySnapshotStore` is a :class:`~repro.store.triple_store.TripleStore`
whose pso/pos indexes are *filled one predicate at a time*, on the
first engine touch of that predicate, instead of decoding every block
up front.  Opening a session over a snapshot therefore costs
O(dictionary) — the term dictionaries are adopted verbatim and the
block table already carries exact per-predicate statistics — so a
long-lived server cold-opens in milliseconds and only ever decodes
the predicates its queries actually join on.

Decode-free reads (never trigger a fill):

* ``predicate_count(p)`` — the forward block's edge count;
* ``distinct_subjects(p)`` — the forward block's row count;
* ``distinct_objects(p)`` — the reverse block's row count;
* ``predicate_ids()`` — the predicate dictionary.

:class:`~repro.store.statistics.StoreStatistics` construction (join
ordering, the pruning advisor) reads exactly that surface, so the
whole planning layer runs without touching a single adjacency payload.

Index-backed reads (``objects``/``subjects``/``pairs``/``match_ids``/
``contains_ids``) fill the touched predicate first; a fully wildcard
pattern fills everything, by design.  Each fill increments the
process-wide ``join_index_fills_total`` counter and the store's own
:attr:`fill_count`, which :meth:`SnapshotBackend.stats` surfaces next
to the residency promotion counters — the observability hook behind
the "cold open performs no full-edge scan" acceptance bar.

The store is immutable: a snapshot is a sealed artifact, so ``add``
raises :class:`~repro.errors.StoreError`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterator, Optional, Set, Tuple

from repro.errors import StoreError
from repro.obs.metrics import registry
from repro.rdf.dictionary import TermDictionary
from repro.store.triple_store import IdTriple, TripleStore

__all__ = ["LazySnapshotStore"]


class LazySnapshotStore(TripleStore):
    """Snapshot-backed triple store with per-predicate lazy fill."""

    def __init__(self, reader):
        super().__init__()
        self._reader = reader
        self.nodes = TermDictionary.from_terms(reader.node_terms())
        self.predicates = TermDictionary.from_terms(
            reader.predicate_terms()
        )
        # The header already knows the total; _add_ids never runs.
        self._size = reader.n_triples
        self._filled: Set[int] = set()
        #: How many per-predicate fills have happened (0 == the open
        #: itself decoded nothing).
        self.fill_count = 0

    # -- construction is sealed ------------------------------------------------

    def add(self, subject, predicate, obj) -> bool:
        raise StoreError(
            "snapshot-backed store is immutable; mutate a "
            "GraphDatabase and re-export the snapshot instead"
        )

    def _add_ids(self, s: int, p: int, o: int) -> bool:
        raise StoreError("snapshot-backed store is immutable")

    # -- lazy fill -------------------------------------------------------------

    def _ensure(self, p: int) -> None:
        """Fill predicate ``p``'s pso/pos indexes from its forward
        block (the reverse index is derived in the same pass, so the
        reverse block is never decoded for the join engine)."""
        if p in self._filled:
            return
        if p < 0 or p >= len(self.predicates):
            return
        label = self.predicates.decode(p)
        by_subject: Dict[int, Set[int]] = {}
        by_object: Dict[int, Set[int]] = {}
        for s, o in self._label_pairs(label):
            by_subject.setdefault(s, set()).add(o)
            by_object.setdefault(o, set()).add(s)
        self._pso[p] = by_subject
        self._pos[p] = by_object
        self._filled.add(p)
        self.fill_count += 1
        registry().counter("join_index_fills_total").inc()

    def _label_pairs(self, label: str) -> Iterator[Tuple[int, int]]:
        subjects, objects = self._reader.adjacency(label, "forward").edges()
        return zip(subjects.tolist(), objects.tolist())

    def _ensure_all(self) -> None:
        for p in range(len(self.predicates)):
            self._ensure(p)

    def fill_all(self) -> None:
        """Materialize every predicate (the old eager behaviour)."""
        self._ensure_all()

    @property
    def filled_predicates(self) -> FrozenSet[int]:
        return frozenset(self._filled)

    # -- decode-free statistics (straight from the block table) ----------------

    def predicate_count(self, p: int) -> int:
        if p in self._filled:
            return super().predicate_count(p)
        if p < 0 or p >= len(self.predicates):
            return 0
        return self._reader.n_label_edges(self.predicates.decode(p))

    def distinct_subjects(self, p: int) -> int:
        if p in self._filled:
            return super().distinct_subjects(p)
        if p < 0 or p >= len(self.predicates):
            return 0
        label = self.predicates.decode(p)
        return self._reader._entry(label, "forward").n_rows

    def distinct_objects(self, p: int) -> int:
        if p in self._filled:
            return super().distinct_objects(p)
        if p < 0 or p >= len(self.predicates):
            return 0
        label = self.predicates.decode(p)
        return self._reader._entry(label, "backward").n_rows

    def predicate_ids(self) -> Iterator[int]:
        return iter(range(len(self.predicates)))

    # -- index-backed reads fill first -----------------------------------------

    def contains_ids(self, s: int, p: int, o: int) -> bool:
        self._ensure(p)
        return super().contains_ids(s, p, o)

    def objects(self, s: int, p: int) -> Set[int]:
        self._ensure(p)
        return super().objects(s, p)

    def subjects(self, p: int, o: int) -> Set[int]:
        self._ensure(p)
        return super().subjects(p, o)

    def pairs(self, p: int) -> Iterator[Tuple[int, int]]:
        self._ensure(p)
        return super().pairs(p)

    def match_ids(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
    ) -> Iterator[IdTriple]:
        if p is not None:
            self._ensure(p)
        else:
            self._ensure_all()
        return super().match_ids(s, p, o)

    def __repr__(self) -> str:
        return (
            f"LazySnapshotStore(triples={self._size}, "
            f"filled={len(self._filled)}/{len(self.predicates)})"
        )
