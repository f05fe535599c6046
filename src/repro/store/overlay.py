"""Mutable overlay over an immutable base backend (LSM-style).

:class:`OverlayBackend` is the third :class:`~repro.api.backend.GraphBackend`:
it wraps any *base* backend (in-memory or snapshot) plus an in-memory
delta of added and retracted triples, and is the only backend that
advertises ``writable`` in its capabilities.  All mutation flows
through :meth:`OverlayBackend.add` / :meth:`OverlayBackend.retract`
(the :class:`~repro.api.database.Database` write surface); the base is
never touched, so compaction (:meth:`repro.api.database.Database.compact`)
is simply exporting the merged view through the existing
:class:`~repro.storage.writer.SnapshotWriter`.

Semantics are RDF set semantics: adding a present triple and
retracting an absent one are no-ops, add-then-retract of a delta
triple cancels out, and re-adding a retracted base triple drops the
retraction — the delta is always the *minimal* diff against the base.

The solver-facing view (:class:`OverlayGraphView`) keeps per-label
adjacency current the same way :class:`~repro.storage.TieredGraphView`
keeps residency current: it is one long-lived object (the pruning
pipeline identity-checks it) whose matrix mapping serves *clean*
labels zero-copy from the base and rebuilds *dirty* labels (base rows
minus retractions plus additions) on first touch after a mutation.
Every mutation batch bumps an **epoch** and stamps the touched labels;
:meth:`OverlayGraphView.changed_since` is the contract the incremental
fixpoint maintenance layer (:mod:`repro.core.incremental`) uses to
decide which solver variables a delta can re-activate.

The join-engine store (:class:`OverlayTripleStore`) mirrors
:class:`~repro.store.lazy.LazySnapshotStore`: per-predicate lazy fill
from the overlay's merged adjacency, decode-free statistics delegated
to the base store for clean predicates, and mutation pushed in by the
backend invalidating exactly the touched predicates' indexes.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.bitvec import Bitset, LabelMatrixPair
from repro.errors import GraphError, StoreError
from repro.graph.database import Literal
from repro.obs.metrics import registry
from repro.obs.trace import current_tracer
from repro.rdf.dictionary import TermDictionary
from repro.store.triple_store import IdTriple, NameTriple, TripleStore

__all__ = ["OverlayBackend", "OverlayGraphView", "OverlayTripleStore"]

IdPair = Tuple[int, int]


class OverlayMatrices:
    """Mapping ``label -> LabelMatrixPair`` over base + delta.

    Clean labels (no delta touching them, no new nodes) are served
    zero-copy from the base's mapping — for a snapshot base that keeps
    tiered promotion/demotion semantics intact.  Dirty labels are
    rebuilt lazily by the view and cached until their next mutation.
    """

    def __init__(self, view: "OverlayGraphView"):
        self._view = view

    def __getitem__(self, label: str) -> LabelMatrixPair:
        pair = self.get(label)
        if pair is None:
            raise KeyError(label)
        return pair

    def get(self, label: str, default=None):
        view = self._view
        if view._is_clean(label):
            pair = view._base_matrices().get(label)
            return default if pair is None else pair
        if label not in view.labels:  # e.g. fully retracted
            return default
        return view._pair_for(label)

    def summaries(self, label: str) -> Optional[Tuple[Bitset, Bitset]]:
        """(forward, backward) Eq. (13) summaries of the merged label.

        Clean labels delegate to the base's promotion-free summary
        path when it has one; dirty labels answer from the rebuilt
        pair (whose summaries fall out of the build)."""
        view = self._view
        if view._is_clean(label):
            base = view._base_matrices()
            probe = getattr(base, "summaries", None)
            if probe is not None:
                return probe(label)
        pair = self.get(label)
        if pair is None:
            return None
        return (pair.forward.summary, pair.backward.summary)

    def __contains__(self, label: str) -> bool:
        return label in self._view.labels

    def __iter__(self) -> Iterator[str]:
        return iter(self._view.labels)

    def __len__(self) -> int:
        return len(self._view.labels)

    def keys(self) -> Iterator[str]:
        return iter(self._view.labels)

    def values(self) -> Iterator[LabelMatrixPair]:
        for label in self._view.labels:
            yield self[label]

    def items(self) -> Iterator[Tuple[str, LabelMatrixPair]]:
        for label in self._view.labels:
            yield (label, self[label])


class OverlayGraphView:
    """Solver-facing merged adjacency: base graph + delta.

    Satisfies the same read interface as
    :class:`~repro.graph.graph.Graph` / ``TieredGraphView`` (the
    surface :class:`~repro.pipeline.PruningPipeline` consumes), plus
    the mutation bookkeeping the overlay needs: :meth:`apply` for
    delta batches, :attr:`epoch` / :meth:`changed_since` for the
    incremental maintenance layer.

    Node indices extend the base's dense index space: base nodes keep
    their indices, nodes first seen in the delta are appended.  The
    base is treated as frozen — mutate only through the overlay.
    """

    def __init__(self, base):
        self._base = base
        self._base_graph = base.graph
        self._base_n = base.n_nodes
        self._base_labels: Set[str] = set(base.labels)
        self._new_names: List[Hashable] = []
        self._new_index: Dict[Hashable, int] = {}
        #: label -> {(src, dst)} edges added on top of the base.
        self._adds: Dict[str, Set[IdPair]] = {}
        #: label -> {(src, dst)} base edges currently retracted.
        self._retracts: Dict[str, Set[IdPair]] = {}
        self._n_added = 0
        self._n_retracted = 0
        #: Rebuilt pairs of dirty labels (cleared on their mutation).
        self._pairs: Dict[str, LabelMatrixPair] = {}
        self._matrices = OverlayMatrices(self)
        #: Bumped once per mutation batch that changed anything.
        self._epoch = 0
        #: label -> epoch of its last change.
        self._label_epoch: Dict[str, int] = {}
        #: Epoch of the last node addition (index space growth).
        self._node_epoch = 0

    # -- delta bookkeeping -------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    def changed_since(self, epoch: int) -> Optional[Set[str]]:
        """Labels mutated after ``epoch``, or ``None`` when the node
        index space itself grew (a structural change incremental
        maintenance cannot localize — callers re-solve cold)."""
        if self._node_epoch > epoch:
            return None
        return {
            label for label, at in self._label_epoch.items() if at > epoch
        }

    @property
    def n_delta_added(self) -> int:
        return self._n_added

    @property
    def n_delta_retracted(self) -> int:
        return self._n_retracted

    @property
    def n_new_nodes(self) -> int:
        return len(self._new_names)

    def delta_labels(self) -> Set[str]:
        """Labels currently carrying any delta edge."""
        out = {label for label, edges in self._adds.items() if edges}
        out |= {label for label, edges in self._retracts.items() if edges}
        return out

    def _is_clean(self, label: str) -> bool:
        if self._new_names:
            return False
        if self._adds.get(label):
            return False
        if self._retracts.get(label):
            return False
        return True

    def _base_matrices(self):
        return self._base_graph.matrices()

    def _intern(self, name: Hashable) -> int:
        idx = self._base_graph.node_index(name) if (
            self._base_graph.has_node(name)
        ) else self._new_index.get(name)
        if idx is None:
            idx = self._base_n + len(self._new_names)
            self._new_index[name] = idx
            self._new_names.append(name)
        return idx

    def _index_of(self, name: Hashable) -> Optional[int]:
        if self._base_graph.has_node(name):
            return self._base_graph.node_index(name)
        return self._new_index.get(name)

    def _base_has_edge(self, s: int, label: str, d: int) -> bool:
        if s >= self._base_n or d >= self._base_n:
            return False
        if label not in self._base_labels:
            return False
        pair = self._base_matrices().get(label)
        return pair is not None and pair.forward.has_edge(s, d)

    def _has_edge_ids(self, s: int, label: str, d: int) -> bool:
        if (s, d) in self._adds.get(label, ()):
            return True
        if (s, d) in self._retracts.get(label, ()):
            return False
        return self._base_has_edge(s, label, d)

    def _add_one(self, subject, label, obj) -> bool:
        if isinstance(subject, Literal):
            raise GraphError(
                f"literals may only occur as objects, not subjects: "
                f"{subject!r}"
            )
        if label is None or (isinstance(label, str) and not label):
            raise GraphError(f"edge label must be non-empty: {label!r}")
        s = self._intern(subject)
        d = self._intern(obj)
        if self._has_edge_ids(s, label, d):
            return False
        retracted = self._retracts.get(label)
        if retracted and (s, d) in retracted:
            retracted.discard((s, d))
            self._n_retracted -= 1
        else:
            self._adds.setdefault(label, set()).add((s, d))
            self._n_added += 1
        return True

    def _retract_one(self, subject, label, obj) -> bool:
        s = self._index_of(subject)
        d = self._index_of(obj)
        if s is None or d is None:
            return False
        if not self._has_edge_ids(s, label, d):
            return False
        added = self._adds.get(label)
        if added and (s, d) in added:
            added.discard((s, d))
            self._n_added -= 1
        else:
            self._retracts.setdefault(label, set()).add((s, d))
            self._n_retracted += 1
        return True

    def apply(
        self,
        adds: Iterable[NameTriple] = (),
        retracts: Iterable[NameTriple] = (),
    ) -> Tuple[int, Set[str], int]:
        """Apply one mutation batch; returns ``(n_applied,
        touched_labels, n_new_nodes)``.

        No-ops (adding present, retracting absent triples) neither
        count nor dirty anything; a batch that changes nothing does
        not bump the epoch."""
        touched: Set[str] = set()
        nodes_before = len(self._new_names)
        n_add = n_retract = 0
        for subject, label, obj in adds:
            if self._add_one(subject, label, obj):
                n_add += 1
                touched.add(label)
        for subject, label, obj in retracts:
            if self._retract_one(subject, label, obj):
                n_retract += 1
                touched.add(label)
        new_nodes = len(self._new_names) - nodes_before
        if not touched and not new_nodes:
            return (0, touched, 0)
        self._epoch += 1
        for label in touched:
            self._label_epoch[label] = self._epoch
            self._pairs.pop(label, None)
        if new_nodes:
            # The index space grew: every cached pair is the wrong
            # width now (rebuilt at the new n on next touch).
            self._node_epoch = self._epoch
            self._pairs.clear()
        if n_add:
            registry().counter("overlay_adds_total").inc(n_add)
        if n_retract:
            registry().counter("overlay_retracts_total").inc(n_retract)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "mutation",
                epoch=self._epoch,
                added=n_add,
                retracted=n_retract,
                new_nodes=new_nodes,
                labels=",".join(sorted(touched)),
            )
        return (n_add + n_retract, touched, new_nodes)

    # -- dirty-pair rebuild ------------------------------------------------

    def _build_pair(self, label: str) -> LabelMatrixPair:
        """Base CSR edges minus retractions plus additions, at the
        current node width."""
        n = self.n_nodes
        sources: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        if label in self._base_labels:
            base_pair = self._base_matrices().get(label)
            if base_pair is not None:
                base_s, base_d = base_pair.forward.edges()
                retracted = self._retracts.get(label)
                if retracted:
                    gone = np.fromiter(
                        (s * n + d for s, d in retracted), np.int64,
                        len(retracted),
                    )
                    keep = ~np.isin(base_s * n + base_d, gone)
                    base_s, base_d = base_s[keep], base_d[keep]
                sources.append(base_s)
                targets.append(base_d)
        added = self._adds.get(label)
        if added:
            sources.append(np.fromiter(
                (s for s, _ in added), np.int64, len(added)
            ))
            targets.append(np.fromiter(
                (d for _, d in added), np.int64, len(added)
            ))
        if not sources:
            return LabelMatrixPair(n)
        return LabelMatrixPair.from_edges(
            n, np.concatenate(sources), np.concatenate(targets)
        )

    def _pair_for(self, label: str) -> Optional[LabelMatrixPair]:
        if label not in self._base_labels and not self._adds.get(label):
            return None
        pair = self._pairs.get(label)
        if pair is None:
            pair = self._build_pair(label)
            self._pairs[label] = pair
        return pair

    # -- Graph adjacency interface -----------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._base_n + len(self._new_names)

    @property
    def n_edges(self) -> int:
        return self._base.n_triples + self._n_added - self._n_retracted

    @property
    def n_triples(self) -> int:
        return self.n_edges

    @property
    def labels(self) -> Set[str]:
        out = set(self._base_labels)
        for label, edges in self._adds.items():
            if edges:
                out.add(label)
        for label, edges in self._retracts.items():
            # A fully-retracted base label disappears, exactly as it
            # would from a compacted snapshot.
            if edges and label in out and not self._adds.get(label):
                pair = self._pair_for(label)
                if pair is None or pair.n_edges == 0:
                    out.discard(label)
        return out

    def matrices(self) -> OverlayMatrices:
        return self._matrices

    def label_matrix(self, label: str) -> Optional[LabelMatrixPair]:
        return self._matrices.get(label)

    def nodes(self) -> Iterator[Hashable]:
        return chain(self._base_graph.nodes(), iter(self._new_names))

    def node_name(self, index: int) -> Hashable:
        if index < self._base_n:
            return self._base_graph.node_name(index)
        return self._new_names[index - self._base_n]

    def node_index(self, name: Hashable) -> int:
        idx = self._index_of(name)
        if idx is None:
            raise GraphError(f"unknown node: {name!r}")
        return idx

    def has_node(self, name: Hashable) -> bool:
        return self._index_of(name) is not None

    def nodes_bitset(self, names: Iterable[Hashable]) -> Bitset:
        return Bitset.from_indices(
            self.n_nodes, (self.node_index(n) for n in names)
        )

    def triples(self) -> Iterator[NameTriple]:
        """Base triples minus retractions, then the additions —
        without materializing any dirty pair."""
        base_index = self._base_graph.node_index
        for s, p, o in self._base.triples():
            retracted = self._retracts.get(p)
            if retracted and (base_index(s), base_index(o)) in retracted:
                continue
            yield (s, p, o)
        for p, edges in self._adds.items():
            for s, d in edges:
                yield (self.node_name(s), p, self.node_name(d))

    def to_graph_database(self):
        """Fully materialize the merged view."""
        from repro.graph.database import GraphDatabase

        db = GraphDatabase()
        for s, p, o in self.triples():
            db.add_triple(s, p, o)
        return db

    def close(self) -> None:
        return None  # the backend owns the base's lifecycle

    def __repr__(self) -> str:
        return (
            f"OverlayGraphView(base={self._base_graph!r}, "
            f"+{self._n_added}/-{self._n_retracted}, "
            f"epoch={self._epoch})"
        )


class OverlayTripleStore(TripleStore):
    """Join-engine store over the overlay, filled per predicate.

    Node ids equal the overlay view's node indices (the base's ids
    extended by delta nodes in insertion order), so the engine, the
    statistics, and the solver all speak one id space.  Mutations are
    pushed in by the backend (:meth:`on_mutation`) and invalidate
    exactly the touched predicates' filled indexes; clean predicates'
    statistics delegate to the base store's decode-free path.
    """

    def __init__(self, view: OverlayGraphView):
        super().__init__()
        self._view = view
        self.nodes = TermDictionary.from_terms(view.nodes())
        self.predicates = TermDictionary()
        for label in sorted(view.labels, key=repr):
            self.predicates.encode(label)
        self._size = view.n_edges
        self._filled: Set[int] = set()
        self.fill_count = 0
        self._base_store_cache: Optional[TripleStore] = None

    # -- construction is sealed --------------------------------------------

    def add(self, subject, predicate, obj) -> bool:
        raise StoreError(
            "overlay store is read-only; mutate through "
            "Database.add / Database.retract"
        )

    def _add_ids(self, s: int, p: int, o: int) -> bool:
        raise StoreError(
            "overlay store is read-only; mutate through "
            "Database.add / Database.retract"
        )

    # -- mutation push-sync --------------------------------------------------

    def on_mutation(self, touched: Set[str], new_nodes: int) -> None:
        """Invalidate the touched predicates' indexes and adopt any
        new terms; called by the backend after each applied batch."""
        if new_nodes:
            for name in self._view.nodes():
                self.nodes.encode(name)  # append-only; existing ids stable
        for label in sorted(touched, key=repr):
            p = self.predicates.lookup(label)
            if p is None:
                self.predicates.encode(label)
                continue
            if p in self._filled:
                self._filled.discard(p)
                self._pso.pop(p, None)
                self._pos.pop(p, None)
        self._size = self._view.n_edges

    # -- lazy fill -----------------------------------------------------------

    def _ensure(self, p: int) -> None:
        if p in self._filled:
            return
        if p < 0 or p >= len(self.predicates):
            return
        label = self.predicates.decode(p)
        by_subject: Dict[int, Set[int]] = {}
        by_object: Dict[int, Set[int]] = {}
        pair = self._view.matrices().get(label)
        if pair is not None:
            subjects, objects = pair.forward.edges()
            for s, o in zip(subjects.tolist(), objects.tolist()):
                by_subject.setdefault(s, set()).add(o)
                by_object.setdefault(o, set()).add(s)
        self._pso[p] = by_subject
        self._pos[p] = by_object
        self._filled.add(p)
        self.fill_count += 1
        registry().counter("join_index_fills_total").inc()

    def _ensure_all(self) -> None:
        for p in range(len(self.predicates)):
            self._ensure(p)

    def fill_all(self) -> None:
        self._ensure_all()

    @property
    def filled_predicates(self):
        return frozenset(self._filled)

    # -- statistics (clean predicates stay decode-free) ----------------------

    def _base_stat(self, p: int, method: str) -> Optional[int]:
        """A clean predicate's statistic from the base store (for a
        snapshot base that path is decode-free), or ``None`` when the
        predicate is dirty and must be answered from a fill."""
        label = self.predicates.decode(p)
        if not self._view._is_clean(label):
            return None
        if self._base_store_cache is None:
            self._base_store_cache = self._view._base.triple_store()
        base = self._base_store_cache
        bp = base.predicates.lookup(label)
        if bp is None:
            return 0
        return getattr(base, method)(bp)

    def predicate_count(self, p: int) -> int:
        if p in self._filled:
            return super().predicate_count(p)
        if p < 0 or p >= len(self.predicates):
            return 0
        stat = self._base_stat(p, "predicate_count")
        if stat is not None:
            return stat
        self._ensure(p)
        return super().predicate_count(p)

    def distinct_subjects(self, p: int) -> int:
        if p in self._filled:
            return super().distinct_subjects(p)
        if p < 0 or p >= len(self.predicates):
            return 0
        stat = self._base_stat(p, "distinct_subjects")
        if stat is not None:
            return stat
        self._ensure(p)
        return super().distinct_subjects(p)

    def distinct_objects(self, p: int) -> int:
        if p in self._filled:
            return super().distinct_objects(p)
        if p < 0 or p >= len(self.predicates):
            return 0
        stat = self._base_stat(p, "distinct_objects")
        if stat is not None:
            return stat
        self._ensure(p)
        return super().distinct_objects(p)

    def predicate_ids(self) -> Iterator[int]:
        return iter(range(len(self.predicates)))

    # -- index-backed reads fill first ---------------------------------------

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
            f"OverlayTripleStore(triples={self._size}, "
            f"filled={len(self._filled)}/{len(self.predicates)})"
        )


class OverlayBackend:
    """The writable :class:`~repro.api.backend.GraphBackend`.

    Wraps a frozen base backend plus the in-memory delta; the only
    backend whose capabilities include ``writable``.  Residency
    budgeting delegates to the base (the delta is always resident —
    it is the working set being edited).
    """

    kind = "overlay"

    def __init__(self, base):
        self.base = base
        self._view = OverlayGraphView(base)
        self._store: Optional[OverlayTripleStore] = None

    def capabilities(self):
        from repro.api.backend import BackendCapabilities, backend_capabilities

        base_caps = backend_capabilities(self.base)
        return BackendCapabilities(
            writable=True, snapshot_backed=base_caps.snapshot_backed
        )

    # -- the write surface ---------------------------------------------------

    def add(self, triples: Iterable[NameTriple]) -> int:
        """Add triples (idempotent); returns how many were new."""
        applied, touched, new_nodes = self._view.apply(adds=triples)
        self._sync_store(touched, new_nodes)
        return applied

    def retract(self, triples: Iterable[NameTriple]) -> int:
        """Retract triples (absent ones no-op); returns how many
        were actually removed."""
        applied, touched, new_nodes = self._view.apply(retracts=triples)
        self._sync_store(touched, new_nodes)
        return applied

    def _sync_store(self, touched: Set[str], new_nodes: int) -> None:
        if self._store is not None and (touched or new_nodes):
            self._store.on_mutation(touched, new_nodes)

    @property
    def epoch(self) -> int:
        return self._view.epoch

    # -- GraphBackend --------------------------------------------------------

    @property
    def graph(self) -> OverlayGraphView:
        return self._view

    def triple_store(self) -> TripleStore:
        if self._store is None:
            self._store = OverlayTripleStore(self._view)
        return self._store

    @property
    def n_nodes(self) -> int:
        return self._view.n_nodes

    @property
    def n_triples(self) -> int:
        return self._view.n_triples

    @property
    def labels(self) -> Set[str]:
        return self._view.labels

    def triples(self) -> Iterator[NameTriple]:
        return self._view.triples()

    def residency(self):
        return self.base.residency()

    def set_residency_budget(self, budget: Optional[int]) -> None:
        self.base.set_residency_budget(budget)

    def enforce_residency_budget(self, budget: Optional[int]) -> int:
        return self.base.enforce_residency_budget(budget)

    def stats(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "base_kind": self.base.kind,
            "n_triples": self.n_triples,
            "n_nodes": self.n_nodes,
            "n_labels": len(self.labels),
            "epoch": self._view.epoch,
            "delta_adds": self._view.n_delta_added,
            "delta_retracts": self._view.n_delta_retracted,
            "delta_new_nodes": self._view.n_new_nodes,
            "delta_labels": len(self._view.delta_labels()),
            "join_index_fills": getattr(self._store, "fill_count", 0),
            "base": self.base.stats(),
        }

    def close(self) -> None:
        self.base.close()

    def __repr__(self) -> str:
        return (
            f"OverlayBackend(base={self.base!r}, "
            f"+{self._view.n_delta_added}/"
            f"-{self._view.n_delta_retracted})"
        )
