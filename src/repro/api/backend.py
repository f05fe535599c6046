"""The storage contract behind a :class:`~repro.api.database.Database`.

:class:`GraphBackend` is the single protocol the query layers consume:

* the SOI solver and the pruning stage read adjacency through
  :attr:`GraphBackend.graph` (``matrices()`` / ``n_nodes`` /
  ``node_name`` / ``nodes_bitset`` ...);
* the join engine reads dictionary-encoded indexes through
  :meth:`GraphBackend.triple_store`;
* reporting reads :meth:`GraphBackend.residency` and
  :meth:`GraphBackend.stats`.

Two implementations cover the reproduction's storage modes —
:class:`InMemoryBackend` over a :class:`~repro.graph.database.GraphDatabase`
and :class:`SnapshotBackend` over the on-disk snapshot store
(:class:`~repro.storage.SnapshotReader` + tiered residency).  Because
both satisfy the same contract, :class:`~repro.pipeline.PruningPipeline`
and :class:`~repro.store.engine.QueryEngine` no longer special-case
memory vs snapshot, and future connectors (sharded snapshots, a
mutable overlay, a remote store) slot in without touching the query
layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Hashable,
    Iterator,
    Optional,
    Protocol,
    Set,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.graph.database import GraphDatabase
from repro.storage.reader import SnapshotReader
from repro.storage.tiered import ResidencyReport, TieredGraphView
from repro.store.triple_store import TripleStore

NameTriple = Tuple[Hashable, str, Hashable]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do, declared instead of duck-typed.

    The façade gates operations on these flags — writes need
    ``writable``, in-process operations (``simulate``, ``explain``,
    ``benchmark``, ``advise``) need ``not remote`` — and raises a
    typed :class:`~repro.errors.UnsupportedOperationError` when the
    capability is missing, replacing the old ad-hoc
    ``hasattr(backend, "remote_query")`` probes.
    """

    #: Accepts :meth:`add`/:meth:`retract` delta batches.
    writable: bool = False
    #: Backed by an on-disk snapshot (directly or through an overlay).
    snapshot_backed: bool = False
    #: Executes queries in another process; the engine is not local.
    remote: bool = False


def backend_capabilities(backend) -> BackendCapabilities:
    """A backend's declared capabilities, inferred for legacy ones.

    Third-party backends predating :meth:`GraphBackend.capabilities`
    fall back to the old duck-typed probe: a ``remote_query`` method
    marks a remote connector; everything else is a local read-only
    store.
    """
    probe = getattr(backend, "capabilities", None)
    if callable(probe):
        return probe()
    return BackendCapabilities(
        remote=callable(getattr(backend, "remote_query", None))
    )


@runtime_checkable
class GraphBackend(Protocol):
    """What a storage connector must provide to power a session."""

    #: Stable connector kind (``"memory"``, ``"snapshot"``, ...).
    kind: str

    def capabilities(self) -> BackendCapabilities:
        """What this backend supports; the façade gates on the flags
        instead of probing attributes."""
        ...

    @property
    def graph(self):
        """Solver-facing adjacency view: an object with the
        :class:`~repro.graph.graph.Graph` read interface
        (``n_nodes``, ``labels``, ``matrices()``, ``node_name``,
        ``node_index``, ``has_node``, ``nodes_bitset``)."""
        ...

    def triple_store(self) -> TripleStore:
        """Dictionary-encoded indexes for the join engine (may be
        built lazily on first call)."""
        ...

    @property
    def n_nodes(self) -> int: ...

    @property
    def n_triples(self) -> int: ...

    @property
    def labels(self) -> Set[str]: ...

    def triples(self) -> Iterator[NameTriple]:
        """Iterate all name-level triples (no residency side effects)."""
        ...

    def residency(self) -> Optional[ResidencyReport]:
        """Hot/cold residency of the backing storage, or ``None`` when
        the notion does not apply (fully in-memory)."""
        ...

    def set_residency_budget(self, budget: Optional[int]) -> None:
        """Arm (or disarm, with ``None``) the hard ceiling on resident
        adjacency bytes, so promotions during the next operation
        respect it.  A no-op for backends without a residency notion."""
        ...

    def enforce_residency_budget(self, budget: Optional[int]) -> int:
        """Demote least-recently-touched labels until resident
        adjacency bytes fit the budget; returns how many labels were
        demoted (0 for backends without a residency notion).

        ``budget=None`` means "keep whatever ceiling is currently
        armed" (via :meth:`set_residency_budget`), NOT "unbounded":
        with no ceiling armed either, the call demotes nothing.
        Implementations must follow this so backends stay
        interchangeable under one call sequence."""
        ...

    def stats(self) -> Dict[str, object]:
        """Flat, JSON-friendly description of the backend."""
        ...

    def close(self) -> None: ...


class InMemoryBackend:
    """Backend over a fully materialized :class:`GraphDatabase`.

    The join-engine store is built lazily on first
    :meth:`triple_store` call, so solver-only sessions (``simulate``)
    never pay for the dictionary-encoded indexes.  ``graph_db`` may be
    any object with the :class:`~repro.graph.graph.Graph` read
    interface and ``triples()`` (a :class:`GraphDatabase`, a
    :class:`~repro.storage.TieredGraphView`, ...).
    """

    kind = "memory"

    def __init__(self, graph_db=None, store: Optional[TripleStore] = None):
        if graph_db is None:
            graph_db = (
                store.to_graph_database()
                if store is not None else GraphDatabase()
            )
        self._graph = graph_db
        self._store = store
        # Mark the database as session-owned so direct GraphDatabase
        # mutation (the pre-write-API idiom) can warn once and point at
        # Database.add/retract.  Foreign graph-likes (TieredGraphView,
        # mocks with __slots__) simply skip the marker.
        try:
            graph_db._session_attached = True
        except AttributeError:
            pass

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities()

    @property
    def graph(self):
        return self._graph

    def triple_store(self) -> TripleStore:
        if self._store is None:
            self._store = TripleStore.from_graph_database(self._graph)
        return self._store

    @property
    def n_nodes(self) -> int:
        return self._graph.n_nodes

    @property
    def n_triples(self) -> int:
        return self._graph.n_triples

    @property
    def labels(self) -> Set[str]:
        return set(self._graph.labels)

    def triples(self) -> Iterator[NameTriple]:
        return self._graph.triples()

    def residency(self) -> Optional[ResidencyReport]:
        return None

    def set_residency_budget(self, budget: Optional[int]) -> None:
        return None  # no residency notion to bound

    def enforce_residency_budget(self, budget: Optional[int]) -> int:
        return 0  # nothing demotable

    def stats(self) -> Dict[str, object]:
        # Graph-likes other than Graph (a TieredGraphView, say) have
        # no ``adjacency_bytes``; they report 0.
        adjacency_bytes = getattr(self._graph, "adjacency_bytes", None)
        return {
            "kind": self.kind,
            "n_triples": self.n_triples,
            "n_nodes": self.n_nodes,
            "n_labels": len(self.labels),
            # CSR bytes of the built label matrices (0 until the
            # session's first query builds them).
            "adjacency_bytes": (
                adjacency_bytes() if adjacency_bytes is not None else 0
            ),
        }

    def close(self) -> None:  # nothing to release
        return None

    def __repr__(self) -> str:
        return f"InMemoryBackend({self._graph!r})"


class SnapshotBackend:
    """Backend over an on-disk snapshot (``repro-snap/v1``).

    The solver side is a :class:`TieredGraphView` — hot labels
    resident from open, cold labels promoted on first query touch.
    The join-engine store is a
    :class:`~repro.store.lazy.LazySnapshotStore`: constructing it
    adopts the dictionaries and block-table statistics in
    O(dictionary) and fills pso/pos indexes one predicate at a time
    on first engine touch, so even sessions that *do* join open in
    milliseconds and only decode the predicates their queries use.
    :meth:`stats` reports ``join_index_fills`` next to the residency
    promotion counters.
    """

    kind = "snapshot"

    def __init__(self, source: Union[str, Path, SnapshotReader]):
        reader = (
            source if isinstance(source, SnapshotReader)
            else SnapshotReader(source)
        )
        self.reader = reader
        self.path: Path = reader.path
        self._view = TieredGraphView(reader)
        self._store: Optional[TripleStore] = None

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(snapshot_backed=True)

    @property
    def graph(self) -> TieredGraphView:
        return self._view

    def triple_store(self) -> TripleStore:
        if self._store is None:
            from repro.store.lazy import LazySnapshotStore

            self._store = LazySnapshotStore(self.reader)
        return self._store

    @property
    def n_nodes(self) -> int:
        return self.reader.n_nodes

    @property
    def n_triples(self) -> int:
        return self.reader.n_triples

    @property
    def labels(self) -> Set[str]:
        return self._view.labels

    def triples(self) -> Iterator[NameTriple]:
        return self.reader.iter_triples()

    def residency(self) -> ResidencyReport:
        return self._view.residency()

    def set_residency_budget(self, budget: Optional[int]) -> None:
        """Arm the tiered view's hard ceiling so promotions during the
        next solve shed least-recently-touched labels on the spot."""
        self._view.residency_budget = budget

    def enforce_residency_budget(self, budget: Optional[int]) -> int:
        """LRU-demote down to the budget; returns how many labels
        were demoted."""
        return self._view.enforce_budget(budget)

    def stats(self) -> Dict[str, object]:
        residency = self.residency()
        fills = getattr(self._store, "fill_count", 0)
        filled = getattr(self._store, "filled_predicates", frozenset())
        return {
            "kind": self.kind,
            "path": str(self.path),
            "join_index_fills": fills,
            "join_filled_predicates": len(filled),
            "n_triples": self.n_triples,
            "n_nodes": self.n_nodes,
            "n_labels": len(self.labels),
            "hot_labels": residency.hot_labels,
            "cold_labels": residency.cold_labels,
            "promotions": residency.promotions,
            "demotions": residency.demotions,
            "resident_labels": residency.resident_labels,
            "resident_bytes": residency.resident_bytes,
            "on_disk_bytes": residency.on_disk_bytes,
        }

    def close(self) -> None:
        self.reader.close()

    def __repr__(self) -> str:
        return f"SnapshotBackend({self.path.name!r}, {self._view!r})"
