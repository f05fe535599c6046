"""Tiered graph view: hot and cold snapshot blocks, promoted to CSR
lazily and demoted under a residency budget.

:class:`TieredGraphView` opens a snapshot and satisfies the adjacency
interface the SOI solver and the pruning stage consume from
:class:`~repro.graph.graph.Graph`:

* ``n_nodes`` / ``n_edges`` / ``labels`` / ``node_name`` /
  ``node_index`` / ``has_node`` / ``nodes_bitset``
* ``matrices()`` returning a mapping ``label -> LabelMatrixPair``

The mapping is where the tiering lives.  Every resident label is held
as the CSR :class:`~repro.bitvec.matrix.AdjacencyMatrix` pair the
solver runs on.  *Hot* labels (stored dense) are converted at open
time, expanding only the non-zero words of their row blocks.  *Cold*
labels (stored gap-encoded) occupy only their compressed bytes until a
query first asks for them; the first ``matrices().get(label)``
**promotes** the label by decoding both directions through
:meth:`GapEncodedMatrix.to_adjacency` straight into CSR, which is then
cached like any hot label.  Residency counters (:meth:`residency`)
expose how much of the database is actually materialized, in CSR
bytes — the quantity behind the paper's 35 GB fully dense vs 23 GB
mixed-residency comparison (Sect. 3.3).

Residency is bounded, not just reported.  Every lookup refreshes the
label's position in a touch-ordered LRU; when
:attr:`residency_budget` is set, a promotion that pushes resident CSR
bytes over the budget **demotes** the least-recently-touched resident
labels (their CSR arrays are dropped; the next touch rebuilds them
from the on-disk block), and :meth:`enforce_budget` runs the same pass
at query boundaries.  Demotion keeps each label's Eq. (13) summary
vectors resident (they are tiny — 2 x n/8 bytes), so summary
initialization and the batched kernel's saturated-source shortcut
never force a label back in; summaries of never-promoted cold labels
are likewise served straight from the block table's row node ids
without decoding a single row.

A view is read-only; it intentionally does **not** implement the
mutation or set-based traversal surface of :class:`Graph` (``add_edge``,
``successors`` over Python sets, ...).  Materialize via
:meth:`to_graph_database` when that surface is needed.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.bitvec import Bitset, LabelMatrixPair
from repro.errors import GraphError, SnapshotError
from repro.obs.logs import get_logger
from repro.obs.metrics import registry
from repro.obs.trace import current_tracer
from repro.storage.reader import SnapshotReader

logger = get_logger("storage.tiered")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient promotion I/O.

    Promotions read mmap'd snapshot bytes; on network filesystems and
    flaky disks those reads can fail *transiently* (``OSError`` /
    ``EIO``-style).  A promotion wrapped in this policy retries up to
    ``attempts`` total tries with ``base_delay * multiplier**k``
    sleeps, capped at ``max_delay``.  Only :class:`OSError` is
    retryable — a :class:`~repro.errors.SnapshotCorruptError` is a
    *permanent* verdict about the bytes and propagates immediately.
    ``sleep`` is injectable so tests run without real delays.
    """

    attempts: int = 3
    base_delay: float = 0.01
    max_delay: float = 0.5
    multiplier: float = 4.0
    sleep: Callable[[float], None] = field(default=time.sleep)

    def __post_init__(self):
        if self.attempts < 1:
            raise SnapshotError(
                f"retry attempts must be >= 1, got {self.attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise SnapshotError("retry delays must be non-negative")
        if self.multiplier < 1:
            raise SnapshotError(
                f"retry multiplier must be >= 1, got {self.multiplier}"
            )


@dataclass
class ResidencyReport:
    """How much of an open snapshot is materialized in memory."""

    n_labels: int
    hot_labels: int          # stored dense, currently resident
    cold_labels: int         # not resident (on-disk rows only)
    promotions: int          # cold labels decoded so far (re-decodes too)
    promoted_labels: Tuple[str, ...]
    resident_bytes: int      # CSR bytes currently materialized
    on_disk_bytes: int       # snapshot file size
    demotions: int = 0       # labels dropped by the LRU pass so far
    demoted_labels: Tuple[str, ...] = ()
    resident_labels: int = 0     # labels currently materialized
    residency_budget: Optional[int] = None
    promotion_retries: int = 0   # transient I/O errors retried away

    @property
    def resident_ratio(self) -> float:
        if self.on_disk_bytes == 0:
            return 0.0
        return self.resident_bytes / self.on_disk_bytes

    @property
    def within_budget(self) -> Optional[bool]:
        if self.residency_budget is None:
            return None
        return self.resident_bytes <= self.residency_budget


class TieredMatrices:
    """Mapping ``label -> LabelMatrixPair`` with promote-on-first-touch.

    Lookups of hot or already-promoted labels are dict hits; the first
    lookup of a cold (or demoted) label materializes it.  Iteration
    (``keys`` / ``len`` / ``in``) never promotes, and
    :meth:`summaries` serves Eq. (13) summary vectors without
    promoting either.
    """

    def __init__(self, view: "TieredGraphView"):
        self._view = view

    def __getitem__(self, label: str) -> LabelMatrixPair:
        pair = self._view._pair(label)
        if pair is None:
            raise KeyError(label)
        return pair

    def get(self, label: str, default=None):
        pair = self._view._pair(label)
        return default if pair is None else pair

    def summaries(self, label: str) -> Optional[Tuple[Bitset, Bitset]]:
        """(forward, backward) Eq. (13) summaries, promotion-free."""
        return self._view.label_summaries(label)

    def __contains__(self, label: str) -> bool:
        return label in self._view._label_set

    def __iter__(self) -> Iterator[str]:
        return iter(self._view._labels)

    def __len__(self) -> int:
        return len(self._view._labels)

    def keys(self) -> Iterator[str]:
        return iter(self._view._labels)

    def values(self) -> Iterator[LabelMatrixPair]:
        for label in self._view._labels:
            yield self[label]

    def items(self) -> Iterator[Tuple[str, LabelMatrixPair]]:
        for label in self._view._labels:
            yield (label, self[label])


class TieredGraphView:
    """A graph database served from a snapshot, tiered hot/cold."""

    def __init__(
        self,
        source: Union[str, Path, SnapshotReader],
        residency_budget: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if isinstance(source, SnapshotReader):
            self.reader = source
        else:
            self.reader = SnapshotReader(source)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self._promotion_retries = 0
        reader = self.reader
        self._names: List[Hashable] = reader.node_terms()
        self._index: Dict[Hashable, int] = {
            name: i for i, name in enumerate(self._names)
        }
        self._labels: List[str] = reader.labels()
        self._label_set: Set[str] = set(self._labels)
        #: label -> storage tier ("dense" or "gap"), fixed by the file.
        self._tiers: Dict[str, str] = {
            label: reader.encoding_of(label) for label in self._labels
        }
        #: Resident pairs in LRU order (least-recently-touched first).
        self._pairs: "OrderedDict[str, LabelMatrixPair]" = OrderedDict()
        #: Eq. (13) summaries that outlive their pair (see module doc).
        self._summaries: Dict[str, Tuple[Bitset, Bitset]] = {}
        self._promoted: List[str] = []
        self._demoted: List[str] = []
        self.residency_budget = residency_budget
        for label in self._labels:
            if self._tiers[label] == "dense":
                self._materialize(label)
        self._matrices = TieredMatrices(self)

    # -- tier mechanics ---------------------------------------------------

    def _pair(self, label: str) -> LabelMatrixPair | None:
        pair = self._pairs.get(label)
        if pair is not None:
            self._pairs.move_to_end(label)  # LRU touch
            return pair
        if label not in self._label_set:
            return None
        return self.promote(label)

    def _with_retries(self, operation):
        """Run one promotion read under the view's retry policy.

        Only ``OSError`` retries (transient I/O); corruption verdicts
        (:class:`~repro.errors.SnapshotCorruptError`) and every other
        typed failure propagate on the first raise.
        """
        policy = self.retry_policy
        delay = policy.base_delay
        for attempt in range(policy.attempts):
            try:
                return operation()
            except OSError as error:
                if attempt + 1 >= policy.attempts:
                    raise
                self._promotion_retries += 1
                registry().counter("promotion_retries_total").inc()
                tracer = current_tracer()
                if tracer.enabled:
                    tracer.event(
                        "retry", attempt=attempt + 1,
                        error_type=type(error).__name__,
                    )
                logger.warning(
                    "transient promotion I/O error (attempt %d/%d): %s",
                    attempt + 1, policy.attempts, error,
                )
                policy.sleep(min(delay, policy.max_delay))
                delay *= policy.multiplier

    def _materialize(self, label: str) -> LabelMatrixPair:
        """Build the resident pair for a label (no budget check)."""
        tracer = current_tracer()
        if not tracer.enabled:
            return self._materialize_inner(label)
        tier = self._tiers[label]
        with tracer.span("promotion", label=label, tier=tier) as span:
            pair = self._materialize_inner(label)
            span.set_attribute("bytes", pair.nbytes)
            return pair

    def _materialize_inner(self, label: str) -> LabelMatrixPair:
        reader = self.reader
        pair = LabelMatrixPair(
            reader.n_nodes,
            self._with_retries(lambda: reader.adjacency(label, "forward")),
            self._with_retries(lambda: reader.adjacency(label, "backward")),
        )
        if self._tiers[label] != "dense":
            self._promoted.append(label)
            registry().counter("promotions_total").inc()
        self._pairs[label] = pair  # lands at the MRU end
        self._summaries.setdefault(
            label, (pair.forward.summary, pair.backward.summary)
        )
        return pair

    def promote(self, label: str) -> LabelMatrixPair:
        """Materialize a label into CSR matrices (idempotent).

        Gap-tier labels decode through ``to_adjacency``; demoted
        dense-tier labels re-convert their mapped row blocks.  When a
        :attr:`residency_budget` is set, the promotion immediately
        sheds least-recently-touched *other* labels so mid-solve
        promotions respect the ceiling too.
        """
        pair = self._pairs.get(label)
        if pair is not None:
            self._pairs.move_to_end(label)
            return pair
        if label not in self._label_set:
            raise GraphError(f"unknown label: {label!r}")
        pair = self._materialize(label)
        if self.residency_budget is not None:
            self._shed(protect=label)
        return pair

    def promote_all(self) -> None:
        """Force-materialize every non-resident label (benchmarks,
        warm-up).  Ignores the budget; enforcement re-applies it."""
        for label in self._labels:
            if label not in self._pairs:
                self._materialize(label)

    def demote(self, label: str) -> int:
        """Drop a resident label's CSR arrays; returns bytes freed.

        The label's Eq. (13) summaries stay resident, and the next
        ``matrices().get(label)`` transparently re-materializes it
        from the on-disk rows.
        """
        pair = self._pairs.pop(label, None)
        if pair is None:
            raise GraphError(f"label not resident: {label!r}")
        freed = pair.nbytes
        self._demoted.append(label)
        registry().counter("demotions_total").inc()
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event("demotion", label=label, bytes=freed)
        return freed

    def _shed(self, protect: Optional[str] = None) -> int:
        """Demote LRU labels until resident bytes fit the budget.

        ``protect`` (the label a mid-solve promotion just brought in)
        is never evicted, so the pair the solver is about to use stays
        valid even under a budget smaller than that single label; the
        boundary-time :meth:`enforce_budget` pass runs unprotected.
        """
        budget = self.residency_budget
        if budget is None:
            return 0
        demoted = 0
        while self.resident_bytes() > budget:
            victim = next(
                (lab for lab in self._pairs if lab != protect), None
            )
            if victim is None:
                break
            self.demote(victim)
            demoted += 1
        return demoted

    def enforce_budget(self, budget: Optional[int] = None) -> int:
        """Apply the residency budget now; returns labels demoted.

        Called at query boundaries: demotes least-recently-touched
        labels until resident CSR bytes fit the budget (``None`` keeps
        the current one).  Safe to call any time no solve is in
        flight.
        """
        if budget is not None:
            self.residency_budget = budget
        return self._shed()

    @property
    def promotions(self) -> int:
        return len(self._promoted)

    @property
    def demotions(self) -> int:
        return len(self._demoted)

    @property
    def promotion_retries(self) -> int:
        """Transient promotion I/O errors absorbed by backoff."""
        return self._promotion_retries

    def is_resident(self, label: str) -> bool:
        return label in self._pairs

    def resident_bytes(self) -> int:
        """CSR bytes currently materialized (the budgeted value)."""
        return sum(pair.nbytes for pair in self._pairs.values())

    def lru_labels(self) -> Tuple[str, ...]:
        """Resident labels, least-recently-touched first."""
        return tuple(self._pairs)

    def label_summaries(
        self, label: str
    ) -> Optional[Tuple[Bitset, Bitset]]:
        """The label's (forward, backward) Eq. (13) summary vectors,
        or ``None`` for an unknown label — never promotes.

        Resident and previously-materialized labels answer from the
        summary cache; a never-touched cold label's summaries are
        built from the block table's row node ids (non-empty rows are
        exactly the indexed ones), without decoding any row payload.
        """
        cached = self._summaries.get(label)
        if cached is not None:
            return cached
        if label not in self._label_set:
            return None
        n = self.reader.n_nodes
        summaries = tuple(
            Bitset.from_indices(n, self.reader.row_nodes(label, d))
            for d in ("forward", "backward")
        )
        self._summaries[label] = summaries
        return summaries

    def _hot_resident(self) -> int:
        """Dense-tier labels currently materialized."""
        return sum(
            1 for label in self._pairs if self._tiers[label] == "dense"
        )

    def residency(self) -> ResidencyReport:
        return ResidencyReport(
            n_labels=len(self._labels),
            hot_labels=self._hot_resident(),
            cold_labels=len(self._labels) - len(self._pairs),
            promotions=len(self._promoted),
            promoted_labels=tuple(self._promoted),
            resident_bytes=self.resident_bytes(),
            on_disk_bytes=self.reader.file_bytes,
            demotions=len(self._demoted),
            demoted_labels=tuple(self._demoted),
            resident_labels=len(self._pairs),
            residency_budget=self.residency_budget,
            promotion_retries=self._promotion_retries,
        )

    # -- Graph adjacency interface ------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.reader.n_nodes

    @property
    def n_edges(self) -> int:
        return self.reader.n_triples

    @property
    def n_triples(self) -> int:
        return self.reader.n_triples

    @property
    def labels(self) -> Set[str]:
        return set(self._labels)

    def matrices(self) -> TieredMatrices:
        return self._matrices

    def label_matrix(self, label: str) -> LabelMatrixPair | None:
        return self._pair(label)

    def nodes(self) -> Iterator[Hashable]:
        return iter(self._names)

    def node_name(self, index: int) -> Hashable:
        return self._names[index]

    def node_index(self, name: Hashable) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown node: {name!r}") from None

    def has_node(self, name: Hashable) -> bool:
        return name in self._index

    def nodes_bitset(self, names: Iterable[Hashable]) -> Bitset:
        return Bitset.from_indices(
            self.n_nodes, (self.node_index(n) for n in names)
        )

    # -- materialization ---------------------------------------------------

    def triples(self) -> Iterator[Tuple[Hashable, str, Hashable]]:
        """Iterate all name triples (decodes cold blocks row by row
        without promoting them into the resident tier)."""
        return self.reader.iter_triples()

    def to_graph_database(self):
        """Fully materialize into a :class:`GraphDatabase`."""
        from repro.graph.database import GraphDatabase

        db = GraphDatabase()
        for s, p, o in self.triples():
            db.add_triple(s, p, o)
        return db

    def close(self) -> None:
        self.reader.close()

    def __repr__(self) -> str:
        report = (
            f"hot={self._hot_resident()}, "
            f"cold={len(self._labels) - len(self._pairs)}, "
            f"promoted={len(self._promoted)}, "
            f"demoted={len(self._demoted)}"
        )
        return (
            f"TieredGraphView(|O|={self.n_nodes}, "
            f"triples={self.n_triples}, {report})"
        )
