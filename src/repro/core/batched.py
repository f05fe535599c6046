"""Batched round evaluation: the engine behind parallel solves.

Serial solves on the ``batched`` kernel run the packed kernel's
per-inequality CSR products.  A CSR product is a gather plus one
scatter or bit test, so grouping products into one NumPy dispatch no
longer pays on a single core: on the kernel bench the grouped serial
engine measured no faster than per-inequality products.  What
grouping still buys is *independent work*.  With ``workers > 1``
(:mod:`repro.core.parallel`) the solver evaluates rounds in
**batches** whose products a flush computes side by side:

* every deferred product gathers its CSR neighbour ranges at defer
  time (row-wise: the neighbours of the source's set bits;
  column-wise: the dual neighbours of the target's candidates, each
  tagged with its candidate) — or, on a remote executor, ships the
  whole product to a worker process;
* a flush hands the pending products to the executor and applies the
  results serially, which is where the work counters are kept.

**Hazard flushing** keeps the evaluation order observably identical
to the sequential kernels: inequalities are gathered in the static
rank order, and the pending batch is executed the moment the next
inequality reads or writes a variable some pending product is about
to write.  Independent inequalities share one flush, while dependent
chains see exactly the values the sequential Gauss-Seidel loop would
have produced.  The fixpoint, the per-variable rows, and the work
counters (rounds, evaluations, updates, bits removed) all match the
serial kernels bit for bit — property tests assert it.

Nothing in a round mutates a candidate row in place (updates rebind
``rows[target]`` to a fresh bitset), so the source-vector references
captured by deferred column products always see the value the
sequential order would have read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.bitvec import Bitset
from repro.bitvec.bitset import probe_bits, scatter_words
from repro.bitvec.matrix import column_cheaper
from repro.core.soi import (
    CopyInequality,
    FORWARD,
    SystemOfInequalities,
)


def product_words(
    n: int,
    ids: np.ndarray,
    owners: Optional[np.ndarray] = None,
    vector: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Words of one deferred product: the gathered ``ids`` (row-wise)
    or, column-wise, the ``owners`` whose gathered ``ids`` hit the
    source ``vector``."""
    if owners is not None:
        ids = owners[probe_bits(vector, ids)]
    return scatter_words(n, ids)


class _Batch:
    """Deferred products of one hazard-free run of inequalities.

    Targets are pairwise distinct by construction (an inequality
    hitting a pending target forces a flush first), so applying a
    batch never has to reconcile two products of the same variable.
    """

    __slots__ = (
        "n", "targets", "executor",
        "row_targets", "row_ids",
        "col_targets", "col_owners", "col_ids", "col_vectors",
        "remote_targets", "remote_tasks",
    )

    def __init__(self, n: int, executor):
        self.n = n
        self.executor = executor
        self.targets: Set[int] = set()
        self.row_targets: List[int] = []
        self.row_ids: List[np.ndarray] = []
        self.col_targets: List[int] = []
        self.col_owners: List[np.ndarray] = []
        self.col_ids: List[np.ndarray] = []
        self.col_vectors: List[np.ndarray] = []
        self.remote_targets: List[int] = []
        self.remote_tasks: List[tuple] = []

    def add_row(self, target: int, ids: np.ndarray) -> None:
        self.targets.add(target)
        self.row_targets.append(target)
        self.row_ids.append(ids)

    def add_col(
        self, target: int, owners: np.ndarray,
        ids: np.ndarray, vector: np.ndarray,
    ) -> None:
        self.targets.add(target)
        self.col_targets.append(target)
        self.col_owners.append(owners)
        self.col_ids.append(ids)
        self.col_vectors.append(vector)

    def add_remote(
        self, target: int, label, direction: str, strategy: str,
        source_words: np.ndarray, target_words: np.ndarray,
    ) -> None:
        """Defer a whole product to the executor's worker pool.

        ``source_words``/``target_words`` are the rows' word arrays at
        defer time — frozen values, since updates rebind rows rather
        than mutating them (see the module doc)."""
        self.targets.add(target)
        self.remote_targets.append(target)
        self.remote_tasks.append(
            (label, direction, strategy, source_words, target_words)
        )

    def flush(self, rows: Dict[int, Bitset], report, updated: Set[int]):
        """Compute every pending product, apply the shrinks, reset."""
        if not self.targets:
            return
        # (target, result words); result arrays are batch-owned (or
        # worker-returned copies), so the apply pass below may AND
        # into them in place.  The executor computes the products;
        # the serial apply pass keeps counters and updated-sets
        # identical to a serial solve.
        results = self.executor.compute(self)
        if results is None:
            results = self._compute_serial()

        n = self.n
        for target, words in results:
            current = rows[target]
            before = current.count()
            np.bitwise_and(words, current.words, out=words)
            after = int(np.bitwise_count(words).sum())
            if after == before:
                continue  # ANDed result kept every bit: no change
            shrunk = Bitset._wrap(n, words)
            shrunk._count = after
            rows[target] = shrunk
            report.updates += 1
            report.bits_removed += before - after
            updated.add(target)

        self.targets.clear()
        self.row_targets.clear()
        self.row_ids.clear()
        self.col_targets.clear()
        self.col_owners.clear()
        self.col_ids.clear()
        self.col_vectors.clear()
        self.remote_targets.clear()
        self.remote_tasks.clear()

    def _compute_serial(self) -> List:
        """Every product on its own, in order (rows, then columns):
        the thread executor's fallback for flushes too small to split."""
        n = self.n
        results = [
            (target, product_words(n, ids))
            for target, ids in zip(self.row_targets, self.row_ids)
        ]
        results.extend(
            (target, product_words(n, ids, owners, vector))
            for target, owners, ids, vector in zip(
                self.col_targets, self.col_owners, self.col_ids,
                self.col_vectors,
            )
        )
        return results


def run_batched(
    soi: SystemOfInequalities,
    matrices,
    rows: Dict[int, Bitset],
    inequalities: List,
    by_source: Dict[int, List[int]],
    rank: Dict[int, int],
    product: str,
    report,
    n: int,
    timer=None,
    resume_queue: Optional[List[int]] = None,
    resume_updated: Optional[Set[int]] = None,
    *,
    executor,
) -> Optional[Tuple[List[int], Set[int]]]:
    """Run the static-ordering fixpoint loop with batched rounds.

    Mutates ``rows`` to the largest solution and fills ``report``,
    mirroring the sequential loop in :func:`repro.core.solver.solve`
    (identical trajectory, identical counters).

    ``timer`` (a :class:`~repro.core.checkpoint.LimitTimer`) makes the
    run preemptable: at the top of each iteration the pending batch is
    force-flushed — flushes are trajectory-neutral, rows rebind and
    never mutate in place — and ``(remaining queue, updated targets)``
    is returned for the caller to capture into a checkpoint.  Returns
    ``None`` on reaching the fixpoint.  ``resume_queue`` /
    ``resume_updated`` continue a suspended round (an empty resumed
    queue closes the round, computing the next one from the set).

    ``executor`` (:mod:`repro.core.parallel`) computes the flushes.
    A *remote* executor (fork workers) additionally moves the product
    materialization out of this process: real products defer as
    ``(label, direction, strategy, bits)`` tasks instead of gathered
    positions, so this process touches only summaries.  Either way the
    trajectory, fixpoint, and counters match serial bit for bit:
    hazard analysis and flush barriers are unchanged, and the deferred
    zero-products of the remote path (serially an immediate update)
    land at the next flush a reader of the target would force anyway.
    """
    find = soi.find
    source_of = [find(ineq.source) for ineq in inequalities]
    target_of = [find(ineq.target) for ineq in inequalities]
    is_copy = [isinstance(ineq, CopyInequality) for ineq in inequalities]
    remote = executor.remote

    batch = _Batch(n, executor)
    add_remote = batch.add_remote
    flush = batch.flush
    add_row = batch.add_row
    add_col = batch.add_col
    pending = batch.targets  # stable identity: flush() clears in place
    get_pair = matrices.get
    # Tiered views serve Eq. (13) summaries without materializing the
    # label, so the saturated-source shortcut below never promotes (or
    # re-promotes a demoted label); plain dict matrices (None here)
    # read them off the pair, which is already resident by definition.
    get_summaries = getattr(matrices, "summaries", None)
    if resume_queue is not None:
        queue = list(resume_queue)
        updated: Set[int] = set(resume_updated or ())
        open_round = True  # continue the suspended round, no increment
    else:
        queue = sorted(range(len(inequalities)), key=rank.__getitem__)
        updated = set()
        open_round = False
    while queue or open_round:
        if not open_round:
            report.rounds += 1
            updated = set()
        open_round = False
        evaluations = 0
        for position, idx in enumerate(queue):
            if timer is not None:
                timer.check_deadline()
                if timer.should_preempt():
                    # Land every deferred product so the checkpoint
                    # rows sit exactly on the sequential trajectory.
                    flush(rows, report, updated)
                    report.evaluations += evaluations
                    return queue[position:], updated
            target = target_of[idx]
            source = source_of[idx]
            if pending and (target in pending or source in pending):
                # Read-after-write or write-after-write hazard: land
                # the pending products before touching the variable.
                flush(rows, report, updated)
            evaluations += 1
            if timer is not None:
                timer.note_work()
            target_row = rows[target]
            before = target_row.count()
            if before == 0:
                continue
            source_row = rows[source]
            if is_copy[idx]:
                tightened = target_row & source_row
                after = tightened.count()
                if after != before:
                    rows[target] = tightened
                    report.updates += 1
                    report.bits_removed += before - after
                    updated.add(target)
                continue
            ineq = inequalities[idx]
            source_count = source_row.count()
            if get_summaries is not None:
                pair = None
                summaries = get_summaries(ineq.label)
                absent = summaries is None
            else:
                pair = get_pair(ineq.label)
                absent = pair is None
            if absent or source_count == 0:
                # Absent label or empty source: the product is the
                # zero vector either way — no kernel work needed.
                rows[target] = Bitset.zeros(n)
                report.updates += 1
                report.bits_removed += before
                updated.add(target)
                continue
            forward = ineq.matrix == FORWARD
            if pair is None:
                summary, dual_summary = (
                    summaries if forward else summaries[::-1]
                )
            else:
                summary, dual_summary = (
                    (pair.forward.summary, pair.backward.summary)
                    if forward
                    else (pair.backward.summary, pair.forward.summary)
                )
            if (
                source_count >= summary.count()
                and summary.issubset(source_row)
            ):
                # Saturated source: the vector covers every indexed
                # row, so the product is exactly the OR of *all* rows
                # — which is the dual direction's Eq.-(13) summary.
                # One subset test + one AND replace gather and reduce
                # (round 1 hits this for every degree-one pattern
                # variable: summary initialization made them equal to
                # this very summary).  Served summary-only on tiered
                # views: the label is never materialized for it.
                tightened = target_row & dual_summary
                after = tightened.count()
                if after != before:
                    rows[target] = tightened
                    report.updates += 1
                    report.bits_removed += before - after
                    updated.add(target)
                continue
            strategy = product
            if strategy == "auto":
                strategy = "column" if column_cheaper(
                    source_count, before,
                    summary.count(), dual_summary.count(),
                ) else "row"
            if remote:
                # Ship the whole product to a worker owning its own
                # snapshot view: this process never materializes the
                # label.  The rows' word arrays are frozen values
                # (updates rebind), so capture-by-reference is safe.
                add_remote(
                    target, ineq.label,
                    "forward" if forward else "backward",
                    strategy, source_row.words, target_row.words,
                )
                continue
            if pair is None:
                # Tiered view, real product ahead: materialize now.
                pair = get_pair(ineq.label)
            if strategy == "row":
                matrix = pair.forward if forward else pair.backward
                ids = matrix.gather(source_row.iter_ones())
                if ids.size == 0:
                    rows[target] = Bitset.zeros(n)
                    report.updates += 1
                    report.bits_removed += before
                    updated.add(target)
                    continue
                add_row(target, ids)
            else:
                # Column-wise: keep candidate j of the target iff the
                # *dual* matrix's row j intersects the source vector.
                dual = pair.backward if forward else pair.forward
                owners, ids = dual.gather_pairs(target_row.iter_ones())
                if ids.size == 0:
                    rows[target] = Bitset.zeros(n)
                    report.updates += 1
                    report.bits_removed += before
                    updated.add(target)
                    continue
                add_col(target, owners, ids, source_row.words)
        flush(rows, report, updated)
        report.evaluations += evaluations
        pending_next: Set[int] = set()
        for target in updated:
            pending_next.update(by_source.get(target, ()))
        queue = sorted(pending_next, key=rank.__getitem__)
    return None
