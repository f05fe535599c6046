"""The SOI fixpoint solver — the paper's SPARQLSIM algorithm (Sect. 3).

Starting from an initial assignment (Eq. (12) full vectors, or the
Eq. (13) summary-vector refinement), the solver repeatedly evaluates
*unstable* inequalities.  Evaluating ``t <= s x_b A`` computes the
product ``r`` (row- or column-wise, chosen dynamically) and, when the
target row is not below ``r``, intersects it — which destabilizes
every inequality whose *source* is the updated variable (step 2(b) of
the algorithm in Sect. 3.2).

The fixpoint reached is the largest solution of the SOI, i.e. the
largest dual simulation (Prop. 2).  The solver reports rounds
(generations of the worklist), per-inequality evaluations, updates,
and removed bits — the quantities behind Table 2 and the Sect. 5.3
iteration discussion.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set

from repro.bitvec import Bitset
from repro.bitvec.kernel import BATCHED, active_kernel, use_kernel
from repro.core.batched import run_batched
from repro.core.parallel import WORKER_MODES, executor_for
from repro.core.checkpoint import (
    ExecutionLimits,
    LimitTimer,
    PHASE_DYNAMIC,
    PHASE_STATIC,
    SolverCheckpoint,
)
from repro.core.simulation import Relation
from repro.core.soi import (
    CopyInequality,
    FORWARD,
    SystemOfInequalities,
)
from repro.core.degrade import next_kernel, record as record_degradation
from repro.core.strategies import (
    DYNAMIC_ORDERINGS,
    ORDERINGS,
    order_inequalities,
)
from repro.errors import ReproError, SolverError
from repro.graph.graph import Graph
from repro.obs.metrics import registry
from repro.obs.trace import current_tracer

INITIALIZATIONS = ("summary", "full")
PRODUCTS = ("auto", "row", "column")


@dataclass
class SolverOptions:
    """Tunable strategy knobs (paper Sect. 3.3)."""

    initialization: str = "summary"  # Eq. (13); "full" is Eq. (12)
    ordering: str = "sparsity"
    product: str = "auto"
    seed: int = 0
    #: Retry a faulting solve one kernel tier down (batched → packed →
    #: reference) instead of propagating.  Off by default at the core
    #: layer so kernel-equivalence tests see real failures; the
    #: :class:`~repro.api.profile.ExecutionProfile` façade enables it
    #: for end-user sessions.  Typed repro errors always propagate.
    degrade_on_fault: bool = False
    #: Parallel flush evaluation width for the batched kernel
    #: (:mod:`repro.core.parallel`).  1 = serial (the default: the
    #: per-inequality products of the packed kernel).  Proven
    #: bit-identical to serial,
    #: so it is a pure throughput knob — excluded from continuation
    #: fingerprints on purpose.
    workers: int = 1
    #: "threads" (safe everywhere) or "fork" (snapshot-backed scale-out;
    #: falls back to threads off-snapshot).
    worker_mode: str = "threads"

    def __post_init__(self):
        if self.initialization not in INITIALIZATIONS:
            raise SolverError(
                f"unknown initialization {self.initialization!r}"
            )
        if self.product not in PRODUCTS:
            raise SolverError(f"unknown product strategy {self.product!r}")
        if self.ordering not in ORDERINGS + DYNAMIC_ORDERINGS:
            raise SolverError(f"unknown ordering {self.ordering!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise SolverError(
                f"workers must be a positive integer, got {self.workers!r}"
            )
        if self.worker_mode not in WORKER_MODES:
            raise SolverError(
                f"unknown worker_mode {self.worker_mode!r} "
                f"(expected one of {WORKER_MODES})"
            )


@dataclass
class SolverReport:
    """Work counters of one solve."""

    rounds: int = 0
    evaluations: int = 0
    updates: int = 0
    bits_removed: int = 0
    elapsed: float = 0.0


class SolverResult:
    """Largest solution of an SOI over one data graph.

    When a bounded solve suspends before the fixpoint, ``checkpoint``
    carries the resumable state and the rows are a mid-trajectory
    over-approximation (``complete`` is False).
    """

    def __init__(
        self,
        soi: SystemOfInequalities,
        data: Graph,
        rows: Dict[int, Bitset],
        report: SolverReport,
        checkpoint: Optional[SolverCheckpoint] = None,
    ):
        self.soi = soi
        self.data = data
        self._rows = rows
        self.report = report
        self.checkpoint = checkpoint

    @property
    def complete(self) -> bool:
        return self.checkpoint is None

    def row(self, vid: int) -> Bitset:
        """Candidate bit-vector of a variable (by any member vid)."""
        return self._rows[self.soi.find(vid)]

    def candidates(self, vid: int) -> Set[Hashable]:
        """Candidate node names of a variable."""
        data = self.data
        return {data.node_name(int(i)) for i in self.row(vid).iter_ones()}

    def total_bits(self) -> int:
        return sum(row.count() for row in self._rows.values())

    def is_empty(self) -> bool:
        return all(row.is_empty() for row in self._rows.values())

    def to_relation(self) -> Relation:
        """Characteristic-function view keyed by variable origins.

        Intended for SOIs built from pattern graphs, where every
        variable's origin is the pattern node name.
        """
        relation: Relation = {}
        for var in self.soi.variables:
            if var.origin is None:
                continue
            relation[var.origin] = self.candidates(var.vid)
        return relation


def _initial_rows(
    soi: SystemOfInequalities, data: Graph, options: SolverOptions
) -> Dict[int, Bitset]:
    n = data.n_nodes
    matrices = data.matrices()
    rows: Dict[int, Bitset] = {}
    for root in soi.roots():
        var = soi.variable(root)
        if var.has_constant:
            if data.has_node(var.constant):
                rows[root] = Bitset.singleton(n, data.node_index(var.constant))
            else:
                rows[root] = Bitset.zeros(n)
        else:
            rows[root] = Bitset.ones(n)
    if options.initialization == "summary":
        # Eq. (13): v <= AND of incident-edge summary vectors.  For
        # plain-simulation edges only the source is constrained (the
        # target owes nothing to its predecessors).  A tiered view's
        # mapping serves summaries without materializing any label
        # (so initialization never promotes, and never re-promotes a
        # demoted label); plain dict matrices read them straight off
        # the pair, which is resident by definition.
        summaries_of = getattr(matrices, "summaries", None)
        for edge in soi.edges:
            source = soi.find(edge.source)
            target = soi.find(edge.target)
            if summaries_of is not None:
                summaries = summaries_of(edge.label)
                if summaries is None:
                    rows[source].clear()
                    if edge.dual:
                        rows[target].clear()
                else:
                    rows[source] &= summaries[0]
                    if edge.dual:
                        rows[target] &= summaries[1]
                continue
            pair = matrices.get(edge.label)
            if pair is None:
                rows[source].clear()
                if edge.dual:
                    rows[target].clear()
            else:
                rows[source] &= pair.forward.summary
                if edge.dual:
                    rows[target] &= pair.backward.summary
    return rows


def solve(
    soi: SystemOfInequalities,
    data: Graph,
    options: Optional[SolverOptions] = None,
    prefilter: Optional[Dict[int, Bitset]] = None,
    *,
    limits: Optional[ExecutionLimits] = None,
    resume: Optional[SolverCheckpoint] = None,
) -> SolverResult:
    """Compute the largest solution of ``soi`` over ``data``.

    ``prefilter`` optionally intersects initial rows with externally
    computed candidate sets (keyed by canonical vid) — e.g. from the
    bisimulation-quotient index.  The prefilter must over-approximate
    the largest solution or candidates will be lost.

    ``limits`` bounds the call: on quantum expiry the result carries a
    :class:`~repro.core.checkpoint.SolverCheckpoint` (``complete`` is
    False); a blown deadline raises
    :class:`~repro.errors.DeadlineExceededError`.  ``resume`` continues
    a suspended solve — under *any* kernel, not just the one that took
    the checkpoint — and the concatenation of the preempted segments
    reproduces the uninterrupted trajectory and counters bit for bit.

    With ``options.degrade_on_fault``, a non-repro exception from an
    optimized kernel reruns the solve one tier down (batched → packed
    → reference; the kernels are bit-identical, so the answer is the
    same) and records a
    :class:`~repro.core.degrade.DegradationEvent`.
    """
    options = options or SolverOptions()
    if not options.degrade_on_fault:
        return _solve_segment(
            soi, data, options, prefilter, limits=limits, resume=resume
        )
    kernel = active_kernel()
    while True:
        try:
            with use_kernel(kernel):
                return _solve_segment(
                    soi, data, options, prefilter,
                    limits=limits, resume=resume,
                )
        except ReproError:
            raise  # typed outcomes (deadline, bad input) are answers
        except Exception as error:
            fallback = next_kernel(kernel)
            if fallback is None:
                raise
            record_degradation(kernel, fallback, error)
            kernel = fallback


def _solve_segment(
    soi: SystemOfInequalities,
    data: Graph,
    options: SolverOptions,
    prefilter: Optional[Dict[int, Bitset]] = None,
    *,
    limits: Optional[ExecutionLimits] = None,
    resume: Optional[SolverCheckpoint] = None,
) -> SolverResult:
    """One solve attempt, wrapped in a ``solve`` span when tracing.

    Each preempted segment gets its own span (a resumed solve is a new
    segment), with the cumulative work counters attached on close.
    The disabled path adds exactly one ``tracer.enabled`` check around
    the untouched inner loop — the perf-regression gate holds it to
    the untraced baseline.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        result = _solve_once(
            soi, data, options, prefilter, limits=limits, resume=resume
        )
        if result.checkpoint is not None:
            registry().counter("solver_checkpoints_total").inc()
        return result
    with tracer.span(
        "solve",
        kernel=active_kernel(),
        ordering=options.ordering,
        resumed=resume is not None,
        workers=options.workers,
    ) as span:
        result = _solve_once(
            soi, data, options, prefilter, limits=limits, resume=resume
        )
        report = result.report
        span.set_attributes(
            rounds=report.rounds,
            evaluations=report.evaluations,
            updates=report.updates,
            bits_removed=report.bits_removed,
            complete=result.complete,
        )
        if result.checkpoint is not None:
            registry().counter("solver_checkpoints_total").inc()
            tracer.event(
                "checkpoint",
                phase=result.checkpoint.phase,
                evaluations=report.evaluations,
            )
        return result


def _solve_once(
    soi: SystemOfInequalities,
    data: Graph,
    options: SolverOptions,
    prefilter: Optional[Dict[int, Bitset]] = None,
    *,
    limits: Optional[ExecutionLimits] = None,
    resume: Optional[SolverCheckpoint] = None,
) -> SolverResult:
    """One solve attempt under the currently active kernel."""
    start = time.perf_counter()
    report = SolverReport()
    matrices = data.matrices()
    n = data.n_nodes
    dynamic = options.ordering == "dynamic"
    phase = PHASE_DYNAMIC if dynamic else PHASE_STATIC
    timer: Optional[LimitTimer] = (
        limits.start() if limits is not None and limits.bounded else None
    )
    elapsed_prior = 0.0
    if resume is not None:
        if resume.phase != phase:
            raise SolverError(
                f"checkpoint was taken under a {resume.phase!r} "
                f"ordering phase; these options run {phase!r}"
            )
        resume.validate_for(soi, data)
        # Private copies: this solve's mutations must not corrupt the
        # caller's checkpoint (it may retry / branch from it).
        rows = {vid: row.copy() for vid, row in resume.rows.items()}
        report.rounds = resume.rounds
        report.evaluations = resume.evaluations
        report.updates = resume.updates
        report.bits_removed = resume.bits_removed
        elapsed_prior = resume.elapsed
    else:
        rows = _initial_rows(soi, data, options)
        if prefilter:
            for vid, candidates in prefilter.items():
                rows[soi.find(vid)] &= candidates

    inequalities = soi.inequalities
    checkpoint: Optional[SolverCheckpoint] = None

    def suspension_elapsed() -> float:
        return elapsed_prior + time.perf_counter() - start

    # Index: canonical source vid -> inequalities it feeds.
    by_source: Dict[int, List[int]] = {}
    for idx, ineq in enumerate(inequalities):
        by_source.setdefault(soi.find(ineq.source), []).append(idx)

    def evaluate(idx: int) -> bool:
        """Evaluate one inequality; True iff the target row shrank.

        Popcounts come from the Bitset cache: ``before`` is O(1) when
        the target row did not change since its last evaluation, and
        each update recounts its row exactly once (no count-before /
        count-after double scan).
        """
        ineq = inequalities[idx]
        target = soi.find(ineq.target)
        source = soi.find(ineq.source)
        target_row = rows[target]
        report.evaluations += 1
        before = target_row.count()
        if before == 0:
            return False

        if isinstance(ineq, CopyInequality):
            removed = target_row.intersection_update_delta(rows[source])
            if removed == 0:
                return False
        else:
            pair = matrices.get(ineq.label)
            if pair is None or rows[source].count() == 0:
                # Absent label or empty source: the product is the
                # zero vector either way — skip the kernel call.
                target_row.clear()
                removed = before
            else:
                direction = (
                    "forward" if ineq.matrix == FORWARD else "backward"
                )
                result = pair.product(
                    rows[source],
                    direction,
                    mask=target_row,
                    strategy=options.product,
                )
                after = result.count()
                if after == before:
                    return False  # result subset of target & equal size
                rows[target] = result
                removed = before - after

        report.updates += 1
        report.bits_removed += removed
        return True

    if options.ordering == "dynamic":
        # Fully dynamic selection: always evaluate the unstable
        # inequality whose source row currently has the fewest set
        # bits ("shrink the simulation as early as possible" taken to
        # its run-time-analytics extreme).  A lazy min-heap keyed on
        # the cached source popcounts replaces the seed's O(|pending|)
        # scan per step: entries are (count, idx); a fresh entry is
        # pushed whenever an inequality (re-)enters the worklist or
        # its source row shrinks, and stale entries are skipped on
        # pop, so the pop order equals the exact (count, idx) minimum.
        # A resumed solve rebuilds the heap from current popcounts —
        # the heap is a pure cache of the pending set (every pending
        # inequality always has an entry at its current count), so the
        # rebuilt pop order equals the uninterrupted one.
        source_of = [soi.find(ineq.source) for ineq in inequalities]
        pending: Set[int] = (
            set(resume.pending) if resume is not None
            else set(range(len(inequalities)))
        )
        heap: List[tuple] = [
            (rows[source_of[idx]].count(), idx) for idx in pending
        ]
        heapq.heapify(heap)
        while pending:
            if timer is not None:
                timer.check_deadline()
            key, idx = heapq.heappop(heap)
            if idx not in pending:
                continue  # stale: already evaluated since this push
            current = rows[source_of[idx]].count()
            if current < key:
                # Stale priority: the source shrank after this push.
                heapq.heappush(heap, (current, idx))
                continue
            pending.discard(idx)
            if evaluate(idx):
                target = soi.find(inequalities[idx].target)
                new_count = rows[target].count()
                for dependent in by_source.get(target, ()):
                    pending.add(dependent)
                    heapq.heappush(heap, (new_count, dependent))
            if timer is not None:
                timer.note_work()
                if pending and timer.should_preempt():
                    if inequalities:
                        report.rounds = -(
                            -report.evaluations // len(inequalities)
                        )
                    checkpoint = SolverCheckpoint.capture(
                        PHASE_DYNAMIC, n, rows, report,
                        suspension_elapsed(), pending=pending,
                    )
                    break
        if checkpoint is None and inequalities:
            report.rounds = -(-report.evaluations // len(inequalities))
    else:
        # Static priority of each inequality (lower rank runs earlier).
        order = order_inequalities(
            inequalities, matrices, n,
            ordering=options.ordering, seed=options.seed,
        )
        rank = {idx: position for position, idx in enumerate(order)}
        executor = (
            executor_for(options, data)
            if active_kernel() == BATCHED else None
        )
        if executor is not None:
            # Parallel batched solve: hazard-free runs of inequalities
            # whose products the executor computes side by side
            # (repro.core.batched).  Serial batched solves, and the
            # dynamic ordering above, run the per-inequality products.
            suspended = run_batched(
                soi, matrices, rows, inequalities, by_source, rank,
                options.product, report, n,
                timer=timer,
                resume_queue=(
                    list(resume.queue) if resume is not None else None
                ),
                resume_updated=(
                    set(resume.updated) if resume is not None else None
                ),
                executor=executor,
            )
            if suspended is not None:
                remaining, updated = suspended
                checkpoint = SolverCheckpoint.capture(
                    PHASE_STATIC, n, rows, report,
                    suspension_elapsed(),
                    queue=remaining, updated=updated,
                )
        else:
            target_of = [soi.find(ineq.target) for ineq in inequalities]
            if resume is not None:
                queue: List[int] = list(resume.queue)
                updated: Set[int] = set(resume.updated)
                open_round = True  # continue the suspended round
            else:
                queue = sorted(
                    range(len(inequalities)), key=rank.__getitem__
                )
                updated = set()
                open_round = False
            while queue or open_round:
                if not open_round:
                    report.rounds += 1
                open_round = False
                if timer is None:
                    # Unbounded fast path: the seed's plain loop shape.
                    # No positional bookkeeping and no per-evaluation
                    # timer branches — an unbounded solve pays zero
                    # preemption overhead (the packed kernel's short
                    # evaluations are sensitive to per-step Python
                    # cost; the perf-regression gate holds this path
                    # to the PR 5 baseline).  Evaluation order is
                    # identical to the bounded loop below, so the
                    # trajectory stays bit-identical either way.
                    for idx in queue:
                        if evaluate(idx):
                            updated.add(target_of[idx])
                else:
                    position = 0
                    while position < len(queue):
                        idx = queue[position]
                        position += 1
                        timer.check_deadline()
                        if evaluate(idx):
                            updated.add(target_of[idx])
                        timer.note_work()
                        if timer.should_preempt() and (
                            position < len(queue) or updated
                        ):
                            checkpoint = SolverCheckpoint.capture(
                                PHASE_STATIC, n, rows, report,
                                suspension_elapsed(),
                                queue=queue[position:], updated=updated,
                            )
                            break
                    if checkpoint is not None:
                        break
                # The next round's queue is a pure function of the
                # updated-target set (dependents via the static
                # ``by_source`` index) — which is why a mid-round
                # suspension only needs the remaining slice and this
                # set to resume exactly.
                pending_next: Set[int] = set()
                for target in updated:
                    pending_next.update(by_source.get(target, ()))
                queue = sorted(pending_next, key=rank.__getitem__)
                updated = set()

    report.elapsed = elapsed_prior + time.perf_counter() - start
    if checkpoint is not None:
        checkpoint.elapsed = report.elapsed
    return SolverResult(soi, data, rows, report, checkpoint=checkpoint)


def largest_dual_simulation(
    pattern: Graph,
    data: Graph,
    options: Optional[SolverOptions] = None,
) -> SolverResult:
    """Largest dual simulation between a pattern graph and a data
    graph via the SOI solver (the fast path of Table 2)."""
    soi = SystemOfInequalities.from_pattern_graph(pattern)
    return solve(soi, data, options)
