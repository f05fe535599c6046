"""Execution configuration for a :class:`~repro.api.database.Database`.

Before the façade, running a query meant scattering configuration
across a positional engine-profile string, ``SolverOptions`` kwargs,
and the choice of constructor (pruned pipeline vs bare engine).
:class:`ExecutionProfile` collects all of it in one immutable value
object that travels with the session.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.bitvec.kernel import KERNELS, active_kernel, use_kernel
from repro.core.checkpoint import ExecutionLimits
from repro.core.parallel import WORKER_MODES
from repro.core.solver import SolverOptions
from repro.errors import ReproError
from repro.store.engine import PROFILES


def _default_solver_options() -> SolverOptions:
    # Façade sessions degrade kernel faults (batched → packed →
    # reference) instead of failing the query; the core default stays
    # off so kernel-equivalence tests see real failures.
    return SolverOptions(degrade_on_fault=True)

#: Query execution modes (``ExecutionProfile.pruning``).
PRUNING_MODES = ("pruned", "full", "auto")


@dataclass(frozen=True)
class ExecutionProfile:
    """How a session executes queries.

    * ``engine`` — join-engine profile (``rdfox-like`` materializes,
      ``virtuoso-like`` propagates bindings), as in Tables 4/5;
    * ``pruning`` — whether :meth:`Database.query` prunes via dual
      simulation first: ``"pruned"`` always, ``"full"`` never,
      ``"auto"`` per query on the statistics advisor's verdict
      (the paper's Sect. 5.3 guideline);
    * ``kernel`` — bit-matrix product kernel over the CSR adjacency:
      ``packed`` (one vectorized product per inequality), ``batched``
      (the packed products, plus parallel flushes when ``workers`` is
      above 1), or ``reference`` (the seed per-row loops, kept for
      ablation); ``None`` defers to the process default;
    * ``solver`` — SOI fixpoint strategy knobs (Sect. 3.3);
    * ``residency_budget`` — hard ceiling, in bytes, on resident
      CSR adjacency for snapshot-backed sessions.  Enforced by an LRU
      demotion pass over materialized labels: after every query (and
      on every mid-solve promotion) the least-recently-touched labels
      drop back to their on-disk rows until the ceiling holds, with
      Eq. (13) summaries kept resident.  Answers are unaffected —
      demoted labels transparently re-materialize on the next touch —
      and ``Database.stats()`` reports the demotion counters.
      (Advisory-only before PR 5: the old one-time ``ResourceWarning``
      is gone.)
    * ``time_quantum_ms`` — preemptable execution: the dual-simulation
      stage of :meth:`Database.query` suspends after this much wall
      time and returns a partial :class:`~repro.api.result.ResultSet`
      carrying a continuation token (``0`` means single-step — exactly
      one solver evaluation per call).  Resume with
      :meth:`Database.resume`; the stitched-together run is
      bit-identical to an uninterrupted one.
    * ``deadline_ms`` — hard wall-clock bound on the dual-simulation
      stage of ``query``/``ask``/``simulate``; exceeding it raises
      :class:`~repro.errors.DeadlineExceededError`.
    * ``trace`` — collect a query-lifecycle trace for every query run
      under this profile: each :meth:`Database.query` activates a
      fresh :class:`~repro.obs.trace.Tracer` and attaches it to the
      returned :class:`~repro.api.result.ResultSet` as ``.trace``
      (render with :func:`repro.obs.render_profile`, export with
      ``trace.write_jsonl``).  Off by default — the disabled path is a
      single module-global read per hook site.
    * ``incremental`` — maintain cached dual-simulation fixpoints
      incrementally on writable (overlay) sessions: after a delta, a
      repeated query re-solves only the cone of influence the touched
      labels can reach (:mod:`repro.core.incremental`), bit-identical
      to a cold re-solve.  Ignored on read-only backends; on by
      default.
    * ``incremental_fallback_fraction`` — give up on the bounded
      cascade and re-solve cold when the delta re-activates more than
      this fraction of the query's inequalities.
    * ``workers`` — parallel evaluation width for the batched kernel's
      flush computes (:mod:`repro.core.parallel`).  ``None`` or ``1``
      runs serial (the per-inequality products); higher values
      are a pure throughput knob — answers, trajectory, and work
      counters stay bit-identical, so continuations taken under one
      worker count resume under any other.
    * ``worker_mode`` — ``"threads"`` (default; safe on every
      backend — NumPy releases the GIL inside the bitwise kernels) or
      ``"fork"`` (a pool of forked processes each mmapping its own
      — on sharded snapshots, disjoint — subset of the snapshot;
      falls back to threads off-snapshot).
    """

    engine: str = "virtuoso-like"
    pruning: str = "auto"
    kernel: Optional[str] = None
    solver: SolverOptions = field(default_factory=_default_solver_options)
    residency_budget: Optional[int] = None
    time_quantum_ms: Optional[float] = None
    deadline_ms: Optional[float] = None
    trace: bool = False
    incremental: bool = True
    incremental_fallback_fraction: float = 0.5
    workers: Optional[int] = None
    worker_mode: str = "threads"

    def __post_init__(self):
        if self.engine not in PROFILES:
            raise ReproError(
                f"unknown engine profile {self.engine!r}; "
                f"choose from {sorted(PROFILES)}"
            )
        if self.pruning not in PRUNING_MODES:
            raise ReproError(
                f"unknown pruning mode {self.pruning!r}; "
                f"choose from {PRUNING_MODES}"
            )
        if self.kernel is not None and self.kernel not in KERNELS:
            raise ReproError(
                f"unknown kernel {self.kernel!r}; choose from {KERNELS}"
            )
        if (
            self.residency_budget is not None
            and self.residency_budget < 0
        ):
            raise ReproError("residency_budget must be >= 0")
        if self.time_quantum_ms is not None and self.time_quantum_ms < 0:
            raise ReproError(
                f"time_quantum_ms must be >= 0, got {self.time_quantum_ms}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ReproError(
                f"deadline_ms must be > 0, got {self.deadline_ms}"
            )
        if not 0.0 <= self.incremental_fallback_fraction <= 1.0:
            raise ReproError(
                f"incremental_fallback_fraction must be in [0, 1], "
                f"got {self.incremental_fallback_fraction}"
            )
        if self.workers is not None and (
            not isinstance(self.workers, int) or self.workers < 1
        ):
            raise ReproError(
                f"workers must be a positive integer, got {self.workers!r}"
            )
        if self.worker_mode not in WORKER_MODES:
            raise ReproError(
                f"unknown worker_mode {self.worker_mode!r}; "
                f"choose from {WORKER_MODES}"
            )

    def solver_options(self) -> SolverOptions:
        """The profile's solver options with the parallel knobs folded in.

        ``workers``/``worker_mode`` live on the profile (they are an
        execution concern, like the kernel), but the solver consumes
        them — this is the single place they meet.
        """
        if self.workers is None and self.worker_mode == "threads":
            return self.solver
        import dataclasses

        return dataclasses.replace(
            self.solver,
            workers=(
                self.workers
                if self.workers is not None
                else self.solver.workers
            ),
            worker_mode=self.worker_mode,
        )

    @classmethod
    def coerce(
        cls, profile: Union["ExecutionProfile", str, None]
    ) -> "ExecutionProfile":
        """Normalize the ``profile=`` argument of the façade.

        ``None`` means defaults; a string names an engine profile (the
        most common single override); an :class:`ExecutionProfile`
        passes through.
        """
        if profile is None:
            return cls()
        if isinstance(profile, ExecutionProfile):
            return profile
        if isinstance(profile, str):
            return cls(engine=profile)
        raise ReproError(
            f"cannot build an ExecutionProfile from {profile!r}"
        )

    def replace(self, **changes) -> "ExecutionProfile":
        """A copy with the given fields changed."""
        import dataclasses

        return dataclasses.replace(self, **changes)

    def execution_limits(
        self, include_quantum: bool = True
    ) -> Optional[ExecutionLimits]:
        """This profile's limits as solver-level
        :class:`~repro.core.checkpoint.ExecutionLimits` (or None when
        unbounded).  ``include_quantum=False`` keeps only the deadline
        — operations without a continuation surface (``ask``,
        ``simulate``) are deadline-bounded but never suspend.
        """
        quantum = self.time_quantum_ms if include_quantum else None
        if quantum is None and self.deadline_ms is None:
            return None
        return ExecutionLimits(
            quantum_ms=quantum, deadline_ms=self.deadline_ms
        )

    def resolved_kernel(self) -> str:
        """The kernel queries will actually run on.

        Explicit ``kernel`` wins; otherwise the process-active kernel.
        """
        if self.kernel is not None:
            return self.kernel
        return active_kernel()

    @contextlib.contextmanager
    def kernel_context(self) -> Iterator[str]:
        """Activate this profile's kernel for the duration of a query.

        When no kernel is pinned, the process-level selection (set via
        :func:`repro.bitvec.kernel.set_kernel`/``use_kernel``) is left
        untouched.
        """
        resolved = self.resolved_kernel()
        if resolved == active_kernel():
            yield resolved
        else:
            with use_kernel(resolved) as name:
                yield name
