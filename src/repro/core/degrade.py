"""Graceful kernel degradation: batched → packed → reference.

The three solver kernels are proven bit-identical, so a fault inside
an optimized kernel (a NumPy dtype surprise on an exotic platform, a
corrupted adjacency array, a bug tripped by an unusual shape) never has
to kill the query — the same solve can rerun one tier down and
produce the *same* answer, just slower.

:func:`repro.core.solver.solve` consults
``SolverOptions.degrade_on_fault``: typed repro errors (including
:class:`~repro.errors.DeadlineExceededError`) always propagate — they
are answers, not faults — but any other exception from a degradable
kernel triggers a retry on the next tier, recorded here as a
:class:`DegradationEvent`.  The core default is **off** (the
kernel-equivalence property suites must see real failures, not silent
fallbacks); the :class:`~repro.api.profile.ExecutionProfile` façade
turns it on for end-user sessions.

Events are collected per registered sink (the
:class:`~repro.api.database.Database` installs one around each
operation so degradations surface in ``stats()``), plus a bounded
process-wide tail for ad-hoc inspection.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from repro.obs.logs import get_logger
from repro.obs.metrics import registry
from repro.obs.trace import current_tracer

logger = get_logger("core.degrade")

#: Fallback order: index i degrades to index i+1.
DEGRADATION_CHAIN: Tuple[str, ...] = ("batched", "packed", "reference")

#: Process-wide tail of recent events (newest last), bounded.
_RECENT_LIMIT = 64
_recent: List["DegradationEvent"] = []
_sinks: List[Callable[["DegradationEvent"], None]] = []


@dataclass(frozen=True)
class DegradationEvent:
    """One kernel fallback that actually happened."""

    from_kernel: str
    to_kernel: str
    error_type: str
    error: str
    timestamp: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "from_kernel": self.from_kernel,
            "to_kernel": self.to_kernel,
            "error_type": self.error_type,
            "error": self.error,
        }


def next_kernel(kernel: str) -> Optional[str]:
    """The tier below ``kernel``, or None at the bottom of the chain."""
    try:
        position = DEGRADATION_CHAIN.index(kernel)
    except ValueError:
        return None
    if position + 1 >= len(DEGRADATION_CHAIN):
        return None
    return DEGRADATION_CHAIN[position + 1]


def record(from_kernel: str, to_kernel: str, error: BaseException) -> DegradationEvent:
    """Register one fallback with every active sink."""
    event = DegradationEvent(
        from_kernel=from_kernel,
        to_kernel=to_kernel,
        error_type=type(error).__name__,
        error=str(error),
    )
    _recent.append(event)
    del _recent[:-_RECENT_LIMIT]
    registry().counter("kernel_degradations_total").inc()
    tracer = current_tracer()
    if tracer.enabled:
        tracer.event(
            "degrade",
            from_kernel=from_kernel,
            to_kernel=to_kernel,
            error_type=event.error_type,
        )
    logger.warning(
        "kernel degradation: %s -> %s after %s: %s",
        from_kernel, to_kernel, event.error_type, event.error,
    )
    for sink in _sinks:
        sink(event)
    return event


def recent_events() -> List[DegradationEvent]:
    """Process-wide tail of recent degradations (newest last)."""
    return list(_recent)


def clear_recent() -> None:
    _recent.clear()


@contextmanager
def capture_events(into: List[DegradationEvent]) -> Iterator[List[DegradationEvent]]:
    """Collect every degradation recorded inside the block."""
    sink = into.append
    _sinks.append(sink)
    try:
        yield into
    finally:
        _sinks.remove(sink)
