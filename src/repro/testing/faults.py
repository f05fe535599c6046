"""Fault-injection harness: break things on purpose, deterministically.

Three families of faults, mirroring the failure domains the library
defends against:

* **Snapshot corruption** — :func:`corruption_cases` enumerates one
  byte-flip (or truncation) per integrity class of the v2 snapshot
  format: header, both term dictionaries, the block table, every
  payload, the checksum table itself, and truncation.  Each case says
  where detection must happen (``"open"`` for eagerly-verified
  metadata, ``"verify"`` for lazily-checked payloads), so a test can
  assert the *promise*, not just "some error somewhere".

* **Transient promotion I/O** — :func:`failing_promotions` patches the
  snapshot reader's matrix accessors to raise :class:`OSError` a fixed
  number of times, exercising the tiered store's retry-with-backoff
  path without touching a real filesystem fault.

* **Kernel faults** — :func:`kernel_fault` makes one product kernel
  blow up (only while it is the active kernel), exercising the
  batched → packed → reference degradation chain end to end.

Everything here is deterministic: no randomness, no timing dependence
— a failing seed reproduces byte-for-byte.
"""

from __future__ import annotations

import contextlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Union

from repro.core.checkpoint import ExecutionLimits

# -- snapshot corruption ----------------------------------------------------


@dataclass(frozen=True)
class CorruptionCase:
    """One reproducible way to damage a snapshot file.

    ``mutate`` transforms the pristine file bytes into the damaged
    ones.  ``detected_at`` is the earliest point detection is
    guaranteed: ``"open"`` (eager metadata verification raises before
    a reader exists) or ``"verify"`` (payloads are checked lazily; a
    full :meth:`~repro.storage.reader.SnapshotReader.verify` pass, or
    the first access, flags them).
    """

    name: str
    section: str
    detected_at: str  # "open" or "verify"
    mutate: Callable[[bytes], bytes]

    def apply(self, data: bytes) -> bytes:
        damaged = self.mutate(data)
        if damaged == data:
            raise ValueError(
                f"corruption case {self.name!r} left the file unchanged"
            )
        return damaged


def _flip(offset: int) -> Callable[[bytes], bytes]:
    def mutate(data: bytes) -> bytes:
        body = bytearray(data)
        body[offset] ^= 0xFF
        return bytes(body)

    return mutate


def corruption_cases(path: Union[str, Path]) -> List[CorruptionCase]:
    """Every corruption class of the snapshot at ``path``, one case
    each (plus one per payload block).

    The file must be pristine and v2 — section ranges are read through
    a throwaway reader before any damage is planned.
    """
    from repro.storage.reader import SnapshotReader, _META_SECTIONS

    path = Path(path)
    cases: List[CorruptionCase] = []
    with SnapshotReader(path) as reader:
        if not reader.checksummed:
            raise ValueError(
                f"{path} is a v{reader.version} snapshot; corruption "
                "cases need the checksummed v2 format"
            )
        file_bytes = path.stat().st_size
        meta = {
            name: (start, length)
            for name, start, length in reader._meta_ranges()
        }
        for name in _META_SECTIONS:
            start, length = meta[name]
            cases.append(CorruptionCase(
                name=name.replace(" ", "-"),
                section=name,
                detected_at="open",
                mutate=_flip(start + length // 2),
            ))
        for (label, direction), entry in sorted(reader._blocks.items()):
            cases.append(CorruptionCase(
                name=f"payload-{label}-{direction}",
                section=f"payload {label}/{direction}",
                detected_at="verify",
                mutate=_flip(entry.payload_off + entry.payload_len // 2),
            ))
        table_off = reader._header.checksum_table_off
        cases.append(CorruptionCase(
            name="checksum-table",
            section="checksum table",
            detected_at="open",
            mutate=_flip(table_off + (file_bytes - table_off) // 2),
        ))
    cases.append(CorruptionCase(
        name="truncation",
        section="checksum table",
        detected_at="open",
        mutate=lambda data: data[: len(data) - max(1, len(data) // 4)],
    ))
    return cases


def corrupt_copy(
    source: Union[str, Path],
    case: CorruptionCase,
    target: Union[str, Path],
) -> Path:
    """Write a damaged copy of ``source`` at ``target`` and return it."""
    source, target = Path(source), Path(target)
    target.write_bytes(case.apply(source.read_bytes()))
    shutil.copystat(source, target)
    return target


# -- transient promotion I/O ------------------------------------------------


class PromotionFaults:
    """Mutable state of one :func:`failing_promotions` window."""

    def __init__(self, failures: int):
        self.remaining = failures
        self.injected = 0

    def should_fail(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        self.injected += 1
        return True


@contextlib.contextmanager
def failing_promotions(
    failures: int = 1,
    error: Optional[Exception] = None,
) -> Iterator[PromotionFaults]:
    """Make the next ``failures`` snapshot matrix reads raise OSError.

    Patches :class:`~repro.storage.reader.SnapshotReader`'s
    ``dense_matrix`` / ``gap_matrix`` (the promotion entry points the
    tiered store retries).  Yields a :class:`PromotionFaults` whose
    ``injected`` counter tells how many faults actually fired — a test
    can assert it matches the store's ``promotion_retries``.
    """
    from repro.storage.reader import SnapshotReader

    state = PromotionFaults(failures)
    originals = {
        name: getattr(SnapshotReader, name)
        for name in ("dense_matrix", "gap_matrix")
    }

    def wrap(original):
        def patched(self, *call_args, **call_kwargs):
            if state.should_fail():
                raise error if error is not None else OSError(
                    "injected transient promotion failure"
                )
            return original(self, *call_args, **call_kwargs)

        return patched

    for name, original in originals.items():
        setattr(SnapshotReader, name, wrap(original))
    try:
        yield state
    finally:
        for name, original in originals.items():
            setattr(SnapshotReader, name, original)


# -- kernel faults ----------------------------------------------------------


@contextlib.contextmanager
def kernel_fault(
    kernel: str,
    error: Optional[Exception] = None,
) -> Iterator[None]:
    """Make one product kernel fail while it is the active kernel.

    The label-matrix product (every serial solve's entry point) and
    the flush of the parallel batched engine raise, but only when
    :func:`~repro.bitvec.kernel.active_kernel` matches ``kernel``, so
    the injected fault follows the degradation chain instead of
    poisoning every tier at once.

    With ``degrade_on_fault`` enabled the solver falls through to the
    next tier and still answers; a ``"reference"`` fault has no tier
    below it and propagates.
    """
    from repro.bitvec.kernel import KERNELS, active_kernel
    from repro.bitvec.matrix import LabelMatrixPair
    from repro.core.batched import _Batch

    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {KERNELS}"
        )

    def faulting(original):
        def patched(self, *call_args, **call_kwargs):
            if active_kernel() == kernel:
                raise error if error is not None else RuntimeError(
                    f"injected {kernel} kernel fault"
                )
            return original(self, *call_args, **call_kwargs)

        return patched

    product, flush = LabelMatrixPair.product, _Batch.flush
    LabelMatrixPair.product = faulting(product)
    _Batch.flush = faulting(flush)
    try:
        yield
    finally:
        LabelMatrixPair.product, _Batch.flush = product, flush


# -- forced preemption ------------------------------------------------------


def single_step() -> ExecutionLimits:
    """Limits that suspend after every single solver evaluation — the
    densest possible preemption schedule (``quantum_ms=0``)."""
    return ExecutionLimits(quantum_ms=0.0)


def preempt_after(evaluations: int) -> ExecutionLimits:
    """Limits that suspend after exactly ``evaluations`` solver
    evaluations — wall-clock-free, so interleavings are reproducible
    in tests regardless of machine speed."""
    return ExecutionLimits(preempt_after=evaluations)
