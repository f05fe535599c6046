"""Kernel selection for the bit-matrix products (ablation switch).

Every :class:`~repro.bitvec.matrix.AdjacencyMatrix` stores its rows
in one CSR layout (int32 ``indices`` plus an ``indptr`` over the node
ids).  Three implementations of the Eq. (9) bit-vector x bit-matrix
products run on it:

* ``"packed"`` (default) — one vectorized product per (label,
  direction) inequality: a row-wise product gathers the neighbour
  ranges of the source vector's set bits and scatters them into a
  bitset; a column-wise product gathers the dual neighbours of the
  mask's bits and keeps the candidates whose gathered neighbours hit
  the source vector.  (The name dates from the dense packed-row
  layout this kernel used to run on; it is kept because profiles,
  continuation tokens, the CLI, and the recorded benches are keyed
  by it.)
* ``"batched"`` — the packed products, plus the solver's parallel
  mode: with ``workers > 1`` the solver defers hazard-free runs of
  inequalities and computes each run's products side by side (see
  :mod:`repro.core.batched` and :mod:`repro.core.parallel`).  Serial
  solves run exactly the packed kernel's per-inequality products;
  the name stays for the same keying reasons as ``packed``.
* ``"reference"`` — the seed implementation: Python loops over one
  :class:`~repro.bitvec.bitset.Bitset` per row.  The row dict is
  built from the CSR arrays on a matrix's first reference product and
  cached; the default kernels never build it.  Kept verbatim so
  ablation benches can quantify the vectorized kernels' win, the
  kernel gate can normalize machine drift, and property tests can
  assert bit-identical results.

The kernel is chosen per session with ``repro.ExecutionProfile(kernel=...)``
or the ``--kernel`` CLI flag, and at runtime with :func:`set_kernel`
or the :func:`use_kernel` context manager.  The switch is consulted
on every product call, so any matrix answers under any kernel.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

PACKED = "packed"
BATCHED = "batched"
REFERENCE = "reference"
KERNELS = (PACKED, BATCHED, REFERENCE)

_active = PACKED


def active_kernel() -> str:
    """Name of the kernel the products currently run on."""
    return _active


def set_kernel(name: str) -> str:
    """Select a kernel; returns the previously active one."""
    global _active
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {KERNELS}")
    previous = _active
    _active = name
    return previous


@contextlib.contextmanager
def use_kernel(name: str) -> Iterator[str]:
    """Temporarily switch kernels (for tests and ablation benches)."""
    previous = set_kernel(name)
    try:
        yield name
    finally:
        set_kernel(previous)
