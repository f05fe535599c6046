"""Bit-vector / bit-matrix kernel (paper Sect. 3.2).

Public surface:

* :class:`Bitset` — fixed-width mutable bitsets over uint64 words,
  with cached popcounts.
* :class:`AdjacencyMatrix` — one direction of a label's adjacency in
  CSR form (``indptr`` over the node ids, ``int32`` column
  ``indices``), with vectorized row- and column-wise products.
* :class:`LabelMatrixPair` — forward+backward matrices of one label.
* :func:`build_label_matrices` — construct all label matrices at once.
* :func:`active_kernel` / :func:`set_kernel` / :func:`use_kernel` —
  the ``packed`` vs ``batched`` vs ``reference`` product-kernel
  switch.
"""

from repro.bitvec.bitset import Bitset
from repro.bitvec.kernel import (
    BATCHED,
    KERNELS,
    PACKED,
    REFERENCE,
    active_kernel,
    set_kernel,
    use_kernel,
)
from repro.bitvec.matrix import (
    AdjacencyMatrix,
    LabelMatrixPair,
    build_label_matrices,
)

__all__ = [
    "Bitset",
    "AdjacencyMatrix",
    "LabelMatrixPair",
    "build_label_matrices",
    "KERNELS",
    "PACKED",
    "BATCHED",
    "REFERENCE",
    "active_kernel",
    "set_kernel",
    "use_kernel",
]
