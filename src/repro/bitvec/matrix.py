"""Per-label adjacency matrices in CSR form (Sect. 3.2 of the paper).

For every edge label ``a`` the paper stores two adjacency matrices
``F_a`` (forward) and ``B_a`` (backward).  Dense |V|x|V| bit matrices
are wasteful for sparse graphs — the paper's prototype keeps them
gap-length encoded — so every matrix here is stored in compressed
sparse row (CSR) form, O(|E|) memory:

* ``indices`` — the column ids of all edges, ``int32``, grouped by
  row and ascending within a row;
* ``indptr`` — ``n + 1`` offsets over the node-id space: row ``i``'s
  columns are ``indices[indptr[i]:indptr[i + 1]]`` (empty rows are
  empty ranges, so isolated nodes cost one offset each).

This module is the only one that knows those two arrays; everything
else goes through :class:`AdjacencyMatrix` methods (``neighbours``,
``gather``, ``edges``, ``edges_between``, ...).  The summary vector
of Eq. (13) — bit ``i`` set iff row ``i`` is non-empty — is computed
once at construction.

The core operation is the bit-vector x bit-matrix product (Eq. (9)):

    ``(chi x_b F_a)(j) = 1`` iff exists ``i`` with ``chi(i) = 1`` and
    ``F_a(i, j) = 1``.

Two evaluation strategies are provided, matching Sect. 3.3:

* *row-wise* — gather the neighbour ranges of the set bits of ``chi``
  and scatter them into a bitset; cost is proportional to the edges
  leaving ``chi``.
* *column-wise* — restricted to a target mask, keep column ``j`` iff
  the *transposed* row (the row of the dual matrix) intersects
  ``chi``: gather the dual neighbours of the mask's bits and test
  each against ``chi``; cost is proportional to the edges entering
  the mask.

Both return identical results; the solver picks per evaluation.  A
source vector covering the whole primary summary short-cuts to the
dual summary (the OR of all rows), with no gather at all.  The
``"reference"`` kernel (see :mod:`repro.bitvec.kernel`) keeps the
seed's per-row :class:`Bitset` loops over a row dict built from the
CSR arrays on its first use.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Tuple

import numpy as np

from repro.bitvec.bitset import Bitset, probe_bits, scatter_words
from repro.bitvec.kernel import REFERENCE, active_kernel
from repro.errors import DimensionMismatchError

_INDEX = np.int32
_OFFSET = np.int64
#: Words expanded per step when converting a dense row block.
_DENSE_CHUNK_WORDS = 1 << 18


def _flat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``range(starts[k], starts[k] + lengths[k])``."""
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]), dtype=_OFFSET) + np.repeat(
        starts - (ends - lengths), lengths
    )


def csr_bytes(n: int, n_edges: int) -> int:
    """Resident bytes of one direction's CSR arrays (``n + 1`` int64
    offsets plus one int32 column id per edge)."""
    return np.dtype(_OFFSET).itemsize * (n + 1) + np.dtype(
        _INDEX
    ).itemsize * n_edges


def column_cheaper(
    vec_count: int, mask_count: int, primary_rows: int, dual_rows: int
) -> bool:
    """The CSR cost model behind the ``auto`` strategy.

    A row-wise product touches the edges leaving the source vector,
    about ``vec_count * |E| / primary_rows``; a column-wise product the
    edges entering the mask, about ``mask_count * |E| / dual_rows``.
    (Comparing bare popcounts, as the per-row reference kernel does,
    sends a one-candidate mask on a hub column — a class node with
    thousands of ``type`` edges — column-wise.)
    """
    return mask_count * primary_rows < vec_count * dual_rows


class AdjacencyMatrix:
    """One direction (forward or backward) of a label's adjacency.

    Row ``i`` holds the nodes reachable from ``i`` via one edge of this
    label and direction.  ``summary`` is the paper's ``f_a`` / ``b_a``
    vector (Eq. (13)): bit ``i`` is set iff row ``i`` is non-empty.
    """

    __slots__ = ("n", "_indptr", "_indices", "summary", "_rows")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray | None = None,
        indices: np.ndarray | None = None,
    ):
        self.n = n
        if indptr is None:
            indptr = np.zeros(n + 1, dtype=_OFFSET)
            indices = np.empty(0, dtype=_INDEX)
        self._indptr = indptr
        self._indices = indices
        self.summary = Bitset.from_indices(n, np.flatnonzero(np.diff(indptr)))
        self._rows: Dict[int, Bitset] | None = None

    @classmethod
    def from_sorted(
        cls, n: int, rows: np.ndarray, cols: np.ndarray
    ) -> "AdjacencyMatrix":
        """Build from edge arrays sorted by ``(row, col)``, no repeats."""
        indptr = np.zeros(n + 1, dtype=_OFFSET)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, indptr, cols.astype(_INDEX))

    @classmethod
    def from_edges(
        cls, n: int, rows: np.ndarray, cols: np.ndarray
    ) -> "AdjacencyMatrix":
        """Build from unordered edge arrays (repeats collapse)."""
        rows = np.asarray(rows, dtype=np.int64)
        return _split_by_label(
            n, np.zeros(rows.size, dtype=np.int64), rows,
            np.asarray(cols, dtype=np.int64), 1,
        )[0]

    @classmethod
    def from_dense_rows(
        cls, n: int, nodes: np.ndarray, block: np.ndarray
    ) -> "AdjacencyMatrix":
        """Build from a dense row block (``block[k]`` is row
        ``nodes[k]`` as ``uint64`` words, the dense snapshot payload).

        Only the non-zero words are expanded to bits, a bounded chunk
        of words at a time, so no |rows| x |V| temporary ever exists.
        Raises ``IndexError`` on a bit at or past ``n``.
        """
        n_words = (n + 63) // 64
        flat = block.reshape(-1)
        rows, cols = [], []
        for start in range(0, flat.size, _DENSE_CHUNK_WORDS):
            part = flat[start:start + _DENSE_CHUNK_WORDS]
            nonzero = np.flatnonzero(part)
            if nonzero.size == 0:
                continue
            bits = np.unpackbits(
                part[nonzero].view(np.uint8), bitorder="little"
            ).reshape(nonzero.size, 64)
            word_at, bit = np.nonzero(bits)
            position = start + nonzero[word_at]
            rows.append(nodes[position // n_words])
            cols.append((position % n_words) * 64 + bit)
        if not rows:
            return cls(n)
        return cls.from_edges(n, np.concatenate(rows), np.concatenate(cols))

    def add(self, src: int, dst: int) -> None:
        """Record an edge src -> dst (in this direction's orientation).

        O(|E|) per call: meant for small hand-built matrices.  Bulk
        construction goes through :func:`build_label_matrices`.
        """
        if not (0 <= src < self.n and 0 <= dst < self.n):
            raise IndexError(f"edge ({src}, {dst}) out of range [0, {self.n})")
        lo, hi = int(self._indptr[src]), int(self._indptr[src + 1])
        at = lo + int(np.searchsorted(self._indices[lo:hi], dst))
        if at < hi and self._indices[at] == dst:
            return
        self._indices = np.insert(self._indices, at, dst).astype(_INDEX)
        self._indptr = self._indptr.copy()
        self._indptr[src + 1:] += 1
        self.summary.add(src)
        self._rows = None

    # -- logical accessors ---------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self._indices.size)

    @property
    def nbytes(self) -> int:
        """Bytes of the CSR arrays (the resident adjacency)."""
        return int(self._indptr.nbytes + self._indices.nbytes)

    def neighbours(self, i: int) -> np.ndarray:
        """Column ids of row ``i``, ascending (a read-only view)."""
        out = self._indices[self._indptr[i]:self._indptr[i + 1]]
        out.flags.writeable = False
        return out

    def row(self, i: int) -> Bitset | None:
        """Row ``i`` as a bitset, or None when it is all-zero."""
        if not 0 <= i < self.n:
            return None
        columns = self._indices[self._indptr[i]:self._indptr[i + 1]]
        if columns.size == 0:
            return None
        return Bitset._wrap(self.n, scatter_words(self.n, columns))

    def successors(self, i: int) -> Iterator[int]:
        if not 0 <= i < self.n:
            return iter(())
        return iter(self.neighbours(i).tolist())

    def has_edge(self, src: int, dst: int) -> bool:
        if not 0 <= src < self.n:
            return False
        columns = self._indices[self._indptr[src]:self._indptr[src + 1]]
        at = int(np.searchsorted(columns, dst))
        return at < columns.size and int(columns[at]) == dst

    def density(self) -> float:
        """Fraction of set bits; the sparsity signal for heuristics."""
        if self.n == 0:
            return 0.0
        return self.n_edges / float(self.n * self.n)

    def row_nodes(self) -> np.ndarray:
        """Ids of the non-empty rows, ascending (the summary's bits)."""
        return np.flatnonzero(np.diff(self._indptr))

    def gather(self, nodes: np.ndarray) -> np.ndarray:
        """Concatenated neighbours of ``nodes`` (ids, in node order)."""
        if nodes.size == 1:
            i = int(nodes[0])
            return self._indices[self._indptr[i]:self._indptr[i + 1]]
        starts = self._indptr[nodes]
        lengths = self._indptr[nodes + 1] - starts
        if nodes.size == 0 or not lengths.any():
            return self._indices[:0]
        return self._indices[_flat_ranges(starts, lengths)]

    def gather_pairs(
        self, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(owners, neighbours)``: every edge leaving ``nodes``, its
        row id beside its column id (rows in node order)."""
        starts = self._indptr[nodes]
        lengths = self._indptr[nodes + 1] - starts
        if nodes.size == 0 or not lengths.any():
            return nodes[:0], self._indices[:0]
        return (
            np.repeat(nodes, lengths),
            self._indices[_flat_ranges(starts, lengths)],
        )

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """All edges as ``(rows, cols)`` arrays, sorted by row then col
        (``cols`` is a read-only view)."""
        rows = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self._indptr)
        )
        cols = self._indices.view()
        cols.flags.writeable = False
        return rows, cols

    def edges_between(
        self, rows: Bitset, cols: Bitset
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The edges ``(i, j)`` with ``i`` in ``rows`` and ``j`` in
        ``cols``: one gather from ``rows`` plus one bit test."""
        owners, neighbours = self.gather_pairs(rows.iter_ones())
        hits = probe_bits(cols.words, neighbours)
        return owners[hits], neighbours[hits]

    def to_dense_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(row node ids, (n_rows, n_words) uint64 block)`` of the
        non-empty rows — the dense snapshot payload layout."""
        nodes = self.row_nodes()
        n_words = (self.n + 63) // 64
        block = np.zeros((nodes.size, n_words), dtype=np.uint64)
        if nodes.size:
            lengths = np.diff(self._indptr)[nodes]
            position = np.repeat(np.arange(nodes.size), lengths)
            columns = self._indices.astype(np.int64)
            np.bitwise_or.at(
                block.reshape(-1),
                position * n_words + (columns >> 6),
                np.left_shift(np.uint64(1), (columns & 63).astype(np.uint64)),
            )
        return nodes, block

    def _reference_rows(self) -> Dict[int, Bitset]:
        """Per-row bitsets for the ``reference`` kernel, built on first
        use and cached."""
        if self._rows is None:
            self._rows = {
                int(i): self.row(int(i)) for i in self.row_nodes()
            }
        return self._rows

    # -- products ------------------------------------------------------

    def product_rowwise(self, vec: Bitset) -> Bitset:
        """``vec x_b A``: the union of the rows selected by ``vec``."""
        if vec.nbits != self.n:
            raise DimensionMismatchError(
                f"vector width {vec.nbits} != matrix size {self.n}"
            )
        if active_kernel() != REFERENCE:
            # Both vectorized kernels (packed and batched) share the
            # per-matrix product (see repro.bitvec.kernel).
            neighbours = self.gather(vec.iter_ones())
            if neighbours.size == 0:
                return Bitset.zeros(self.n)
            return Bitset._wrap(self.n, scatter_words(self.n, neighbours))
        rows = self._reference_rows()
        out = Bitset.zeros(self.n)
        # Only nodes with a row can contribute; pre-filter via summary.
        if not vec.intersects(self.summary):
            return out
        for i in (vec & self.summary).iter_ones():
            out |= rows[int(i)]
        return out


class LabelMatrixPair:
    """Forward and backward adjacency of a single label, kept in sync.

    The backward matrix is exactly the transpose of the forward one,
    which is what makes the column-wise product cheap: column ``j`` of
    ``F_a`` is row ``j`` of ``B_a`` and vice versa.
    """

    __slots__ = ("n", "forward", "backward")

    def __init__(
        self,
        n: int,
        forward: AdjacencyMatrix | None = None,
        backward: AdjacencyMatrix | None = None,
    ):
        self.n = n
        self.forward = forward if forward is not None else AdjacencyMatrix(n)
        self.backward = (
            backward if backward is not None else AdjacencyMatrix(n)
        )

    @classmethod
    def from_edges(
        cls, n: int, sources: np.ndarray, targets: np.ndarray
    ) -> "LabelMatrixPair":
        """Both directions of one label from unordered edge arrays."""
        return cls(
            n,
            AdjacencyMatrix.from_edges(n, sources, targets),
            AdjacencyMatrix.from_edges(n, targets, sources),
        )

    def add_edge(self, src: int, dst: int) -> None:
        self.forward.add(src, dst)
        self.backward.add(dst, src)

    @property
    def n_edges(self) -> int:
        return self.forward.n_edges

    @property
    def nbytes(self) -> int:
        """CSR bytes of both directions."""
        return self.forward.nbytes + self.backward.nbytes

    def product(
        self,
        vec: Bitset,
        direction: str,
        mask: Bitset | None = None,
        strategy: str = "auto",
    ) -> Bitset:
        """``vec x_b F_a`` (direction='forward') or ``vec x_b B_a``.

        When ``mask`` is given, the result is additionally intersected
        with it — that is exactly the solver's use (the product result
        is always ANDed into the target's candidate vector), and what
        makes the column-wise strategy worthwhile.

        ``strategy`` is one of ``"row"``, ``"column"``, ``"auto"``.
        Column-wise evaluation requires a mask.  The result is always
        a fresh bitset the caller may mutate.
        """
        if direction == "forward":
            primary, dual = self.forward, self.backward
        elif direction == "backward":
            primary, dual = self.backward, self.forward
        else:
            raise ValueError(f"unknown direction: {direction!r}")

        reference = active_kernel() == REFERENCE
        if strategy == "auto":
            if mask is None:
                strategy = "row"
            elif reference:
                strategy = "column" if mask.count() < vec.count() else "row"
            else:
                strategy = (
                    "column" if column_cheaper(
                        vec.count(), mask.count(),
                        primary.summary.count(), dual.summary.count(),
                    ) else "row"
                )
        elif strategy not in ("row", "column"):
            raise ValueError(f"unknown strategy: {strategy!r}")
        if strategy == "column" and mask is None:
            raise ValueError("column-wise product requires a mask")

        if not reference:
            if vec.nbits != self.n:
                raise DimensionMismatchError(
                    f"vector width {vec.nbits} != matrix size {self.n}"
                )
            summary = primary.summary
            if vec.count() >= summary.count() and summary.issubset(vec):
                # Saturated source: the product is the OR of every row,
                # which is the dual direction's Eq. (13) summary.
                if mask is None:
                    return dual.summary.copy()
                return dual.summary & mask
            if strategy == "column":
                # Column j of the primary matrix is row j of the dual:
                # keep the mask's candidates with a dual neighbour in vec.
                hits = dual.edges_between(mask, vec)[0]
                if hits.size == 0:
                    return Bitset.zeros(self.n)
                return Bitset._wrap(self.n, scatter_words(self.n, hits))
        elif strategy == "column":
            # result(j) = 1 iff dual.row(j) intersects vec, for j in mask.
            rows = dual._reference_rows()
            out = Bitset.zeros(self.n)
            candidates = mask & dual.summary
            for j in candidates.iter_ones():
                if rows[int(j)].intersects(vec):
                    out.add(int(j))
            return out

        out = primary.product_rowwise(vec)
        if mask is not None:
            out &= mask
        return out


def build_label_matrices(
    n: int, edges: Iterable[Tuple[int, Hashable, int]]
) -> Dict[Hashable, LabelMatrixPair]:
    """One :class:`LabelMatrixPair` per label from integer triples.

    All labels are built together: the ``(source, label, target)``
    triples become three id arrays, and one lexicographic sort per
    direction groups them by label and row, so each label's CSR arrays
    are contiguous slices of the sorted columns.  Repeated triples
    collapse.
    """
    triples = list(edges)
    if not triples:
        return {}
    label_ids: Dict[Hashable, int] = {}
    count = len(triples)
    sources = np.fromiter((t[0] for t in triples), np.int64, count)
    labels = np.fromiter(
        (label_ids.setdefault(t[1], len(label_ids)) for t in triples),
        np.int64, count,
    )
    targets = np.fromiter((t[2] for t in triples), np.int64, count)
    forward = _split_by_label(n, labels, sources, targets, len(label_ids))
    backward = _split_by_label(n, labels, targets, sources, len(label_ids))
    return {
        label: LabelMatrixPair(n, forward[i], backward[i])
        for label, i in label_ids.items()
    }


def _split_by_label(
    n: int,
    labels: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    n_labels: int,
) -> list:
    """Per label id, the CSR matrix of the ``(rows, cols)`` edges:
    one lexicographic sort, repeats dropped, then contiguous slices."""
    if rows.size and (
        min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n
    ):
        raise IndexError(f"edge endpoint out of range for {n} nodes")
    order = np.lexsort((cols, rows, labels))
    labels, rows, cols = labels[order], rows[order], cols[order]
    if labels.size > 1:
        keep = np.empty(labels.size, dtype=bool)
        keep[0] = True
        np.not_equal(labels[1:], labels[:-1], out=keep[1:])
        keep[1:] |= rows[1:] != rows[:-1]
        keep[1:] |= cols[1:] != cols[:-1]
        labels, rows, cols = labels[keep], rows[keep], cols[keep]
    bounds = np.searchsorted(labels, np.arange(n_labels + 1))
    return [
        AdjacencyMatrix.from_sorted(
            n, rows[bounds[i]:bounds[i + 1]], cols[bounds[i]:bounds[i + 1]]
        )
        for i in range(n_labels)
    ]
