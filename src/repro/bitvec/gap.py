"""Gap-length (run-length) encoding of bit-vectors.

The paper notes (Sect. 3.3) that its prototype relies on "bit-vector
storage techniques, such as gap-length encoding", so that "the worst
memory consumption might not occur with the label storing the most
bits".  This module provides that storage layer:

* :func:`encode` / :func:`decode` — a bitset as alternating run
  lengths of zeros and ones (starting with a zero-run), as a NumPy
  ``uint32`` array;
* :class:`GapEncodedMatrix` — an adjacency matrix whose rows are kept
  gap-encoded as three flat arrays (the on-disk payload), single rows
  materialized to :class:`Bitset` on access (with a small LRU of hot
  rows);
* :func:`memory_report` — estimated bytes of the dense-word vs.
  gap-encoded representations of a graph's label matrices, the
  quantity behind the paper's 35 GB / 23 GB discussion.

Gap encoding is the cold-storage format; the solver runs on the CSR
arrays of :class:`~repro.bitvec.matrix.AdjacencyMatrix`.  The import
path between the two is vectorized over all rows in both directions:
:meth:`GapEncodedMatrix.from_adjacency` (compress a built matrix, the
snapshot writer's gap payload) and :meth:`GapEncodedMatrix.to_adjacency`
(decode every row's one-runs straight into CSR column ids, the
promotion of a cold label).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.bitvec.bitset import Bitset
from repro.graph.graph import Graph

_RUN_DTYPE = np.uint32
_RUN_MAX = int(np.iinfo(_RUN_DTYPE).max)


def encode(bitset: Bitset) -> np.ndarray:
    """Run lengths of alternating zero/one runs, zero-run first.

    Example: 0011101 -> [2, 3, 1, 1] (two zeros, three ones, one
    zero, one one).  An empty vector encodes to an empty array.
    """
    n = bitset.nbits
    if n == 0:
        return np.empty(0, dtype=_RUN_DTYPE)
    bits = np.unpackbits(bitset.words.view(np.uint8), bitorder="little")[:n]
    # Boundaries where the bit value changes.
    changes = np.flatnonzero(np.diff(bits)) + 1
    starts = np.concatenate(([0], changes))
    ends = np.concatenate((changes, [n]))
    runs = (ends - starts).astype(np.int64)
    if bits[0] == 1:
        # Prepend an empty zero-run so decoding always starts at zero.
        runs = np.concatenate(([0], runs))
    if runs.size and runs.max() > _RUN_MAX:
        raise OverflowError("run length exceeds uint32")
    return runs.astype(_RUN_DTYPE)


def decode(runs: np.ndarray, nbits: int) -> Bitset:
    """Inverse of :func:`encode` (vectorized: no per-bit Python loop)."""
    out = Bitset.zeros(nbits)
    if runs.size == 0:
        return out
    ends = np.cumsum(runs.astype(np.int64))
    if int(ends[-1]) != nbits:
        raise ValueError(
            f"run lengths sum to {int(ends[-1])}, expected {nbits}"
        )
    starts = ends - runs
    # One-runs sit at odd positions (encoding starts with a zero-run).
    one_starts = starts[1::2]
    lengths = (ends[1::2] - one_starts).astype(np.int64)
    keep = lengths > 0
    one_starts, lengths = one_starts[keep], lengths[keep]
    if lengths.size == 0:
        return out
    # Expand [start, start+length) ranges into flat indices.
    offsets = np.repeat(lengths.cumsum() - lengths, lengths)
    ones = np.repeat(one_starts, lengths) + (
        np.arange(int(lengths.sum()), dtype=np.int64) - offsets
    )
    return Bitset.from_indices(nbits, ones)


def encoded_bytes(runs: np.ndarray) -> int:
    return int(runs.nbytes)


def dense_bytes(nbits: int) -> int:
    """Bytes of the dense uint64-word representation."""
    return ((nbits + 63) // 64) * 8


class GapEncodedMatrix:
    """An adjacency matrix stored with gap-encoded rows.

    Three flat arrays, exactly the on-disk gap payload: ``nodes`` (the
    ascending ids of the non-empty rows), ``offsets`` (``len(nodes) +
    1`` positions into ``runs``) and ``runs`` (every row's run lengths,
    concatenated).  Single rows decompress on access through a bounded
    LRU cache; :meth:`to_adjacency` decodes all rows at once, straight
    into CSR.
    """

    def __init__(
        self,
        n: int,
        nodes: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
        runs: np.ndarray | None = None,
        cache_rows: int = 64,
    ):
        self.n = n
        self.nodes = nodes if nodes is not None else np.empty(0, np.int64)
        self.offsets = (
            offsets if offsets is not None else np.zeros(1, np.uint64)
        )
        self.runs = runs if runs is not None else np.empty(0, _RUN_DTYPE)
        self._cache: "OrderedDict[int, Bitset]" = OrderedDict()
        self._cache_rows = cache_rows

    @classmethod
    def from_rows(
        cls, n: int, rows: Dict[int, Bitset], cache_rows: int = 64
    ) -> "GapEncodedMatrix":
        order = sorted(rows)
        encoded = [encode(rows[index]) for index in order]
        offsets = np.zeros(len(order) + 1, dtype=np.uint64)
        np.cumsum([r.size for r in encoded], out=offsets[1:])
        runs = (
            np.concatenate(encoded) if encoded
            else np.empty(0, dtype=_RUN_DTYPE)
        )
        return cls(n, np.array(order, dtype=np.int64), offsets, runs,
                   cache_rows)

    @classmethod
    def from_adjacency(
        cls, adjacency, cache_rows: int = 64
    ) -> "GapEncodedMatrix":
        """Compress a built :class:`~repro.bitvec.matrix.AdjacencyMatrix`.

        Vectorized over all rows: every maximal run of consecutive
        columns in a row becomes a (zero-run, one-run) pair, and a row
        not ending in a one-run gets a trailing zero-run — the runs
        :func:`encode` produces row by row.
        """
        n = adjacency.n
        rows, cols = adjacency.edges()
        cols = cols.astype(np.int64)
        if cols.size == 0:
            return cls(n, cache_rows=cache_rows)
        brk = np.ones(cols.size, dtype=bool)
        brk[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1] + 1)
        group_at = np.flatnonzero(brk)
        group_row = rows[group_at]
        group_col = cols[group_at]
        group_len = np.diff(np.append(group_at, cols.size))
        group_end = group_col + group_len
        first = np.ones(group_at.size, dtype=bool)
        first[1:] = group_row[1:] != group_row[:-1]
        previous_end = np.zeros(group_at.size, dtype=np.int64)
        previous_end[1:] = group_end[:-1]
        previous_end[first] = 0
        last = np.ones(group_at.size, dtype=bool)
        last[:-1] = first[1:]
        tails = n - group_end[last]
        has_tail = tails > 0
        row_first_group = np.flatnonzero(first)
        groups_per_row = np.diff(np.append(row_first_group, group_at.size))
        offsets = np.zeros(row_first_group.size + 1, dtype=np.uint64)
        np.cumsum(2 * groups_per_row + has_tail, out=offsets[1:])
        starts = offsets.astype(np.int64)
        position = (
            np.repeat(starts[:-1], groups_per_row)
            + 2 * (np.arange(group_at.size)
                   - np.repeat(row_first_group, groups_per_row))
        )
        runs = np.empty(int(starts[-1]), dtype=_RUN_DTYPE)
        runs[position] = group_col - previous_end
        runs[position + 1] = group_len
        runs[starts[1:][has_tail] - 1] = tails[has_tail]
        return cls(n, group_row[first], offsets, runs, cache_rows)

    def to_adjacency(self):
        """Decompress every row at once into a CSR
        :class:`~repro.bitvec.matrix.AdjacencyMatrix`.

        The import path from cold gap-encoded storage to the hot
        kernel: run ends come from one cumulative sum over all runs,
        the one-runs (odd positions within a row) expand into column
        ids — no per-row loop, no dense row.  Raises ``ValueError``
        when a row's runs do not sum to ``n``, as :func:`decode` does.
        """
        from repro.bitvec.matrix import AdjacencyMatrix

        n = self.n
        offsets = self.offsets.astype(np.int64)
        counts = np.diff(offsets)
        if self.runs.size == 0:
            return AdjacencyMatrix(n)
        runs = self.runs.astype(np.int64)
        row_of_run = np.repeat(np.arange(self.nodes.size), counts)
        ends = np.cumsum(runs)
        base = np.concatenate(([0], ends))[offsets[:-1]]
        ends -= base[row_of_run]
        totals = ends[offsets[1:][counts > 0] - 1]
        if totals.size and (totals != n).any():
            bad = int(totals[totals != n][0])
            raise ValueError(f"run lengths sum to {bad}, expected {n}")
        ones = (
            ((np.arange(runs.size) - offsets[:-1][row_of_run]) & 1) == 1
        ) & (runs > 0)
        lengths = runs[ones]
        if lengths.size == 0:
            return AdjacencyMatrix(n)
        owners = np.repeat(self.nodes[row_of_run[ones]], lengths)
        starts = ends[ones] - lengths
        cols = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(
            starts - (np.cumsum(lengths) - lengths), lengths
        )
        return AdjacencyMatrix.from_edges(n, owners, cols)

    def _position(self, index: int) -> int:
        at = int(np.searchsorted(self.nodes, index))
        if at < self.nodes.size and int(self.nodes[at]) == index:
            return at
        return -1

    def __contains__(self, index: int) -> bool:
        return self._position(index) >= 0

    def row(self, index: int) -> Bitset | None:
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        at = self._position(index)
        if at < 0:
            return None
        decoded = decode(
            self.runs[int(self.offsets[at]):int(self.offsets[at + 1])],
            self.n,
        )
        self._cache[index] = decoded
        if len(self._cache) > self._cache_rows:
            self._cache.popitem(last=False)
        return decoded

    def stored_bytes(self) -> int:
        return int(self.runs.nbytes)

    def dense_equivalent_bytes(self) -> int:
        return int(self.nodes.size) * dense_bytes(self.n)


@dataclass
class LabelMemory:
    """Memory footprint of one label's adjacency matrices."""

    label: str
    n_edges: int
    dense: int
    encoded: int

    @property
    def ratio(self) -> float:
        if self.dense == 0:
            return 1.0
        return self.encoded / self.dense


def memory_report(graph: Graph) -> Dict[str, LabelMemory]:
    """Per-label dense vs. gap-encoded byte estimates (F and B)."""
    report: Dict[str, LabelMemory] = {}
    for label, pair in graph.matrices().items():
        dense = 0
        encoded_total = 0
        for side in (pair.forward, pair.backward):
            encoded = GapEncodedMatrix.from_adjacency(side)
            dense += encoded.dense_equivalent_bytes()
            encoded_total += encoded.stored_bytes()
        report[str(label)] = LabelMemory(
            label=str(label),
            n_edges=pair.n_edges,
            dense=dense,
            encoded=encoded_total,
        )
    return report


def total_memory(report: Dict[str, LabelMemory]) -> Tuple[int, int]:
    """(dense_bytes, encoded_bytes) summed over all labels."""
    dense = sum(m.dense for m in report.values())
    encoded = sum(m.encoded for m in report.values())
    return dense, encoded
