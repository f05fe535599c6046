"""Fixed-width bitsets backed by NumPy ``uint64`` words.

The SOI solver of the paper (Sect. 3.2) manipulates candidate sets
``chi_S(v)`` and adjacency-matrix rows as bit-vectors.  This module
provides that substrate: a mutable fixed-width bitset with the bulk
operations the solver needs (AND/OR/AND-NOT, subset and intersection
tests, popcount, set-bit iteration), all vectorized over 64-bit words.

Bits beyond ``nbits`` (the *tail*) are kept at zero as a class
invariant, which makes equality, popcount and subset tests plain word
comparisons.

Popcounts are cached: :meth:`Bitset.count` computes the word-wise
``bitwise_count`` sum once and remembers it until the next mutating
operation invalidates it.  The SOI solver reads candidate-row counts
on every evaluation, so rows that did not change between evaluations
answer in O(1) instead of rescanning their words (the "popcount tax"
of the seed implementation).

Mutating ``bitset.words`` directly (rather than through the methods
here) bypasses the cache; callers that do so must treat the bitset as
read-only or construct a fresh ``Bitset`` around the words.

Two word-level helpers serve the CSR products of
:mod:`repro.bitvec.matrix`: :func:`scatter_words` turns gathered
column ids into a bit-vector and :func:`probe_bits` tests a batch of
ids against one.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import DimensionMismatchError

_WORD_BITS = 64

# Bit-position lookup for iter_ones(): unpackbits works on uint8 views.
_UINT8_BITORDER = "little"


def _word_count(nbits: int) -> int:
    return (nbits + _WORD_BITS - 1) // _WORD_BITS


def _tail_mask(nbits: int) -> int:
    """Mask selecting the valid bits of the last word."""
    rem = nbits % _WORD_BITS
    if rem == 0:
        return 0xFFFFFFFFFFFFFFFF
    return (1 << rem) - 1


#: Scatter/probe crossovers, measured with NumPy 2.4 on a 2-core x86
#: container: ``np.bitwise_or.at`` costs ~5 us plus ~12 ns per id, the
#: byte-mask path ~2.5 us plus ~65 ns per 1000 bits of width, and
#: unpacking the whole vector to bytes beats per-id shifts up to about
#: 64k bits plus 16 bits per probed id.
_SCATTER_BASE_BITS = 32768
_SCATTER_BITS_PER_ID = 128
_UNPACK_BASE_BITS = 65536
_UNPACK_BITS_PER_ID = 16


def scatter_words(nbits: int, idx: np.ndarray) -> np.ndarray:
    """The ``uint64`` words of the set ``{idx}`` (duplicates allowed).

    Kernel-internal: ``idx`` must already lie in ``[0, nbits)``.
    Few ids over a wide domain scatter per element (O(len(idx)));
    everything else goes through a byte mask and ``packbits``, which
    costs O(nbits) but far less per id.
    """
    if idx.size * _SCATTER_BITS_PER_ID + _SCATTER_BASE_BITS < nbits:
        words = np.zeros(_word_count(nbits), dtype=np.uint64)
        np.bitwise_or.at(
            words,
            idx >> 6,
            np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64)),
        )
        return words
    mask = np.zeros(_word_count(nbits) * _WORD_BITS, dtype=np.uint8)
    mask[idx] = 1
    return np.packbits(mask, bitorder=_UINT8_BITORDER).view(np.uint64)


def probe_bits(words: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Boolean array: is bit ``idx[k]`` set in ``words``?  (Vectorized
    membership; ``idx`` must lie inside the words.)"""
    if words.size * _WORD_BITS < (
        idx.size * _UNPACK_BITS_PER_ID + _UNPACK_BASE_BITS
    ):
        return np.unpackbits(
            words.view(np.uint8), bitorder=_UINT8_BITORDER
        ).view(np.bool_)[idx]
    octets = words.view(np.uint8)[idx >> 3]
    return (
        np.right_shift(octets, (idx & 7).astype(np.uint8)) & np.uint8(1)
    ).view(np.bool_)


class Bitset:
    """A mutable set of integers in ``range(nbits)`` stored bitwise.

    Instances are intentionally *not* hashable: the solver mutates
    candidate vectors in place.  Use :meth:`to_frozenset` when a
    hashable snapshot is needed.
    """

    __slots__ = ("nbits", "words", "_count", "_ones")

    def __init__(self, nbits: int, words: np.ndarray | None = None):
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        self.nbits = nbits
        self._ones = None
        if words is None:
            self.words = np.zeros(_word_count(nbits), dtype=np.uint64)
            self._count = 0
        else:
            if words.dtype != np.uint64 or words.shape != (_word_count(nbits),):
                raise DimensionMismatchError(
                    f"expected {_word_count(nbits)} uint64 words for "
                    f"{nbits} bits, got {words.shape} of {words.dtype}"
                )
            self.words = words
            self._count = -1

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "Bitset":
        """The empty set over a domain of ``nbits`` elements."""
        return cls(nbits)

    @classmethod
    def ones(cls, nbits: int) -> "Bitset":
        """The full set {0, .., nbits-1}."""
        out = cls(nbits)
        out.words.fill(0xFFFFFFFFFFFFFFFF)
        if out.words.size:
            out.words[-1] = np.uint64(_tail_mask(nbits))
        out._count = nbits
        out._ones = None
        return out

    @classmethod
    def _wrap(cls, nbits: int, words: np.ndarray) -> "Bitset":
        """Adopt ``words`` without validation (kernel-internal)."""
        out = object.__new__(cls)
        out.nbits = nbits
        out.words = words
        out._count = -1
        out._ones = None
        return out

    @classmethod
    def from_indices(cls, nbits: int, indices: Iterable[int]) -> "Bitset":
        """Build a bitset from an iterable of member indices."""
        if isinstance(indices, np.ndarray):
            idx = indices.astype(np.int64, copy=False)
        else:
            idx = np.fromiter(indices, dtype=np.int64)
        if idx.size == 0:
            return cls(nbits)
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if idx.min() < 0 or idx.max() >= nbits:
            raise IndexError(f"index out of range for {nbits}-bit set")
        return cls._wrap(nbits, scatter_words(nbits, idx))

    @classmethod
    def singleton(cls, nbits: int, index: int) -> "Bitset":
        """The one-element set {index}."""
        out = cls(nbits)
        out.add(index)
        return out

    def copy(self) -> "Bitset":
        out = Bitset(self.nbits, self.words.copy())
        out._count = self._count
        out._ones = self._ones
        return out

    # -- element access -----------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.nbits:
            raise IndexError(f"bit {index} out of range [0, {self.nbits})")

    def add(self, index: int) -> None:
        self._check_index(index)
        self.words[index // _WORD_BITS] |= np.uint64(1 << (index % _WORD_BITS))
        self._count = -1
        self._ones = None

    def discard(self, index: int) -> None:
        self._check_index(index)
        self.words[index // _WORD_BITS] &= np.uint64(
            ~(1 << (index % _WORD_BITS)) & 0xFFFFFFFFFFFFFFFF
        )
        self._count = -1
        self._ones = None

    def __contains__(self, index: int) -> bool:
        if not 0 <= index < self.nbits:
            return False
        word = int(self.words[index // _WORD_BITS])
        return bool((word >> (index % _WORD_BITS)) & 1)

    # -- bulk queries ---------------------------------------------------

    def count(self) -> int:
        """Number of set bits (popcount); cached until the next mutation."""
        if self._count < 0:
            self._count = int(np.bitwise_count(self.words).sum())
        return self._count

    def __len__(self) -> int:
        return self.count()

    def any(self) -> bool:
        return bool(self.words.any())

    def is_empty(self) -> bool:
        return not self.words.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitset):
            return NotImplemented
        return self.nbits == other.nbits and bool(
            np.array_equal(self.words, other.words)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable

    def _check_width(self, other: "Bitset") -> None:
        if self.nbits != other.nbits:
            raise DimensionMismatchError(
                f"bitset width mismatch: {self.nbits} vs {other.nbits}"
            )

    def issubset(self, other: "Bitset") -> bool:
        """True iff ``self <= other`` component-wise (paper's ``<=``)."""
        self._check_width(other)
        return not np.any(self.words & ~other.words)

    def __le__(self, other: "Bitset") -> bool:
        return self.issubset(other)

    def intersects(self, other: "Bitset") -> bool:
        """True iff the two sets share at least one element."""
        self._check_width(other)
        return bool(np.any(self.words & other.words))

    def isdisjoint(self, other: "Bitset") -> bool:
        return not self.intersects(other)

    # -- bulk operations -----------------------------------------------

    def __and__(self, other: "Bitset") -> "Bitset":
        self._check_width(other)
        return Bitset._wrap(self.nbits, self.words & other.words)

    def __or__(self, other: "Bitset") -> "Bitset":
        self._check_width(other)
        return Bitset._wrap(self.nbits, self.words | other.words)

    def __xor__(self, other: "Bitset") -> "Bitset":
        self._check_width(other)
        return Bitset._wrap(self.nbits, self.words ^ other.words)

    def __sub__(self, other: "Bitset") -> "Bitset":
        self._check_width(other)
        return Bitset._wrap(self.nbits, self.words & ~other.words)

    def __iand__(self, other: "Bitset") -> "Bitset":
        self._check_width(other)
        self.words &= other.words
        self._count = -1
        self._ones = None
        return self

    def __ior__(self, other: "Bitset") -> "Bitset":
        self._check_width(other)
        self.words |= other.words
        self._count = -1
        self._ones = None
        return self

    def __ixor__(self, other: "Bitset") -> "Bitset":
        self._check_width(other)
        self.words ^= other.words
        self._count = -1
        self._ones = None
        return self

    def __isub__(self, other: "Bitset") -> "Bitset":
        self._check_width(other)
        self.words &= ~other.words
        self._count = -1
        self._ones = None
        return self

    def __invert__(self) -> "Bitset":
        out = Bitset(self.nbits, ~self.words)
        if out.words.size:
            out.words[-1] &= np.uint64(_tail_mask(self.nbits))
        return out

    def intersection_update(self, other: "Bitset") -> bool:
        """In-place AND; returns True iff ``self`` shrank."""
        return self.intersection_update_delta(other) > 0

    def intersection_update_delta(self, other: "Bitset") -> int:
        """In-place AND; returns the number of bits removed.

        Single-pass: the popcount before comes from the cache (or one
        scan if stale) and the popcount after is computed once and
        cached, so callers never pay a second scan to learn the delta.
        """
        self._check_width(other)
        before = self.count()
        if before == 0:
            return 0
        self.words &= other.words
        after = int(np.bitwise_count(self.words).sum())
        self._count = after
        self._ones = None
        return before - after

    def clear(self) -> None:
        self.words.fill(0)
        self._count = 0
        self._ones = None

    def fill(self) -> None:
        self.words.fill(0xFFFFFFFFFFFFFFFF)
        if self.words.size:
            self.words[-1] = np.uint64(_tail_mask(self.nbits))
        self._count = self.nbits
        self._ones = None

    # -- iteration / conversion ------------------------------------------

    def iter_ones(self) -> np.ndarray:
        """Indices of set bits, ascending, as a read-only int64 array.

        Sparse-aware: only non-zero words are unpacked, so near-empty
        vectors over huge domains pay O(n/64) for the word scan plus
        O(64 * nonzero_words) — not O(n) — per call.  The result is
        cached until the next mutation (the kernel multiplies the same
        source vector against many matrices between updates) and is
        therefore marked non-writeable; copy before mutating.
        """
        if self._ones is not None:
            return self._ones
        nonzero = np.flatnonzero(self.words)
        if nonzero.size == 0:
            ones = np.empty(0, dtype=np.int64)
        else:
            bits = np.unpackbits(
                self.words[nonzero].view(np.uint8), bitorder=_UINT8_BITORDER
            ).reshape(nonzero.size, _WORD_BITS)
            word_idx, bit_idx = np.nonzero(bits)
            ones = nonzero[word_idx] * _WORD_BITS + bit_idx
        ones.setflags(write=False)
        self._ones = ones
        self._count = ones.size
        return ones

    def __iter__(self) -> Iterator[int]:
        return iter(self.iter_ones().tolist())

    def to_set(self) -> set[int]:
        return set(self.iter_ones().tolist())

    def to_frozenset(self) -> frozenset[int]:
        return frozenset(self.iter_ones().tolist())

    def first(self) -> int | None:
        """Smallest member, or None when empty."""
        nz = np.flatnonzero(self.words)
        if nz.size == 0:
            return None
        word_idx = int(nz[0])
        word = int(self.words[word_idx])
        return word_idx * _WORD_BITS + (word & -word).bit_length() - 1

    def __repr__(self) -> str:
        n = self.count()
        if n <= 12:
            members = ", ".join(str(i) for i in self)
            return f"Bitset({self.nbits}, {{{members}}})"
        return f"Bitset({self.nbits}, |.|={n})"
