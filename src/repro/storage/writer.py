"""Snapshot writer: serialize a graph database to the binary format.

The writer reads the per-label CSR adjacency matrices (they are what
the solver runs on anyway), gap-encodes every row straight from the
CSR ranges, and then decides **per label** which encoding reaches the
disk:

* labels whose gap-encoded bytes undercut their dense row-block bytes
  (``encoded < cold_threshold * dense``) are stored ``gap`` — they
  become the *cold tier*, staying compressed in the open snapshot
  until a query first touches them;
* all other labels are stored ``dense`` — the *hot tier*, converted
  to CSR when the snapshot is opened.  The dense row block is built
  only for labels that take this encoding.

Output is deterministic: node ids follow the database's insertion
order, predicate ids are the sorted label order, rows are sorted by
node id, so the same database always produces byte-identical files.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.bitvec.gap import GapEncodedMatrix
from repro.errors import SnapshotError
from repro.storage.checksum import crc32c
from repro.storage.format import (
    BlockEntry,
    DIRECTION_BACKWARD,
    DIRECTION_FORWARD,
    ENCODING_DENSE,
    ENCODING_GAP,
    HEADER,
    HEADER_V2,
    HEADER_V3,
    Header,
    MAX_SHARDS,
    SHARD_HEADER,
    SUPPORTED_VERSIONS,
    VERSION,
    VERSION_V1,
    VERSION_V3,
    encode_term_section,
    pack_block_table,
    pack_checksum_table,
    pack_shard_header,
    pad8,
    shard_of_label,
    shard_path,
)

#: Default tier heuristic: a label goes cold when its gap-encoded
#: payload is strictly smaller than its dense payload.
DEFAULT_COLD_THRESHOLD = 1.0


@dataclass
class WriteReport:
    """What one :func:`write_snapshot` call produced."""

    path: Path
    file_bytes: int
    n_nodes: int
    n_predicates: int
    n_triples: int
    elapsed: float
    #: label -> "hot" (dense) or "cold" (gap)
    tiers: Dict[str, str] = field(default_factory=dict)
    #: label -> on-disk payload bytes of the chosen encoding
    payload_bytes: Dict[str, int] = field(default_factory=dict)
    #: label -> payload bytes had the label been stored dense
    dense_bytes: Dict[str, int] = field(default_factory=dict)
    #: shard file count (0 = single-file layout)
    n_shards: int = 0
    #: shard index -> on-disk bytes of that shard file
    shard_bytes: Dict[int, int] = field(default_factory=dict)

    @property
    def n_hot(self) -> int:
        return sum(1 for t in self.tiers.values() if t == "hot")

    @property
    def n_cold(self) -> int:
        return sum(1 for t in self.tiers.values() if t == "cold")


def _dense_bytes(matrix) -> int:
    """Size of :func:`_dense_payload` without building it."""
    n_rows = matrix.summary.count()
    return 8 * n_rows * (1 + (matrix.n + 63) // 64)


def _dense_payload(matrix) -> bytes:
    """Row node ids + the dense ``(n_rows, n_words)`` row block."""
    nodes, block = matrix.to_dense_rows()
    if nodes.size == 0:
        return b""
    return nodes.astype(np.int64).tobytes() + block.tobytes()


def _gap_payload(matrix) -> bytes:
    """Row node ids + run offsets + concatenated gap runs."""
    encoded = GapEncodedMatrix.from_adjacency(matrix)
    body = (
        encoded.nodes.astype(np.int64).tobytes()
        + encoded.offsets.astype(np.uint64).tobytes()
        + encoded.runs.astype(np.uint32).tobytes()
    )
    return body + b"\x00" * pad8(len(body))


class SnapshotWriter:
    """Serialize a :class:`~repro.graph.database.GraphDatabase` (or any
    graph exposing ``matrices()``) into one snapshot file."""

    def __init__(
        self,
        path: Union[str, Path],
        cold_threshold: float = DEFAULT_COLD_THRESHOLD,
        version: int = VERSION,
        shards: int = 0,
    ):
        if cold_threshold < 0:
            raise SnapshotError(
                f"cold_threshold must be non-negative, got {cold_threshold}"
            )
        if version not in SUPPORTED_VERSIONS:
            raise SnapshotError(
                f"cannot write snapshot version {version} "
                f"(supported: {SUPPORTED_VERSIONS})"
            )
        if shards < 0 or shards > MAX_SHARDS:
            raise SnapshotError(
                f"shards must be in [0, {MAX_SHARDS}], got {shards}"
            )
        if shards > 0:
            if version == VERSION_V1:
                raise SnapshotError(
                    "v1 snapshots cannot be sharded (sharding needs v3)"
                )
            # Sharding is what v3 exists for: requesting shards selects
            # it regardless of the (v2) default version argument.
            version = VERSION_V3
        self.path = Path(path)
        self.cold_threshold = cold_threshold
        self.version = version
        self.shards = shards

    def write(self, db) -> WriteReport:
        start = time.perf_counter()
        n = db.n_nodes
        names = [db.node_name(i) for i in range(n)]
        labels = sorted(db.labels)
        matrices = db.matrices()

        # Per label: build both candidate payloads, keep the smaller
        # side per the threshold.  40-byte block entries are per
        # direction; the tier decision is per label so a query never
        # finds one direction hot and its transpose cold.
        entries: List[BlockEntry] = []
        payloads: List[bytes] = []
        tiers: Dict[str, str] = {}
        payload_bytes: Dict[str, int] = {}
        dense_sizes: Dict[str, int] = {}
        for label_id, label in enumerate(labels):
            pair = matrices[label]
            sides = (
                (DIRECTION_FORWARD, pair.forward),
                (DIRECTION_BACKWARD, pair.backward),
            )
            gap = {d: _gap_payload(m) for d, m in sides}
            dense_total = sum(_dense_bytes(m) for _, m in sides)
            gap_total = sum(len(p) for p in gap.values())
            cold = gap_total < self.cold_threshold * dense_total
            tiers[label] = "cold" if cold else "hot"
            chosen = gap if cold else {
                d: _dense_payload(m) for d, m in sides
            }
            payload_bytes[label] = sum(len(p) for p in chosen.values())
            dense_sizes[label] = dense_total
            shard = (
                shard_of_label(label, self.shards) if self.shards else 0
            )
            for direction, matrix in sides:
                entries.append(
                    BlockEntry(
                        label_id=label_id,
                        direction=direction,
                        encoding=ENCODING_GAP if cold else ENCODING_DENSE,
                        n_rows=matrix.summary.count(),
                        n_edges=matrix.n_edges,
                        payload_off=0,  # patched below
                        payload_len=len(chosen[direction]),
                        shard=shard,
                    )
                )
                payloads.append(chosen[direction])

        nodes_section = encode_term_section(names)
        preds_section = encode_term_section(labels)
        if self.version == VERSION_V1:
            header_size = HEADER.size
        elif self.version == VERSION_V3:
            header_size = HEADER_V3.size
        else:
            header_size = HEADER_V2.size
        nodes_off = header_size
        preds_off = nodes_off + len(nodes_section)
        block_table_off = preds_off + len(preds_section)
        table_len = len(pack_block_table(entries))

        # Payloads are 8-aligned by construction: dense payloads are
        # whole uint64/int64 arrays and gap payloads are padded
        # explicitly.
        for payload in payloads:
            if len(payload) % 8:
                raise SnapshotError("internal: unaligned payload")

        # Patch payload offsets.  Single-file: absolute into the
        # manifest, right after the block table.  Sharded: per shard
        # file, right after its 32-byte shard header; the per-shard
        # cursor walks the shard's payloads in block-table order, so
        # block -> position-in-shard is recoverable by counting
        # earlier same-shard entries.
        placed: List[BlockEntry] = []
        shard_payloads: List[List[bytes]] = [[] for _ in range(self.shards)]
        if self.shards:
            cursors = [SHARD_HEADER.size] * self.shards
            for entry, payload in zip(entries, payloads):
                placed.append(replace(entry, payload_off=cursors[entry.shard]))
                cursors[entry.shard] += len(payload)
                shard_payloads[entry.shard].append(payload)
        else:
            cursor = block_table_off + table_len
            for entry, payload in zip(entries, payloads):
                placed.append(replace(entry, payload_off=cursor))
                cursor += len(payload)

        if self.version == VERSION_V1:
            checksum_table_off = 0
        elif self.shards:
            # Sharded manifest: the table covers only the four
            # metadata sections and lands right after the block table.
            checksum_table_off = block_table_off + table_len
        else:
            # Single-file: the table lands right after the last payload.
            checksum_table_off = cursor

        header = Header(
            n_nodes=n,
            n_predicates=len(labels),
            n_triples=db.n_edges,
            n_blocks=len(placed),
            nodes_off=nodes_off,
            nodes_len=len(nodes_section),
            preds_off=preds_off,
            preds_len=len(preds_section),
            block_table_off=block_table_off,
            version=self.version,
            checksum_table_off=checksum_table_off,
            n_shards=self.shards,
        )
        header_bytes = header.pack()
        table_bytes = pack_block_table(placed)
        sections = [header_bytes, nodes_section, preds_section, table_bytes]
        if not self.shards:
            sections += payloads
        blob = b"".join(sections)
        if self.version != VERSION_V1:
            # Per-section CRC32C: header, nodes, predicates, block
            # table, then (single-file only) each payload in
            # block-table order — every byte of the file is covered by
            # exactly one CRC (the trailing table checksums itself).
            blob += pack_checksum_table([crc32c(s) for s in sections])

        # Each shard file carries its own trailing checksum table —
        # shard header, then its payloads in shard order — so one
        # shard verifies without touching its siblings.
        shard_blobs: List[bytes] = []
        shard_sizes: Dict[int, int] = {}
        for index in range(self.shards):
            body = shard_payloads[index]
            head = pack_shard_header(
                index, len(body),
                SHARD_HEADER.size + sum(len(p) for p in body),
            )
            shard_sections = [head] + body
            shard_blob = b"".join(shard_sections)
            shard_blob += pack_checksum_table(
                [crc32c(s) for s in shard_sections]
            )
            shard_blobs.append(shard_blob)
            shard_sizes[index] = len(shard_blob)

        # Atomic publish: snapshot paths double as build-once cache
        # keys (path.exists() gates regeneration), so a crash mid-write
        # must never leave a truncated file at the final path.  Shards
        # are published before the manifest: a crash part-way leaves at
        # worst orphan/mismatched shard files that the (old or absent)
        # manifest's checksums refuse — never a valid manifest pointing
        # at missing shards.
        def publish(target: Path, data: bytes) -> None:
            fd, staging = tempfile.mkstemp(
                dir=target.parent, prefix=target.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(staging, target)
            except BaseException:
                try:
                    os.unlink(staging)
                except OSError:
                    pass
                raise

        for index, shard_blob in enumerate(shard_blobs):
            publish(shard_path(self.path, index), shard_blob)
        publish(self.path, blob)
        return WriteReport(
            path=self.path,
            file_bytes=len(blob) + sum(shard_sizes.values()),
            n_nodes=n,
            n_predicates=len(labels),
            n_triples=db.n_edges,
            elapsed=time.perf_counter() - start,
            tiers=tiers,
            payload_bytes=payload_bytes,
            dense_bytes=dense_sizes,
            n_shards=self.shards,
            shard_bytes=shard_sizes,
        )


def write_snapshot(
    db,
    path: Union[str, Path],
    cold_threshold: float = DEFAULT_COLD_THRESHOLD,
    version: int = VERSION,
    shards: int = 0,
) -> WriteReport:
    """Convenience wrapper: ``SnapshotWriter(path, ...).write(db)``.

    ``version=1`` writes the legacy unchecksummed layout (kept so the
    v1-compat path stays testable); the default is the current v2.
    ``shards=N`` (N >= 1) writes the v3 sharded layout: the block
    payloads split across ``<path>.shard0`` .. ``<path>.shardN-1``
    keyed by label hash, one checksum table per shard.
    """
    return SnapshotWriter(
        path, cold_threshold=cold_threshold, version=version, shards=shards
    ).write(db)
