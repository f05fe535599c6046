"""On-disk snapshot store (binary format + tiered residency).

The persistence layer of the reproduction: build a snapshot once
(``repro db build``), then open it in any number of processes without
re-parsing N-Triples text.  Hot labels are converted to CSR when the
snapshot opens; cold labels stay gap-encoded on disk until first touch
(see :mod:`repro.storage.tiered`).

Public surface:

* :func:`write_snapshot` / :class:`SnapshotWriter` — serialize a
  graph database (density heuristic decides each label's tier);
* :class:`SnapshotReader` — mmap a snapshot, decode dictionaries and
  the block table, serve matrix views;
* :class:`TieredGraphView` — the solver-facing adjacency view with
  lazy label promotion and residency counters;
* :class:`SnapshotInfo` / :class:`WriteReport` /
  :class:`ResidencyReport` — reporting structures.
"""

from repro.storage.checksum import crc32c
from repro.storage.format import MAGIC, VERSION, VERSION_V1
from repro.storage.reader import (
    LabelBlockInfo,
    SectionCheck,
    SnapshotInfo,
    SnapshotReader,
    VerificationReport,
)
from repro.storage.tiered import (
    ResidencyReport,
    RetryPolicy,
    TieredGraphView,
    TieredMatrices,
)
from repro.storage.writer import (
    DEFAULT_COLD_THRESHOLD,
    SnapshotWriter,
    WriteReport,
    write_snapshot,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "VERSION_V1",
    "crc32c",
    "SectionCheck",
    "VerificationReport",
    "SnapshotWriter",
    "SnapshotReader",
    "SnapshotInfo",
    "LabelBlockInfo",
    "WriteReport",
    "write_snapshot",
    "DEFAULT_COLD_THRESHOLD",
    "TieredGraphView",
    "TieredMatrices",
    "ResidencyReport",
    "RetryPolicy",
]
