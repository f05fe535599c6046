"""Small statistics and process helpers shared by the benchmark."""

from __future__ import annotations

import math
import resource
import time
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the value at rank ceil(q * n))."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geomean of no values")
    return math.exp(sum(logs) / len(logs))


def peak_rss_mb() -> float:
    """Lifetime peak resident set of this process (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Resident set right now, from /proc/self/statm."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 2.0**20


#: Median calibration time on the reference machine (2-core container,
#: Python 3.11, NumPy 2.4).  Normalized times are "as if measured on a
#: machine that runs the calibration loop in this long".
CALIBRATION_REFERENCE_MS = 0.8

_CAL_WORDS = numpy.arange(1 << 14, dtype=numpy.uint64)


def calibration_ms() -> float:
    """Time a fixed loop that does not touch the program under test.

    Dict updates, string allocation and sorting, and a NumPy bitwise
    reduction: the mix of interpreter, allocator and memory work the
    program's own operations do.  On a shared machine its time tracks
    how fast the machine runs this process, so the run's median of it
    scales every reported time (drift normalization).
    """
    started = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(3000):
        table[i & 511] = table.get(i & 511, 0) + i
    sorted(str(i * 7919) for i in range(600))
    int(numpy.bitwise_xor(_CAL_WORDS, _CAL_WORDS >> numpy.uint64(3)).sum())
    return (time.perf_counter() - started) * 1000.0
