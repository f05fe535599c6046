"""End-to-end runs (tracing off): one client in a closed loop.

The caller is embedded: it issues an operation through the public
``repro.Database`` API, waits for the reply (consuming every row), and
only then issues the next one.  Answers are checked against the cached
reference answers outside the timed regions.
"""

from __future__ import annotations

import gc
import itertools
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from inputs import Inputs, triples_digest
from oracle import answer_of, canonical_lines, state_key
from stats import (
    CALIBRATION_REFERENCE_MS,
    calibration_ms,
    median,
    peak_rss_mb,
    quantile,
)

Combo = Tuple[str, str, str]  # (engine, query, mode)


class Checker:
    """Compares answers with the expected ones and counts failures."""

    def __init__(self, expected: Dict[str, Dict[str, dict]]):
        self.expected = expected
        self.attempted = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check_rows(
        self, state: str, query: str, ran_mode: str, rows
    ) -> bool:
        """Theorem 2: a full answer, and a pruned answer to a
        well-designed query, equals the reference answer; a pruned
        answer to any other query contains it."""
        expected = self.expected[state][query]
        if ran_mode == "full" or expected["well_designed"]:
            ok = answer_of(rows) == (expected["rows"], expected["sha256"])
        else:
            ok = set(canonical_lines(rows)) >= set(expected["lines"])
        if not ok:
            self.fail(
                f"wrong answer: {query} ran {ran_mode} in state {state} "
                f"({len(rows)} rows, expected {expected['rows']})"
            )
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Record:
    """Everything one end-to-end run measured."""

    setups: List[float] = field(default_factory=list)
    reads: Dict[Combo, List[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    writes: List[float] = field(default_factory=list)
    compacts: List[float] = field(default_factory=list)
    busy_s: float = 0.0
    loop_s: float = 0.0
    calibrations: List[float] = field(default_factory=list)
    calibration_s: float = 0.0
    snapshot_bytes: List[int] = field(default_factory=list)

    def calibrate(self) -> None:
        sample = calibration_ms()
        self.calibrations.append(sample)
        self.calibration_s += sample / 1000.0

    def elapsed_since(self, started: float, calibration_s: float) -> float:
        """Wall time since ``started``, less the calibration loops run
        since ``calibration_s`` was read."""
        spent = self.calibration_s - calibration_s
        return time.perf_counter() - started - spent

    @property
    def slowdown(self) -> float:
        """How much slower than the reference machine this run went."""
        return median(self.calibrations) / CALIBRATION_REFERENCE_MS

    @property
    def n_reads(self) -> int:
        return sum(len(v) for v in self.reads.values())

    def mode_mean(self, mode: str) -> float:
        samples = [
            v for k, vs in self.reads.items() if k[2] == mode for v in vs
        ]
        return sum(samples) / len(samples)

    def raw_metrics(self) -> Dict[str, Tuple[float, str]]:
        """The metrics as timed on this machine.

        Latency percentiles pool every warm read of the mix.  The
        per-mode figures are means: within one mode the mix holds
        queries whose latencies differ by two orders of magnitude, so
        a per-mode median jumps between them from run to run.
        """
        every = [v for samples in self.reads.values() for v in samples]
        return {
            "setup_s": (median(self.setups), "s"),
            "query_p50_ms": (quantile(every, 0.50), "ms"),
            "query_p95_ms": (quantile(every, 0.95), "ms"),
            "full_mean_ms": (self.mode_mean("full"), "ms"),
            "pruned_mean_ms": (self.mode_mean("pruned"), "ms"),
            "auto_mean_ms": (self.mode_mean("auto"), "ms"),
            "throughput_qps": (len(every) / self.busy_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """The metrics with every time divided by :attr:`slowdown`."""
        out = {}
        for name, (value, unit) in self.raw_metrics().items():
            if unit in ("s", "ms"):
                value /= self.slowdown
            elif unit == "1/s":
                value *= self.slowdown
            out[name] = (value, unit)
        return out

    def extras(self) -> Dict[str, object]:
        """Figures printed beside the metrics but not gated."""
        out: Dict[str, object] = {
            "warm_reads": self.n_reads,
            "setups": len(self.setups),
            "busy_s": self.busy_s,
            "loop_s": self.loop_s,
            "calibration_ms": median(self.calibrations),
            "slowdown": self.slowdown,
            "raw": {k: v for k, (v, _) in self.raw_metrics().items()},
        }
        if self.writes:
            out["write_p50_ms"] = median(self.writes)
            out["write_p95_ms"] = quantile(self.writes, 0.95)
            out["writes"] = len(self.writes)
        if self.compacts:
            out["compact_s"] = median(self.compacts)
            out["compacts"] = len(self.compacts)
        return out


def profile_for(inputs: Inputs, engine: str):
    from repro import ExecutionProfile

    return ExecutionProfile(
        engine=engine, residency_budget=inputs.residency_budget
    )


def write_snapshot_file(inputs: Inputs, path: Path) -> int:
    """Build a snapshot of the generated triples; returns its bytes."""
    from repro.graph.database import GraphDatabase
    from repro.storage import write_snapshot

    write_snapshot(GraphDatabase.from_triples(inputs.triples), path)
    return path.stat().st_size


def open_session(inputs: Inputs, engine: str, snapshot: Optional[Path]):
    from repro import Database

    profile = profile_for(inputs, engine)
    backend = inputs.spec.backend
    if backend == "memory":
        return Database.from_triples(inputs.triples, profile)
    if backend == "snapshot":
        return Database.open(snapshot, profile, cached=False)
    return Database.edit(snapshot, profile)


def read(db, text: str, mode: str):
    """One closed-loop read: the query and every decoded row."""
    started = time.perf_counter()
    result = db.query(text, mode=mode)
    rows = list(result)
    return time.perf_counter() - started, rows, result.mode


def checked_read(db, inputs: Inputs, checker: Checker, combo, state, record):
    """A calibrated read whose answer is checked; returns seconds or
    None."""
    _, query, mode = combo
    record.calibrate()
    checker.attempted += 1
    try:
        elapsed, rows, ran_mode = read(db, inputs.spec.queries[query], mode)
    except Exception:  # a failed operation is counted, the loop goes on
        checker.fail(f"{combo}: {traceback.format_exc(limit=3)}")
        return None
    return elapsed if checker.check_rows(state, query, ran_mode, rows) else None


def cold_pass(db, inputs, checker, combos, record) -> None:
    for combo in combos:
        checked_read(db, inputs, checker, combo, "base", record)


def run_read(inputs: Inputs, checker: Checker, seconds: float, workdir: Path) -> Record:
    """lubm-read and dbpedia-snapshot: one fresh session per entry of
    ``spec.sessions``, each measured for an equal share of the run."""
    record = Record()
    snapshot = None
    snapshot_s = 0.0
    if inputs.spec.backend == "snapshot":
        # One build serves both sessions; each set-up sample counts it.
        started = time.perf_counter()
        snapshot = workdir / "data.snap"
        record.snapshot_bytes.append(write_snapshot_file(inputs, snapshot))
        snapshot_s = time.perf_counter() - started
    share = seconds / len(inputs.spec.sessions)
    for number, engine in enumerate(inputs.spec.sessions):
        gc.collect()
        passes = inputs.passes(engine, salt=number)
        n_combos = len(inputs.combos(engine))
        cold = [next(passes) for _ in range(n_combos)]
        started, spent = time.perf_counter(), record.calibration_s
        db = open_session(inputs, engine, snapshot)
        cold_pass(db, inputs, checker, cold, record)
        record.setups.append(snapshot_s + record.elapsed_since(started, spent))
        # At least one whole warm pass, so every mix entry is sampled.
        started = time.perf_counter()
        deadline = started + share
        for done in itertools.count():
            if done >= n_combos and time.perf_counter() >= deadline:
                break
            combo = next(passes)
            elapsed = checked_read(db, inputs, checker, combo, "base", record)
            if elapsed is not None:
                record.reads[combo].append(elapsed * 1000.0)
                record.busy_s += elapsed
        record.loop_s += time.perf_counter() - started
        db.close()
        del db
    return record


def run_edit(inputs: Inputs, checker: Checker, seconds: float, workdir: Path) -> Record:
    """lubm-edit: reads beside add/retract batches and compactions on
    a snapshot opened for editing."""
    record = Record()
    engine = inputs.spec.engines[0]
    combos = inputs.combos(engine)
    db = None
    for number in range(3):
        if db is not None:
            db.close()
        gc.collect()
        started, spent = time.perf_counter(), record.calibration_s
        path = workdir / f"edit{number}.snap"
        record.snapshot_bytes.append(write_snapshot_file(inputs, path))
        db = open_session(inputs, engine, path)
        cold_pass(db, inputs, checker, combos, record)
        record.setups.append(record.elapsed_since(started, spent))
    base_digest = triples_digest(inputs.triples)
    state = "base"
    compactions = 0
    loop_started = time.perf_counter()
    deadline = loop_started + seconds
    for kind, payload in inputs.edit_program():
        if time.perf_counter() >= deadline:
            break
        if kind == "read":
            elapsed = checked_read(db, inputs, checker, payload, state, record)
            if elapsed is not None:
                record.reads[payload].append(elapsed * 1000.0)
                record.busy_s += elapsed
            continue
        checker.attempted += 1
        record.calibrate()
        try:
            if kind == "write":
                episode, batch, op, triples = payload
                started = time.perf_counter()
                getattr(db, op)(triples)
                elapsed = time.perf_counter() - started
                record.writes.append(elapsed * 1000.0)
                state = state_key(episode, batch + 1)
            else:
                compactions += 1
                out = workdir / f"compact{compactions}.snap"
                started = time.perf_counter()
                db.compact(out)
                elapsed = time.perf_counter() - started
                record.compacts.append(elapsed)
                check_compacted(out, base_digest, checker)
                out.unlink()
        except Exception:  # a failed operation is counted, the loop goes on
            checker.fail(f"{kind}: {traceback.format_exc(limit=3)}")
            continue
        record.busy_s += elapsed
    record.loop_s = time.perf_counter() - loop_started
    db.close()
    return record


def check_compacted(path: Path, base_digest: str, checker: Checker) -> None:
    """Compaction runs between episodes, so the fresh snapshot must
    hold exactly the base triples."""
    from repro import Database

    db = Database.open(path, cached=False)
    try:
        if triples_digest(list(db.triples())) != base_digest:
            checker.fail(f"compacted snapshot {path.name} differs from the graph")
    finally:
        db.close()


def run(inputs: Inputs, checker: Checker, seconds: float, workdir: Path) -> Record:
    if inputs.spec.backend == "edit":
        return run_edit(inputs, checker, seconds, workdir)
    return run_read(inputs, checker, seconds, workdir)
