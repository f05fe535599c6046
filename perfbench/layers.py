"""Traced run: the layers of ``Database.query`` called one by one.

The benchmark records its own spans around the public function of each
layer, in the order ``Database.query`` calls them:

    parse -> [advise] -> full:   join
                      -> pruned: compile -> solve -> extract (prune)
                                 -> to_store -> join
          -> decode

The run has three phases on one set of sessions (both engines share
one backend):

1. set-up, with spans around snapshot write/open, the matrix build
   and the index build, then a cold pass over the mix;
2. an untraced closed loop through ``Database.query`` (writes and
   compactions included on lubm-edit), which gives the per-query
   medians for ``advisor.regret`` and ``api.glue_ms`` and the registry
   deltas of the incremental maintenance counters;
3. a fixed number of traced passes through the decomposed path, whose
   answers are checked against the same reference answers as
   ``Database.query``'s;
4. on a workload without writes, a write probe (``_write_probe``) that
   builds the graph's snapshot, opens it for editing, applies a few
   write episodes and compacts it, so the storage and overlay figures
   are measured there too.

Spans are kept in memory and written as JSONL when the run ends.  A
per-layer count is 0 on a workload whose path never runs that layer
(no promotions on lubm-read's memory backend, no demotions without a
residency budget, no incremental maintenance without writes).
"""

from __future__ import annotations

import gc
import itertools
import json
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import e2e
from inputs import Inputs
from oracle import state_key
from stats import current_rss_mb, geomean, median, quantile

#: Traced passes over the whole mix (phase 3).
TRACED_PASSES = 2

#: Registry counters read as deltas.
_COUNTERS = (
    "join_index_fills_total",
    "kernel_degradations_total",
    "promotions_total",
    "demotions_total",
    "incremental_reuses_total",
    "incremental_cascades_total",
    "incremental_fallbacks_total",
    "incremental_cold_solves_total",
)


def counters() -> Dict[str, int]:
    from repro.obs.metrics import registry

    reg = registry()
    return {name: reg.counter(name).value for name in _COUNTERS}


def delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in before}


class SpanLog:
    """In-memory spans: name, start, end, parent, shared trace id."""

    def __init__(self):
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace_id: int, **attrs):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(
                {
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "attrs": attrs,
                }
            )

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s["start_ns"]):
                handle.write(json.dumps(span, default=repr) + "\n")


@dataclass
class TracedRead:
    combo: Tuple[str, str, str]
    ran_mode: str = ""
    layers_ms: Dict[str, float] = field(default_factory=dict)
    rows: int = 0
    input_triples: int = 0
    triples_before: int = 0
    triples_after: int = 0
    labels_touched: int = 0
    rounds: int = 0
    evaluations: int = 0
    bits_removed: int = 0
    picked_pruned: Optional[bool] = None


class Decomposed:
    """The read path of ``Database.query``, one public call per layer."""

    def __init__(self, backend, inputs: Inputs, log: SpanLog):
        from repro import ExecutionProfile

        self.backend = backend
        self.inputs = inputs
        self.log = log
        self.budget = inputs.residency_budget
        self.solver_options = ExecutionProfile().solver_options()
        self._advisor = None
        self._engines: Dict[str, object] = {}

    def invalidate(self) -> None:
        """After a write, as ``Database.add``/``retract`` do."""
        self._advisor = None

    def _advisor_for(self):
        if self._advisor is None:
            from repro.pipeline.advisor import PruningAdvisor

            self._advisor = PruningAdvisor(self.backend.triple_store())
        return self._advisor

    def _engine_for(self, engine: str):
        if engine not in self._engines:
            from repro.store.engine import QueryEngine

            self._engines[engine] = QueryEngine(
                self.backend.triple_store(), engine
            )
        return self._engines[engine]

    def read(self, combo, trace_id: int):
        from repro import ResultSet
        from repro.core.compiler import compile_query
        from repro.core.pruning import prune
        from repro.core.solver import solve
        from repro.sparql.parser import parse_query
        from repro.store.engine import QueryEngine

        engine, query, mode = combo
        text = self.inputs.spec.queries[query]
        out = TracedRead(combo)
        span = self.log.span

        @contextmanager
        def timed(name):
            started = time.perf_counter()
            with span(name, trace_id):
                yield
            out.layers_ms[name] = out.layers_ms.get(name, 0.0) + (
                time.perf_counter() - started
            ) * 1000.0

        with span("read", trace_id, engine=engine, query=query, mode=mode):
            with timed("sparql.parse"):
                parsed = parse_query(text)
            if mode == "auto":
                with timed("advisor.advise"):
                    advice = self._advisor_for().advise(parsed, engine)
                out.picked_pruned = advice.recommended
                mode = "pruned" if advice.recommended else "full"
            out.ran_mode = mode
            self.backend.set_residency_budget(self.budget)
            if mode == "full":
                store = self.backend.triple_store()
                with timed("store.join_full"):
                    result = self._engine_for(engine).execute(parsed)
            else:
                graph = self.backend.graph
                with timed("core.compile"):
                    compiled = compile_query(parsed)
                results = []
                with timed("core.solve"):
                    for branch in compiled:
                        results.append(
                            solve(branch.soi, graph, self.solver_options)
                        )
                with timed("core.extract"):
                    pruned = prune(graph, results)
                with timed("store.pruned_store_build"):
                    store = pruned.to_store()
                with timed("store.join_pruned"):
                    result = QueryEngine(store, engine).execute(parsed)
                out.triples_before = pruned.n_triples_before
                out.triples_after = pruned.n_triples_after
                out.labels_touched = len(
                    {e.label for b in compiled for e in b.soi.edges}
                )
                for solved in results:
                    out.rounds += solved.report.rounds
                    out.evaluations += solved.report.evaluations
                    out.bits_removed += solved.report.bits_removed
            out.input_triples = store.n_triples
            with timed("api.decode"):
                rows = list(ResultSet(result, mode=mode))
            if self.budget is not None:
                self.backend.enforce_residency_budget(self.budget)
        out.rows = len(rows)
        return out, rows


@dataclass
class LayerReport:
    setup: Dict[str, float] = field(default_factory=dict)
    untraced: Dict[Tuple, List[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    traced: List[TracedRead] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    compacts: List[float] = field(default_factory=list)
    overlay_ms: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    run_counters: Dict[str, int] = field(default_factory=dict)
    loop_counters: Dict[str, int] = field(default_factory=dict)
    traced_counters: Dict[str, int] = field(default_factory=dict)
    resident_bytes: int = 0
    snapshot_bytes: List[int] = field(default_factory=list)
    n_triples: int = 0
    #: Calibration samples taken beside the untraced reads.
    calibration: e2e.Record = field(default_factory=e2e.Record)

    def _mean_layer(self, name: str) -> float:
        values = [r.layers_ms[name] for r in self.traced if name in r.layers_ms]
        return sum(values) / len(values) if values else 0.0

    def _regret(self) -> float:
        ratios = []
        pairs = {(e, q) for e, q, _ in self.untraced}
        for engine, query in sorted(pairs):
            med = {
                mode: median(self.untraced[(engine, query, mode)])
                for mode in ("full", "pruned", "auto")
                if self.untraced.get((engine, query, mode))
            }
            if len(med) == 3:
                ratios.append(med["auto"] / min(med["full"], med["pruned"]))
        return geomean(ratios) if ratios else 0.0

    def _glue(self) -> float:
        by_combo: Dict[Tuple, List[TracedRead]] = defaultdict(list)
        for read in self.traced:
            by_combo[read.combo].append(read)
        gaps = []
        for combo, reads in by_combo.items():
            if not self.untraced.get(combo):
                continue
            names = {n for r in reads for n in r.layers_ms}
            traced_sum = sum(
                median([r.layers_ms.get(n, 0.0) for r in reads]) for n in names
            )
            gaps.append(median(self.untraced[combo]) - traced_sum)
        return sum(gaps) / len(gaps) if gaps else 0.0

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        traced = self.traced
        pruned = [r for r in traced if r.ran_mode == "pruned"]
        picks = {}
        for read in traced:
            if read.picked_pruned is not None:
                picks.setdefault(read.combo, read.picked_pruned)
        loop = self.loop_counters
        inc = {
            k: loop[f"incremental_{k}_total"]
            for k in ("reuses", "cascades", "fallbacks", "cold_solves")
        }
        promotions = self.traced_counters["promotions_total"]
        touched = sum(r.labels_touched for r in pruned)
        rows = sum(r.rows for r in traced)
        before = sum(r.triples_before for r in pruned)
        overlay = self.overlay_ms
        # The untraced loop's writes; on a read-only workload, the
        # write probe's (see _write_probe).
        writes = self.writes or overlay["add"] + overlay["retract"]
        snapshot = self.snapshot_bytes[0] if self.snapshot_bytes else 0
        ms, s, n = "ms", "s", "count"
        return {
            "sparql.parse_ms": (self._mean_layer("sparql.parse"), ms),
            "advisor.advise_ms": (self._mean_layer("advisor.advise"), ms),
            "advisor.regret": (self._regret(), "ratio"),
            "advisor.pruned_picks": (sum(picks.values()), n),
            "bitvec.matrix_build_s": (self.setup["matrix_build_s"], s),
            "bitvec.matrix_mb": (self.setup["matrix_mb"], "MB"),
            "store.index_build_s": (self.setup["index_build_s"], s),
            "store.index_fills": (self.run_counters["join_index_fills_total"], n),
            "store.join_full_ms": (self._mean_layer("store.join_full"), ms),
            "store.join_pruned_ms": (self._mean_layer("store.join_pruned"), ms),
            "store.join_rows": (rows / len(traced), "rows"),
            "store.input_triples_per_row": (
                sum(r.input_triples for r in traced) / max(rows, 1), "ratio"
            ),
            "store.pruned_store_build_ms": (
                self._mean_layer("store.pruned_store_build"), ms
            ),
            "core.compile_ms": (self._mean_layer("core.compile"), ms),
            "core.solve_ms": (self._mean_layer("core.solve"), ms),
            "core.rounds": (sum(r.rounds for r in pruned), n),
            "core.evaluations": (sum(r.evaluations for r in pruned), n),
            "core.bits_removed": (sum(r.bits_removed for r in pruned), n),
            "core.extract_ms": (self._mean_layer("core.extract"), ms),
            "core.retained_frac": (
                sum(r.triples_after for r in pruned) / before if before else 0.0,
                "ratio",
            ),
            "core.degradations": (
                self.run_counters["kernel_degradations_total"], n
            ),
            "api.decode_ms": (self._mean_layer("api.decode"), ms),
            "api.glue_ms": (self._glue(), ms),
            "storage.write_s": (self.setup.get("write_s", 0.0), s),
            "storage.bytes_per_triple": (snapshot / self.n_triples, "B"),
            "storage.open_ms": (self.setup.get("open_ms", 0.0), ms),
            "storage.promotions": (promotions, n),
            "storage.demotions": (self.traced_counters["demotions_total"], n),
            "storage.hit_rate": (
                1.0 - promotions / touched if touched else 1.0, "ratio"
            ),
            "storage.resident_mb": (self.resident_bytes / 2.0**20, "MB"),
            "storage.compact_s": (
                median(self.compacts) if self.compacts else 0.0, s
            ),
            "overlay.add_ms": (_mean(overlay["add"]), ms),
            "overlay.retract_ms": (_mean(overlay["retract"]), ms),
            "overlay.write_p50_ms": (median(writes) if writes else 0.0, ms),
            "overlay.write_p95_ms": (
                quantile(writes, 0.95) if writes else 0.0, ms
            ),
            "incremental.reuses": (inc["reuses"], n),
            "incremental.cascades": (inc["cascades"], n),
            "incremental.fallbacks": (inc["fallbacks"], n),
            "incremental.cold_solves": (inc["cold_solves"], n),
            "incremental.reuse_frac": (
                inc["reuses"] / sum(inc.values()) if sum(inc.values()) else 0.0,
                "ratio",
            ),
        }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _setup(inputs: Inputs, log: SpanLog, report: LayerReport, workdir: Path):
    """Build one backend with a span around each layer's set-up."""
    from repro import Database
    from repro.graph.database import GraphDatabase

    snapshot = None
    if inputs.spec.backend != "memory":
        snapshot = workdir / "data.snap"
        with log.span("storage.write", 0):
            started = time.perf_counter()
            report.snapshot_bytes.append(
                e2e.write_snapshot_file(inputs, snapshot)
            )
            report.setup["write_s"] = time.perf_counter() - started
    started = time.perf_counter()
    with log.span("storage.open" if snapshot else "graph.load", 0):
        if snapshot is None:
            db = Database.in_memory(GraphDatabase.from_triples(inputs.triples))
        else:
            db = e2e.open_session(inputs, inputs.spec.engines[0], snapshot)
    if snapshot is not None:
        report.setup["open_ms"] = (time.perf_counter() - started) * 1000.0
    backend = db.backend
    rss = current_rss_mb()
    with log.span("bitvec.matrix_build", 0):
        started = time.perf_counter()
        backend.graph.matrices()
        report.setup["matrix_build_s"] = time.perf_counter() - started
    report.setup["matrix_mb"] = current_rss_mb() - rss
    with log.span("store.index_build", 0):
        started = time.perf_counter()
        backend.triple_store()
        report.setup["index_build_s"] = time.perf_counter() - started
    return {
        engine: Database(backend, e2e.profile_for(inputs, engine))
        for engine in inputs.spec.engines
    }


def _untraced_read(sessions, inputs, checker, report, combo, state):
    elapsed = e2e.checked_read(
        sessions[combo[0]], inputs, checker, combo, state, report.calibration
    )
    if elapsed is not None:
        report.untraced[combo].append(elapsed * 1000.0)


def _traced_read(decomposed, inputs, checker, report, combo, state, trace_id):
    checker.attempted += 1
    try:
        read, rows = decomposed.read(combo, trace_id)
    except Exception:  # a failed operation is counted, the run goes on
        checker.fail(f"traced {combo}: {traceback.format_exc(limit=3)}")
        return
    if checker.check_rows(state, combo[1], read.ran_mode, rows):
        report.traced.append(read)


def _write(db, decomposed, log, checker, report, payload, trace_id, traced):
    episode, batch, op, triples = payload
    checker.attempted += 1
    span = (
        log.span(f"overlay.{op}", trace_id, triples=len(triples))
        if traced else nullcontext()
    )
    try:
        with span:
            started = time.perf_counter()
            getattr(db, op)(triples)
            elapsed = (time.perf_counter() - started) * 1000.0
    except Exception:  # a failed operation is counted, the run goes on
        checker.fail(f"{op}: {traceback.format_exc(limit=3)}")
        return None
    if decomposed is not None:
        decomposed.invalidate()
    (report.overlay_ms[op] if traced else report.writes).append(elapsed)
    return state_key(episode, batch + 1)


def _compact(db, log, checker, report, workdir, number, trace_id, base_digest):
    out = workdir / f"compact{number}.snap"
    checker.attempted += 1
    try:
        with log.span("storage.compact", trace_id):
            started = time.perf_counter()
            db.compact(out)
            report.compacts.append(time.perf_counter() - started)
        e2e.check_compacted(out, base_digest, checker)
    except Exception:  # a failed operation is counted, the run goes on
        checker.fail(f"compact: {traceback.format_exc(limit=3)}")
    out.unlink(missing_ok=True)


def run(inputs: Inputs, checker, seconds: float, workdir: Path, spans_path: Path):
    from inputs import triples_digest

    log = SpanLog()
    report = LayerReport(n_triples=len(inputs.triples))
    at_start = counters()
    gc.collect()
    sessions = _setup(inputs, log, report, workdir)
    any_db = next(iter(sessions.values()))
    decomposed = Decomposed(any_db.backend, inputs, log)
    mix = [c for e in inputs.spec.engines for c in inputs.combos(e)]
    for combo in mix:  # cold pass
        e2e.checked_read(sessions[combo[0]], inputs, checker, combo, "base",
                         report.calibration)

    # Phase 2: untraced closed loop, at least one whole pass.
    before = counters()
    deadline = time.perf_counter() + seconds / 2.0
    editing = inputs.spec.backend == "edit"
    base_digest = triples_digest(inputs.triples)
    if editing:
        state, compactions = "base", 0
        program = inputs.edit_program()
        seen = set()
        for kind, payload in program:
            if time.perf_counter() >= deadline and len(seen) == len(mix):
                break
            if kind == "read":
                _untraced_read(sessions, inputs, checker, report, payload, state)
                seen.add(payload)
            elif kind == "write":
                state = _write(
                    any_db, decomposed, log, checker, report, payload, 0, False
                ) or state
            else:
                compactions += 1
                _compact(any_db, log, checker, report, workdir,
                         compactions, 0, base_digest)
        # Finish the episode so the traced phase starts from the base.
        while state != "base":
            kind, payload = next(program)
            if kind == "write":
                state = _write(
                    any_db, decomposed, log, checker, report, payload, 0, False
                ) or state
    else:
        passes = {e: inputs.passes(e, salt=2) for e in inputs.spec.engines}
        done = 0
        while done < 1 or time.perf_counter() < deadline:
            for engine in inputs.spec.engines:
                for _ in range(len(inputs.combos(engine))):
                    combo = next(passes[engine])
                    _untraced_read(sessions, inputs, checker, report, combo, "base")
            done += 1
    report.loop_counters = delta(before, counters())

    # Phase 3: fixed traced passes through the decomposed path.
    before = counters()
    trace_ids = itertools.count(1)
    if editing:
        state, compactions = "base", 0
        program = inputs.edit_program()
        reads = 0
        for kind, payload in program:
            trace_id = next(trace_ids)
            if kind == "read":
                _traced_read(decomposed, inputs, checker, report, payload,
                             state, trace_id)
                reads += 1
            elif kind == "write":
                state = _write(
                    any_db, decomposed, log, checker, report, payload,
                    trace_id, True,
                ) or state
            else:
                compactions += 1
                _compact(any_db, log, checker, report, workdir,
                         100 + compactions, trace_id, base_digest)
                if reads >= TRACED_PASSES * len(mix):
                    break
    else:
        for _ in range(TRACED_PASSES):
            for engine in inputs.spec.engines:
                for combo in inputs.combos(engine):
                    _traced_read(decomposed, inputs, checker, report, combo,
                                 "base", next(trace_ids))
    report.traced_counters = delta(before, counters())
    residency = any_db.backend.residency()
    report.resident_bytes = residency.resident_bytes if residency else 0
    report.run_counters = delta(at_start, counters())
    any_db.close()  # the sessions share one backend
    del sessions, any_db, decomposed
    if not editing:
        _write_probe(inputs, log, checker, report, workdir, base_digest)
    log.write_jsonl(spans_path)
    return report


#: Write episodes the probe of a read-only workload applies.
PROBE_EPISODES = 4


def _write_probe(inputs, log, checker, report, workdir, base_digest):
    """Measure the storage and overlay layers on a read-only workload's
    graph: build (or reuse) its snapshot, open it for editing, apply a
    few write episodes, and compact it.  The episodes leave the graph
    as they found it, so the compacted snapshot must hold the base
    triples.  No read runs here; the figures only describe what
    writing this graph would cost."""
    from inputs import clone_episodes

    gc.collect()
    snapshot = workdir / "data.snap"
    if not snapshot.exists():
        with log.span("storage.write", 0):
            started = time.perf_counter()
            report.snapshot_bytes.append(
                e2e.write_snapshot_file(inputs, snapshot)
            )
            report.setup["write_s"] = time.perf_counter() - started
    from repro import Database

    with log.span("storage.open", 0):
        started = time.perf_counter()
        db = Database.edit(snapshot, e2e.profile_for(inputs, inputs.spec.engines[0]))
        opened_ms = (time.perf_counter() - started) * 1000.0
    report.setup.setdefault("open_ms", opened_ms)
    trace_ids = itertools.count(10**6)
    for index, episode in enumerate(clone_episodes(inputs.triples, PROBE_EPISODES)):
        for batch, (op, triples) in enumerate(episode.batches()):
            _write(db, None, log, checker, report, (index, batch, op, triples),
                   next(trace_ids), True)
    _compact(db, log, checker, report, workdir, 1, next(trace_ids), base_digest)
    db.close()
