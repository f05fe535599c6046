"""Benchmark harness: dataset cache + per-table experiment runners.

Each ``run_table*`` function regenerates one table of the paper's
evaluation section over the synthetic workloads and returns structured
rows; ``repro.bench.reporting`` renders them like the paper's tables.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from repro.bitvec import KERNELS, use_kernel
from repro.core.compiler import compile_query, pattern_to_graph
from repro.core.naive import ma_dual_simulation
from repro.core.hhk import hhk_dual_simulation
from repro.core.solver import SolverOptions, largest_dual_simulation
from repro.graph.database import GraphDatabase
from repro.obs.trace import NULL_TRACER, activate
from repro.pipeline.pruned_query import PipelineReport, PruningPipeline
from repro.sparql.normalize import merge_bgps, strip_filters, strip_optional
from repro.sparql.parser import parse_query
from repro.sparql.ast import BGP
from repro.workloads import (
    BENCH_QUERIES,
    DBPEDIA_QUERIES,
    LUBM_QUERIES,
    dataset_of,
    generate_dbpedia,
    generate_lubm,
    get_query,
)

#: Default scales; tests use smaller, benches may use larger.
DEFAULT_LUBM_UNIVERSITIES = 10
DEFAULT_DBPEDIA_SCALE = 6


@lru_cache(maxsize=8)
def lubm_database(n_universities: int = DEFAULT_LUBM_UNIVERSITIES,
                  seed: int = 7) -> GraphDatabase:
    return generate_lubm(n_universities=n_universities, seed=seed)


@lru_cache(maxsize=8)
def dbpedia_database(scale: int = DEFAULT_DBPEDIA_SCALE,
                     seed: int = 11, padding: int = 6) -> GraphDatabase:
    return generate_dbpedia(scale=scale, seed=seed, padding=padding)


def database_for(name: str, lubm_universities: int = DEFAULT_LUBM_UNIVERSITIES,
                 dbpedia_scale: int = DEFAULT_DBPEDIA_SCALE) -> GraphDatabase:
    if dataset_of(name) == "lubm":
        return lubm_database(lubm_universities)
    return dbpedia_database(dbpedia_scale)


@contextlib.contextmanager
def _quiesced_gc():
    """Collect garbage up front and disable the collector while a
    measurement runs; in-process GC pauses otherwise dominate the
    millisecond-scale timings these tables compare."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def mandatory_core_bgp(query_text: str):
    """The BGP core of a query: OPTIONAL stripped, filters dropped
    (how the paper prepares B-queries for the Ma et al. baseline).
    For UNION queries the first union-free branch is used — the
    baseline only accepts plain BGPs."""
    query = parse_query(query_text)
    core = merge_bgps(strip_filters(strip_optional(query.pattern)))
    if not isinstance(core, BGP):
        from repro.sparql.normalize import normalize
        core = normalize(core)[0]
    if not isinstance(core, BGP):
        raise ValueError("query core is not a single BGP")
    return core


# -- Table 2: SPARQLSIM vs. Ma et al. ---------------------------------------


@dataclass
class Table2Row:
    query: str
    t_sparqlsim: float
    t_ma: float
    speedup: float
    sim_equal: bool


def run_table2(
    queries: Optional[Dict[str, str]] = None,
    dbpedia_scale: int = DEFAULT_DBPEDIA_SCALE,
    options: Optional[SolverOptions] = None,
) -> List[Table2Row]:
    """SPARQLSIM vs. the Ma et al. baseline on the B-query BGP cores."""
    queries = queries or BENCH_QUERIES
    rows: List[Table2Row] = []
    for name in sorted(queries, key=_query_sort_key):
        db = database_for(name, dbpedia_scale=dbpedia_scale)
        db.matrices()  # the paper's tool holds the matrices in memory
        bgp = mandatory_core_bgp(queries[name])
        pattern = pattern_to_graph(bgp)

        with _quiesced_gc():
            start = time.perf_counter()
            soi_result = largest_dual_simulation(pattern, db, options)
            t_soi = time.perf_counter() - start

        with _quiesced_gc():
            start = time.perf_counter()
            ma_result = ma_dual_simulation(pattern, db)
            t_ma = time.perf_counter() - start

        equal = soi_result.to_relation() == ma_result.relation
        rows.append(
            Table2Row(
                query=name,
                t_sparqlsim=t_soi,
                t_ma=t_ma,
                speedup=(t_ma / t_soi) if t_soi > 0 else float("inf"),
                sim_equal=equal,
            )
        )
    return rows


# -- Table 3: pruning effectiveness ----------------------------------------------


def run_table3(
    names: Optional[List[str]] = None,
    lubm_universities: int = DEFAULT_LUBM_UNIVERSITIES,
    dbpedia_scale: int = DEFAULT_DBPEDIA_SCALE,
    profile: str = "virtuoso-like",
) -> List[PipelineReport]:
    """Result sizes, required triples, t_SPARQLSIM, triples after
    pruning — for every catalog query."""
    if names is None:
        names = (
            sorted(LUBM_QUERIES, key=_query_sort_key)
            + sorted(DBPEDIA_QUERIES, key=_query_sort_key)
            + sorted(BENCH_QUERIES, key=_query_sort_key)
        )
    pipelines: Dict[str, PruningPipeline] = {}
    rows: List[PipelineReport] = []
    for name in names:
        dataset = dataset_of(name)
        if dataset not in pipelines:
            db = database_for(
                name,
                lubm_universities=lubm_universities,
                dbpedia_scale=dbpedia_scale,
            )
            pipelines[dataset] = PruningPipeline(db, profile=profile)
        with _quiesced_gc():
            rows.append(pipelines[dataset].run(get_query(name), name=name))
    return rows


# -- Tables 4/5: engine time full vs. pruned -------------------------------------------


def run_engine_table(
    profile: str,
    names: Optional[List[str]] = None,
    lubm_universities: int = DEFAULT_LUBM_UNIVERSITIES,
    dbpedia_scale: int = DEFAULT_DBPEDIA_SCALE,
) -> List[PipelineReport]:
    """Table 4 (profile='rdfox-like') / Table 5 (profile='virtuoso-like')."""
    return run_table3(
        names=names,
        lubm_universities=lubm_universities,
        dbpedia_scale=dbpedia_scale,
        profile=profile,
    )


# -- Fig. 6 / Sect. 5.3: iteration behaviour ------------------------------------------


@dataclass
class IterationRow:
    query: str
    rounds: int
    evaluations: int
    updates: int
    t_sparqlsim: float


def run_iteration_study(
    names: Optional[List[str]] = None,
    lubm_universities: int = DEFAULT_LUBM_UNIVERSITIES,
    dbpedia_scale: int = DEFAULT_DBPEDIA_SCALE,
    options: Optional[SolverOptions] = None,
) -> List[IterationRow]:
    """Fixpoint iteration counts per query (L0 high, L1 low)."""
    from repro.core.solver import solve

    names = names or ["L0", "L1", "L2", "B7", "B0", "B14"]
    rows: List[IterationRow] = []
    for name in names:
        db = database_for(
            name,
            lubm_universities=lubm_universities,
            dbpedia_scale=dbpedia_scale,
        )
        compiled = compile_query(get_query(name))
        rounds = evaluations = updates = 0
        start = time.perf_counter()
        for branch in compiled:
            result = solve(branch.soi, db, options)
            rounds += result.report.rounds
            evaluations += result.report.evaluations
            updates += result.report.updates
        elapsed = time.perf_counter() - start
        rows.append(IterationRow(name, rounds, evaluations, updates, elapsed))
    return rows


# -- Kernel ablation: packed vs reference products ---------------------------


@dataclass
class KernelBenchRow:
    """One (query, kernel) measurement of the SOI solver."""

    query: str
    dataset: str
    kernel: str
    t_solve: float       # best-of-repeats wall time of one solve
    rounds: int
    evaluations: int
    updates: int
    bits_removed: int
    total_bits: int      # fixpoint mass; must agree across kernels
    #: Parallel-scaling measurement (``--workers N``): the same solve
    #: under N workers.  ``None``/``1`` on plain runs — the baseline
    #: JSON schema never sees these.
    t_workers: Optional[float] = None
    workers: int = 1


def run_kernel_bench(
    names: Optional[List[str]] = None,
    lubm_universities: int = DEFAULT_LUBM_UNIVERSITIES,
    dbpedia_scale: int = DEFAULT_DBPEDIA_SCALE,
    repeats: int = 3,
    options: Optional[SolverOptions] = None,
    kernels: Optional[List[str]] = None,
    workers: Optional[int] = None,
) -> List[KernelBenchRow]:
    """Solve every query's BGP core on each product kernel.

    The Table 2 / Table 3 workloads (B-queries on DBpedia, L-queries
    on LUBM) are run on every kernel (packed, batched, and the
    reference loops — or the subset in ``kernels``); per kernel the
    solver runs once for warm-up (the paper's tool holds the matrices
    in memory, so matrix builds and cache warming are not part of a
    solve) and then ``repeats`` timed runs, reporting the best.

    ``workers=N`` (N > 1) additionally times each *batched*-kernel
    solve under N thread workers (``SolverOptions.workers``) so the
    report carries a parallel-scaling column; answers are asserted
    bit-identical to the serial fixpoint.
    """
    if names is None:
        names = (
            sorted(LUBM_QUERIES, key=_query_sort_key)
            + sorted(BENCH_QUERIES, key=_query_sort_key)
        )
    if kernels is None:
        kernels = list(KERNELS)

    prepared = []
    for name in names:
        db = database_for(
            name,
            lubm_universities=lubm_universities,
            dbpedia_scale=dbpedia_scale,
        )
        db.matrices()  # build the CSR matrices up front
        prepared.append(
            (name, db, pattern_to_graph(mandatory_core_bgp(get_query(name))))
        )

    # One kernel group at a time, so a kernel is never timed against
    # another kernel's resident working set (the reference kernel's
    # per-row bitsets would otherwise sit in cache while packed is
    # measured).  Within a group, the warm-up pass runs each query
    # once (the paper's tool holds everything in memory, so matrix
    # builds and cache warming are not part of a solve) and
    # sizes the timing batch — sub-millisecond solves are timed in
    # ~10 ms batches so timer granularity and allocator jitter
    # average out.  The timing passes are *interleaved across
    # queries*: host noise on shared runners comes in bursts, and
    # back-to-back repeats of one query all land inside the same
    # burst — spreading them over the group decorrelates them, so
    # each minimum converges on the quiet-host time.  One GC
    # quiescence spans each pass (collecting right before a timed
    # solve perturbs the allocator enough to swamp the signal).
    # Timed solves run with tracing force-disabled: a tracer left
    # active by an embedding caller must never poison the timings the
    # perf-regression gate compares.
    rows: List[KernelBenchRow] = []
    for kernel in kernels:
        cells = []
        with use_kernel(kernel), activate(NULL_TRACER):
            for name, db, pattern in prepared:
                warm_start = time.perf_counter()
                result = largest_dual_simulation(pattern, db, options)
                warm = time.perf_counter() - warm_start
                inner = max(1, min(200, int(0.01 / max(warm, 1e-7))))
                cells.append([name, db, pattern, inner, result,
                              float("inf")])
            for _ in range(max(1, repeats)):
                with _quiesced_gc():
                    for cell in cells:
                        name, db, pattern, inner = cell[:4]
                        start = time.perf_counter()
                        for _ in range(inner):
                            largest_dual_simulation(pattern, db, options)
                        elapsed = (time.perf_counter() - start) / inner
                        if elapsed < cell[5]:
                            cell[5] = elapsed
            parallel_best: Dict[str, float] = {}
            if kernel == "batched" and workers and workers > 1:
                # Scaling pass: same solves, N thread workers.  Only
                # the batched kernel consumes the knob, so the other
                # kernels keep their rows schema-stable.
                from dataclasses import replace as _replace

                par_options = _replace(
                    options if options is not None else SolverOptions(),
                    workers=workers, worker_mode="threads",
                )
                for cell in cells:
                    name, db, pattern, inner, result = cell[:5]
                    par = largest_dual_simulation(pattern, db, par_options)
                    if par.total_bits() != result.total_bits():
                        raise AssertionError(
                            f"parallel fixpoint diverged on {name}: "
                            f"{par.total_bits()} != {result.total_bits()}"
                        )
                for _ in range(max(1, repeats)):
                    with _quiesced_gc():
                        for cell in cells:
                            name, db, pattern, inner = cell[:4]
                            start = time.perf_counter()
                            for _ in range(inner):
                                largest_dual_simulation(
                                    pattern, db, par_options
                                )
                            elapsed = (
                                time.perf_counter() - start
                            ) / inner
                            best = parallel_best.get(name, float("inf"))
                            if elapsed < best:
                                parallel_best[name] = elapsed
        rows.extend(
            KernelBenchRow(
                query=name,
                dataset=dataset_of(name),
                kernel=kernel,
                t_solve=best,
                rounds=result.report.rounds,
                evaluations=result.report.evaluations,
                updates=result.report.updates,
                bits_removed=result.report.bits_removed,
                total_bits=result.total_bits(),
                t_workers=parallel_best.get(name),
                workers=(
                    workers if name in parallel_best and workers else 1
                ),
            )
            for name, db, pattern, inner, result, best in cells
        )
    return rows


# -- Sect. 3.3 hypothesis: HHK vs Ma et al. -------------------------------------------


@dataclass
class HypothesisRow:
    query: str
    t_ma: float
    t_hhk: float
    ratio: float
    sim_equal: bool


def run_hhk_hypothesis(
    names: Optional[List[str]] = None,
    dbpedia_scale: int = DEFAULT_DBPEDIA_SCALE,
    lubm_universities: int = DEFAULT_LUBM_UNIVERSITIES,
) -> List[HypothesisRow]:
    """The paper's data-complexity hypothesis: naive HHK and Ma et al.
    show no order-of-magnitude gap in the labeled query setting."""
    names = names or ["B0", "B2", "B6", "B14", "L0", "L4"]
    rows: List[HypothesisRow] = []
    for name in names:
        db = database_for(
            name,
            lubm_universities=lubm_universities,
            dbpedia_scale=dbpedia_scale,
        )
        bgp = mandatory_core_bgp(get_query(name))
        pattern = pattern_to_graph(bgp)
        with _quiesced_gc():
            start = time.perf_counter()
            ma = ma_dual_simulation(pattern, db)
            t_ma = time.perf_counter() - start
        with _quiesced_gc():
            start = time.perf_counter()
            hhk = hhk_dual_simulation(pattern, db)
            t_hhk = time.perf_counter() - start
        rows.append(
            HypothesisRow(
                query=name,
                t_ma=t_ma,
                t_hhk=t_hhk,
                ratio=(t_ma / t_hhk) if t_hhk > 0 else float("inf"),
                sim_equal=ma.relation == hhk.relation,
            )
        )
    return rows


def _query_sort_key(name: str):
    return (name[0], int(name[1:]))
