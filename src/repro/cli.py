"""Command-line interface: ``python -m repro <command>``.

Every command sits on the :class:`repro.Database` session façade —
the CLI builds a database (from N-Triples text, a snapshot, or a
generator), an :class:`repro.ExecutionProfile` (engine profile,
pruning mode, product kernel), and calls the façade.

Commands:

* ``generate`` — write a synthetic workload to an N-Triples file::

      python -m repro generate lubm --out lubm.nt --universities 4
      python -m repro generate dbpedia --out dbp.nt --scale 2

* ``query`` — evaluate a SPARQL query over an N-Triples file::

      python -m repro query data.nt "SELECT * WHERE { ?s p ?o . }"
      python -m repro query data.nt query.rq --mode pruned
      python -m repro query data.nt query.rq --prune --engine rdfox-like
      python -m repro query data.nt query.rq --profile --trace-out t.jsonl

* ``simulate`` — print the system of inequalities and the largest
  dual simulation of a query (the Sect. 3/4 machinery)::

      python -m repro simulate data.nt "SELECT * WHERE { ?s p ?o . }"

* ``db`` — the on-disk snapshot store: build once, open many::

      python -m repro db build data.nt -o data.snap
      python -m repro db info data.snap
      python -m repro db verify data.snap
      python -m repro db compact data.snap -o new.snap --add delta.nt
      python -m repro db query data.snap query.rq --mode auto
      python -m repro db query data.snap query.rq --quantum 50 --token-out t.txt
      python -m repro db query data.snap --resume @t.txt
      python -m repro db query data.snap query.rq --profile --stats-json

* ``bench`` — regenerate one of the paper's tables::

      python -m repro bench table2
      python -m repro bench kernels --compare BENCH_PR1.json
      python -m repro bench table3 --kernel reference
"""

import argparse
import contextlib
import sys
import threading
from pathlib import Path
from typing import List, Optional

from repro.api import Database, ExecutionProfile, PRUNING_MODES
from repro.bitvec.kernel import KERNELS, use_kernel
from repro.errors import DeadlineExceededError, ReproError
from repro.graph.io import save_ntriples
from repro.store import PROFILES
from repro.workloads import generate_dbpedia, generate_lubm

BENCH_TABLES = (
    "table2", "table3", "table4", "table5", "iterations", "hypothesis",
    "kernels", "storage", "updates",
)

#: Exit code of ``bench kernels --compare`` when a query regressed.
EXIT_REGRESSION = 3

#: Exit code when a query blows its ``--deadline`` wall-clock bound.
EXIT_DEADLINE = 4


def _add_execution_flags(
    parser, modes: bool = True, default_mode: str = "full"
) -> None:
    """The flags every query-running command shares."""
    parser.add_argument("--engine", choices=sorted(PROFILES),
                        default="virtuoso-like",
                        help="join-engine profile")
    parser.add_argument("--kernel", choices=KERNELS, default=None,
                        help="bit-matrix product kernel (default: "
                             "process default, packed)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel evaluation width for the "
                             "batched kernel (1 = serial; answers are "
                             "bit-identical at any width)")
    parser.add_argument("--worker-mode", choices=("threads", "fork"),
                        default=None, dest="worker_mode",
                        help="parallel backend: threads (default) or "
                             "fork (snapshot-backed sessions only; "
                             "workers mmap disjoint shards)")
    if modes:
        parser.add_argument("--mode", choices=PRUNING_MODES, default=None,
                            help="query execution mode: always prune, "
                                 "never prune, or let the statistics "
                                 "advisor decide "
                                 f"(default: {default_mode})")


def _add_profiling_flags(parser) -> None:
    """The observability flags of the query-running commands."""
    parser.add_argument("--profile", action="store_true",
                        help="trace the query and print an EXPLAIN "
                             "ANALYZE-style span tree (per-stage total/"
                             "self time and work counters)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export the query's trace as OTel-"
                             "compatible JSONL (one span per line); "
                             "implies tracing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast dual simulation processing of graph database "
                    "queries (Mennicke et al., ICDE 2019) - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic workload")
    gen.add_argument("dataset", choices=("lubm", "dbpedia"))
    gen.add_argument("--out", required=True, help="output .nt path")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--universities", type=int, default=4,
                     help="LUBM: number of universities")
    gen.add_argument("--scale", type=int, default=1,
                     help="DBpedia: entity-scale multiplier")
    gen.add_argument("--padding", type=int, default=3,
                     help="DBpedia: unrelated-domain multiplier")

    qry = sub.add_parser("query", help="evaluate a SPARQL query")
    qry.add_argument("data", help="N-Triples file")
    qry.add_argument("query", help="SPARQL text or a .rq file path")
    qry.add_argument("--prune", action="store_true",
                     help="run the full pruning experiment (full vs "
                          "pruned evaluation) and report both timings")
    qry.add_argument("--limit", type=int, default=20,
                     help="max solutions to print (0 = all)")
    _add_execution_flags(qry)
    _add_profiling_flags(qry)

    sim = sub.add_parser("simulate", help="show SOI + largest dual simulation")
    sim.add_argument("data", help="N-Triples file")
    sim.add_argument("query", help="SPARQL text or a .rq file path")
    sim.add_argument("--limit", type=int, default=10,
                     help="max candidates to print per variable (0 = all)")
    sim.add_argument("--kernel", choices=KERNELS, default=None,
                     help="bit-matrix product kernel")

    ask = sub.add_parser(
        "ask", help="ASK a query (with the dual simulation fast path)"
    )
    ask.add_argument("data", help="N-Triples file")
    ask.add_argument("query", help="SPARQL ASK text or a .rq file path")
    _add_execution_flags(ask, modes=False)

    explain = sub.add_parser("explain", help="show the evaluation plan")
    explain.add_argument("data", help="N-Triples file")
    explain.add_argument("query", help="SPARQL text or a .rq file path")
    _add_execution_flags(explain, default_mode="auto")

    bench = sub.add_parser("bench", help="regenerate a paper table")
    bench.add_argument("table", choices=BENCH_TABLES)
    bench.add_argument("--json", dest="json_out", default=None,
                       help="kernels/storage: also write machine-readable "
                            "results (e.g. BENCH_PR1.json)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="kernels only: timed repetitions per query "
                            "(default 3)")
    bench.add_argument("--compare", dest="compare_to", default=None,
                       help="kernels only: diff against a previous "
                            "repro-bench/v1 JSON baseline; exits "
                            f"{EXIT_REGRESSION} on a >20%% regression")
    bench.add_argument("--kernel", choices=KERNELS, default=None,
                       help="run the table under this product kernel "
                            "(for `kernels`: measure only this "
                            "kernel; incompatible with --compare)")
    bench.add_argument("--workers", type=int, default=None, metavar="N",
                       help="kernels only: also time each batched-"
                            "kernel solve under N thread workers and "
                            "report the scaling column")

    db = sub.add_parser("db", help="on-disk snapshot store")
    db_sub = db.add_subparsers(dest="db_command", required=True)

    build = db_sub.add_parser(
        "build", help="serialize an N-Triples file into a snapshot"
    )
    build.add_argument("data", help="N-Triples input file")
    build.add_argument("-o", "--out", required=True,
                       help="snapshot output path")
    build.add_argument("--cold-threshold", type=float, default=None,
                       help="store a label gap-encoded (cold) when its "
                            "encoded bytes are below this fraction of "
                            "its dense bytes (default 1.0)")
    build.add_argument("--shards", type=int, default=None, metavar="N",
                       help="write the v3 sharded layout: block "
                            "payloads split across N shard files "
                            "keyed by label hash (enables disjoint "
                            "mmaps for --worker-mode fork)")

    info = db_sub.add_parser("info", help="describe a snapshot file")
    info.add_argument("snapshot", help="snapshot path")
    info.add_argument("--json", dest="json_out", action="store_true",
                      help="print machine-readable JSON instead")

    verify = db_sub.add_parser(
        "verify", help="check every snapshot section's integrity"
    )
    verify.add_argument("snapshot", help="snapshot path")
    verify.add_argument("--json", dest="json_out", action="store_true",
                        help="print machine-readable JSON instead")

    compact = db_sub.add_parser(
        "compact",
        help="apply N-Triples deltas to a snapshot and write the "
             "compacted result as a fresh snapshot",
    )
    compact.add_argument("snapshot", help="snapshot path to edit")
    compact.add_argument("-o", "--out", required=True,
                         help="compacted snapshot output path")
    compact.add_argument("--add", default=None, metavar="FILE.nt",
                         help="N-Triples file of triples to assert")
    compact.add_argument("--retract", default=None, metavar="FILE.nt",
                         help="N-Triples file of triples to retract")
    compact.add_argument("--cold-threshold", type=float, default=None,
                         help="as in `db build`")

    dbq = db_sub.add_parser(
        "query", help="evaluate a SPARQL query over a snapshot"
    )
    dbq.add_argument("snapshot", help="snapshot path")
    dbq.add_argument("query", nargs="?", default=None,
                     help="SPARQL text or a .rq file path (omit when "
                          "resuming with --resume)")
    dbq.add_argument("--quantum", type=float, default=None, metavar="MS",
                     help="preemptable execution: suspend the "
                          "dual-simulation stage after MS milliseconds "
                          "and print a continuation token (0 = "
                          "single-step)")
    dbq.add_argument("--deadline", type=float, default=None, metavar="MS",
                     help="hard wall-clock bound on the dual-simulation "
                          f"stage; exceeding it exits {EXIT_DEADLINE}")
    dbq.add_argument("--resume", default=None, metavar="TOKEN",
                     help="resume a suspended query from a continuation "
                          "token (@file reads the token from a file)")
    dbq.add_argument("--token-out", default=None, metavar="PATH",
                     help="when the query suspends, write the "
                          "continuation token to PATH instead of stdout")
    dbq.add_argument("--prune", action="store_true",
                     help="run the full pruning experiment (full vs "
                          "pruned evaluation) and report both timings")
    dbq.add_argument("--limit", type=int, default=20,
                     help="max solutions to print (0 = all)")
    dbq.add_argument("--budget", type=int, default=None,
                     help="hard residency budget in bytes: after the "
                          "query, least-recently-touched labels are "
                          "demoted back to disk until resident CSR "
                          "bytes fit")
    dbq.add_argument("--stats-json", action="store_true",
                     help="after the query, print the full session "
                          "stats (residency, degradations, process "
                          "metrics — plus a trace summary under "
                          "--profile) as JSON")
    _add_execution_flags(dbq)
    _add_profiling_flags(dbq)

    serve = sub.add_parser(
        "serve",
        help="serve a snapshot over HTTP with preemption-fair "
             "round-robin query scheduling",
    )
    serve.add_argument("data", help="snapshot path (or an .nt file)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 = ephemeral; default 8080)")
    serve.add_argument("--quantum", type=float, default=None, metavar="MS",
                       help="server-enforced time quantum per request "
                            "slice; over-quantum queries answer HTTP "
                            "206 with a continuation token (0 = "
                            "single-step; default 100)")
    serve.add_argument("--deadline", type=float, default=None, metavar="MS",
                       help="default hard wall-clock bound per query "
                            "(requests may tighten it with their own "
                            "deadline_ms)")
    serve.add_argument("--max-body", type=int, default=None, metavar="BYTES",
                       help="largest accepted request body "
                            "(default 1 MiB; larger bodies answer 413)")
    serve.add_argument("--budget", type=int, default=None,
                       help="residency budget in bytes for the served "
                            "snapshot")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="append every request's trace as OTel-"
                            "compatible JSONL (one span per line)")
    _add_execution_flags(serve, default_mode="auto")

    return parser


def _read_query(argument: str) -> str:
    path = Path(argument)
    if argument.endswith(".rq") and path.exists():
        return path.read_text()
    return argument


def _execution_profile(args, default_mode: str = "full") -> ExecutionProfile:
    """Build the session profile from the shared CLI flags.

    Starts from the profile's own defaults and folds in only the
    flags the user actually set (:meth:`ExecutionProfile.replace`),
    so default values live in exactly one place — adding a profile
    field no longer means threading another ``getattr`` default
    through here.
    """
    overrides = {"pruning": getattr(args, "mode", None) or default_mode}
    for flag, field in (
        ("engine", "engine"),
        ("kernel", "kernel"),
        ("budget", "residency_budget"),
        ("quantum", "time_quantum_ms"),
        ("deadline", "deadline_ms"),
        ("workers", "workers"),
        ("worker_mode", "worker_mode"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    return ExecutionProfile().replace(**overrides)


def _read_token(argument: str) -> str:
    """A continuation token argument: literal, or ``@path`` to a file."""
    if argument.startswith("@"):
        return Path(argument[1:]).read_text().strip()
    return argument.strip()


def cmd_generate(args, out) -> int:
    if args.dataset == "lubm":
        db = generate_lubm(n_universities=args.universities, seed=args.seed)
    else:
        db = generate_dbpedia(
            scale=args.scale, seed=args.seed, padding=args.padding
        )
    save_ntriples(db, args.out)
    print(
        f"wrote {db.n_triples} triples "
        f"({db.n_nodes} nodes, {len(db.labels)} predicates) to {args.out}",
        file=out,
    )
    return 0


def _emit_suspension(result, args, out) -> int:
    """Print (or file away) a suspended query's continuation token."""
    token_out = getattr(args, "token_out", None)
    print(
        "suspended: quantum expired before the dual-simulation stage "
        "finished; resume with --resume",
        file=out,
    )
    if token_out:
        Path(token_out).write_text(result.continuation + "\n")
        print(f"continuation token written to {token_out}", file=out)
    else:
        print(result.continuation, file=out)
    return 0


def _want_trace(args) -> Optional[bool]:
    """``--profile``/``--trace-out`` imply tracing (None = profile
    default, so a ``trace=True`` ExecutionProfile still traces)."""
    wanted = bool(
        getattr(args, "profile", False)
        or getattr(args, "trace_out", None)
    )
    return True if wanted else None


def _emit_trace(result, args, out) -> None:
    """Render/export a traced query per the profiling flags."""
    if getattr(result, "trace", None) is None:
        return
    if getattr(args, "profile", False):
        from repro.obs import render_profile

        print(render_profile(result.trace), file=out)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        result.trace.write_jsonl(trace_out)
        print(f"trace written to {trace_out}", file=out)


def _emit_stats_json(db, result, args, out) -> None:
    """``--stats-json``: the full session stats (plus a trace summary
    when the query was traced) as one JSON document."""
    if not getattr(args, "stats_json", False):
        return
    import json as json_module

    stats = db.stats().to_dict()
    if result is not None and getattr(result, "trace", None) is not None:
        from repro.obs.render import trace_summary

        stats["trace"] = trace_summary(result.trace)
    print(json_module.dumps(stats, indent=2), file=out)


def _run_session_query(db: Database, args, out) -> int:
    """Shared query flow of ``query`` and ``db query``."""
    trace = _want_trace(args)
    resume_token = getattr(args, "resume", None)
    if resume_token is not None:
        result = db.resume(_read_token(resume_token), trace=trace)
        if not result.complete:
            code = _emit_suspension(result, args, out)
        else:
            print("resumed to completion", file=out)
            _print_result(result, args, out)
            code = 0
        _emit_trace(result, args, out)
        _emit_stats_json(db, result, args, out)
        return code
    if args.query is None:
        raise ReproError("a query is required unless --resume is given")
    query = _read_query(args.query)
    if args.prune:
        report = db.benchmark(query, name="query")
        print(
            f"pruning: {report.triples_total} -> "
            f"{report.triples_after_pruning} triples "
            f"({100 * report.prune_ratio:.1f}% pruned) "
            f"in {report.t_simulation:.4f}s",
            file=out,
        )
        print(
            f"engine: full {report.t_db_full:.4f}s, "
            f"pruned {report.t_db_pruned:.4f}s, "
            f"results equal: {report.results_equal}",
            file=out,
        )
    result = db.query(query, trace=trace)
    if not result.complete:
        code = _emit_suspension(result, args, out)
    else:
        _print_result(result, args, out)
        code = 0
    _emit_trace(result, args, out)
    _emit_stats_json(db, result, args, out)
    return code


def _print_result(result, args, out) -> None:
    if result.advised:
        print(f"mode: auto -> {result.mode}", file=out)
    if result.mode == "pruned" and result.pruning is not None and not args.prune:
        summary = result.pruning
        print(
            f"pruning: {summary.triples_total} -> "
            f"{summary.triples_after} triples "
            f"({100 * summary.ratio:.1f}% pruned) "
            f"in {summary.t_simulation:.4f}s",
            file=out,
        )
    total = len(result)
    print(f"{total} solutions", file=out)
    limit = args.limit
    for number, row in enumerate(result):
        if limit and number >= limit:
            break
        rendered = ", ".join(
            f"?{name}={value}" for name, value in row.items()
        )
        print(f"  {rendered}", file=out)
    if limit and total > limit:
        print(f"  ... ({total - limit} more)", file=out)


def cmd_query(args, out) -> int:
    db = Database.from_ntriples(
        Path(args.data), profile=_execution_profile(args)
    )
    return _run_session_query(db, args, out)


def cmd_db(args, out) -> int:
    from repro.storage import SnapshotReader, write_snapshot

    if args.db_command == "build":
        from repro.graph.io import load_ntriples

        db = load_ntriples(Path(args.data))
        kwargs = {}
        if args.cold_threshold is not None:
            kwargs["cold_threshold"] = args.cold_threshold
        if args.shards is not None:
            kwargs["shards"] = args.shards
        report = write_snapshot(db, args.out, **kwargs)
        sharded = (
            f" across {report.n_shards} shards" if report.n_shards else ""
        )
        print(
            f"wrote {report.path} ({report.file_bytes} bytes{sharded}): "
            f"{report.n_triples} triples, {report.n_nodes} nodes, "
            f"{report.n_predicates} predicates; "
            f"{report.n_hot} hot / {report.n_cold} cold labels "
            f"in {report.elapsed:.3f}s",
            file=out,
        )
        return 0

    if args.db_command == "compact":
        from repro.graph.io import load_ntriples

        db = Database.edit(Path(args.snapshot))
        try:
            n_added = n_retracted = 0
            if args.add:
                n_added = db.add(load_ntriples(Path(args.add)).triples())
            if args.retract:
                n_retracted = db.retract(
                    load_ntriples(Path(args.retract)).triples()
                )
            kwargs = {}
            if args.cold_threshold is not None:
                kwargs["cold_threshold"] = args.cold_threshold
            report = db.compact(args.out, **kwargs)
        finally:
            db.close()
        print(
            f"applied +{n_added}/-{n_retracted} triples to "
            f"{args.snapshot}; wrote {report.path} "
            f"({report.file_bytes} bytes): {report.n_triples} triples, "
            f"{report.n_nodes} nodes, {report.n_predicates} predicates "
            f"in {report.elapsed:.3f}s",
            file=out,
        )
        return 0

    if args.db_command == "verify":
        import json as json_module

        with SnapshotReader(Path(args.snapshot)) as reader:
            report = reader.verify()
        if args.json_out:
            print(json_module.dumps(report.to_dict(), indent=2), file=out)
            return 0 if report.ok else 1
        bar = (
            "CRC32C" if report.checksummed
            else "structural only (v1 carries no checksums)"
        )
        print(
            f"{report.path}: format v{report.version}, "
            f"integrity bar {bar}",
            file=out,
        )
        for section in report.sections:
            detail = f" ({section.detail})" if section.detail else ""
            print(f"  {section.status:7s} {section.section}{detail}",
                  file=out)
        if report.ok:
            print(f"ok: all {len(report.sections)} sections verified",
                  file=out)
            return 0
        print(
            f"error: {report.n_corrupt} corrupt section(s): "
            + ", ".join(report.corrupt_sections()),
            file=sys.stderr,
        )
        return 1

    if args.db_command == "info":
        import json as json_module

        with SnapshotReader(Path(args.snapshot)) as reader:
            info = reader.info()
            if args.json_out:
                from repro.obs.metrics import registry

                payload = info.to_dict()
                payload["metrics"] = registry().snapshot()
                print(json_module.dumps(payload, indent=2), file=out)
                return 0
            from repro.bench import render_table

            print(
                f"{info.path}: {info.file_bytes} bytes, "
                f"{info.n_triples} triples, {info.n_nodes} nodes, "
                f"{info.n_predicates} predicates "
                f"({info.n_hot} hot / {info.n_cold} cold)",
                file=out,
            )
            checksums = (
                "per-section CRC32C" if info.checksummed
                else "none (pre-checksum format; `db verify` falls "
                     "back to structural checks)"
            )
            layout = (
                f", {info.n_shards} payload shards" if info.n_shards else ""
            )
            print(
                f"format: v{info.version}, checksums: {checksums}{layout}",
                file=out,
            )
            if info.labels:
                # Budget-sizing guidance for `db query --budget` /
                # ExecutionProfile(residency_budget=...): what full
                # promotion would pin resident, and the largest single
                # label (a budget below it still works — the LRU pass
                # demotes down to zero resident at query boundaries —
                # but every query re-materializes that label).
                full = sum(i.resident_bytes for i in info.labels)
                largest = max(info.labels, key=lambda i: i.resident_bytes)
                print(
                    f"residency budget guide: ~{full} B fully "
                    f"promoted; largest label {largest.label!r} "
                    f"~{largest.resident_bytes} B",
                    file=out,
                )
            print(
                render_table(
                    ["Label", "Tier", "Edges", "Disk", "Dense", "Ratio"],
                    (
                        [
                            i.label,
                            "cold" if i.encoding == "gap" else "hot",
                            str(i.n_edges),
                            str(i.payload_bytes),
                            str(i.dense_bytes),
                            (
                                f"{i.payload_bytes / i.dense_bytes:.2f}"
                                if i.dense_bytes else "1.00"
                            ),
                        ]
                        for i in info.labels
                    ),
                ),
                file=out,
            )
        return 0

    # db query: the cached open means repeated invocations in one
    # process share the mmap, the tiered view, and the join-engine
    # store instead of rebuilding everything per query.
    db = Database.open(
        Path(args.snapshot), profile=_execution_profile(args)
    )
    code = _run_session_query(db, args, out)
    residency = db.stats().residency
    budget = (
        f", budget {residency.residency_budget} B"
        if residency.residency_budget is not None else ""
    )
    print(
        f"residency: {residency.hot_labels} hot, "
        f"{residency.cold_labels} cold, "
        f"{residency.promotions} promoted, "
        f"{residency.demotions} demoted "
        f"({residency.resident_bytes} B resident vs "
        f"{residency.on_disk_bytes} B on disk{budget})",
        file=out,
    )
    return code


def cmd_simulate(args, out) -> int:
    db = Database.from_ntriples(
        Path(args.data),
        profile=ExecutionProfile(kernel=args.kernel),
    )
    outcome = db.simulate(_read_query(args.query))
    for branch in outcome.branches:
        if len(outcome.branches) > 1:
            print(f"-- union branch {branch.index} --", file=out)
        print("system of inequalities:", file=out)
        for line in branch.soi.splitlines():
            print(f"  {line}", file=out)
        print(
            f"fixpoint: {branch.report.rounds} rounds, "
            f"{branch.report.evaluations} evaluations, "
            f"{branch.report.elapsed:.4f}s",
            file=out,
        )
        for variable, names in branch.candidates.items():
            shown = list(names)
            if args.limit and len(shown) > args.limit:
                extra = f" ... ({len(shown) - args.limit} more)"
                shown = shown[: args.limit]
            else:
                extra = ""
            print(f"  ?{variable}: {shown}{extra}", file=out)
    return 0


def cmd_ask(args, out) -> int:
    db = Database.from_ntriples(
        Path(args.data), profile=_execution_profile(args)
    )
    answer = db.ask(_read_query(args.query))
    print("yes" if answer else "no", file=out)
    return 0


def cmd_explain(args, out) -> int:
    db = Database.from_ntriples(
        Path(args.data), profile=_execution_profile(args, default_mode="auto")
    )
    print(db.explain(_read_query(args.query)), file=out)
    return 0


def cmd_bench(args, out) -> int:
    if args.json_out is not None and args.table not in (
        "kernels", "storage", "updates"
    ):
        print(
            "error: --json only applies to "
            "`bench kernels`/`bench storage`/`bench updates`",
            file=sys.stderr,
        )
        return 2
    if args.table != "kernels" and (
        args.repeats is not None
        or args.compare_to is not None
        or args.workers is not None
    ):
        print(
            "error: --repeats/--compare/--workers only apply to "
            "`bench kernels`",
            file=sys.stderr,
        )
        return 2
    if (
        args.table == "kernels"
        and args.kernel is not None
        and args.compare_to is not None
    ):
        # A single-kernel run would report every baseline row of the
        # other kernels as dropped (exit 3 by design); comparing only
        # makes sense over the full matrix.
        print(
            "error: --kernel cannot be combined with --compare "
            "(the baseline covers every kernel)",
            file=sys.stderr,
        )
        return 2

    if args.table == "kernels":
        # `bench kernels` runs each kernel itself (restricted by
        # --kernel inside _run_bench_table); the process-wide switch
        # is for the other tables.
        return _run_bench_table(args, out)
    kernel_scope = (
        use_kernel(args.kernel) if args.kernel is not None
        else contextlib.nullcontext()
    )
    with kernel_scope:
        return _run_bench_table(args, out)


def _run_bench_table(args, out) -> int:
    from repro.bench import (
        render_engine_table,
        render_hypothesis,
        render_iterations,
        render_table2,
        render_table3,
        run_engine_table,
        run_hhk_hypothesis,
        run_iteration_study,
        run_table2,
        run_table3,
    )

    if args.table == "table2":
        print(render_table2(run_table2()), file=out)
    elif args.table == "table3":
        print(render_table3(run_table3()), file=out)
    elif args.table == "table4":
        print(render_engine_table(run_engine_table("rdfox-like"),
                                  "rdfox-like"), file=out)
    elif args.table == "table5":
        print(render_engine_table(run_engine_table("virtuoso-like"),
                                  "virtuoso-like"), file=out)
    elif args.table == "iterations":
        print(render_iterations(run_iteration_study()), file=out)
    elif args.table == "kernels":
        from repro.bench import (
            kernel_bench_summary,
            render_kernel_bench,
            run_kernel_bench,
            write_bench_json,
        )
        from repro.bench.runner import (
            DEFAULT_DBPEDIA_SCALE,
            DEFAULT_LUBM_UNIVERSITIES,
        )

        baseline = None
        if args.compare_to:
            # Load and sanity-check the baseline *before* the
            # multi-minute benchmark run, so a typo'd path or mangled
            # file fails in milliseconds, not after the bench.
            import json as json_module

            try:
                baseline = json_module.loads(
                    Path(args.compare_to).read_text()
                )
            except json_module.JSONDecodeError as error:
                print(
                    f"error: baseline {args.compare_to} is not valid "
                    f"JSON: {error}",
                    file=sys.stderr,
                )
                return 2
            if baseline.get("schema") != "repro-bench/v1":
                print(
                    "error: baseline schema "
                    f"{baseline.get('schema')!r} is not repro-bench/v1",
                    file=sys.stderr,
                )
                return 2

        rows = run_kernel_bench(
            repeats=3 if args.repeats is None else args.repeats,
            kernels=None if args.kernel is None else [args.kernel],
            workers=args.workers,
        )
        print(render_kernel_bench(rows), file=out)
        scaled = [
            row.t_solve / row.t_workers
            for row in rows
            if row.t_workers is not None and row.t_workers > 0
        ]
        scaled_b = [
            row.t_solve / row.t_workers
            for row in rows
            if row.t_workers is not None and row.t_workers > 0
            and row.dataset == "dbpedia"
        ]
        if scaled:
            def _geo(values):
                product = 1.0
                for value in values:
                    product *= value
                return product ** (1.0 / len(values))

            b_part = (
                f", {_geo(scaled_b):.2f}x on B-queries" if scaled_b else ""
            )
            print(
                f"parallel scaling at --workers {args.workers}: "
                f"geomean {_geo(scaled):.2f}x{b_part} "
                f"({len(scaled)} queries)",
                file=out,
            )
        summary = kernel_bench_summary(rows)
        kernels_run = summary["kernels"]
        if "packed" in kernels_run and "reference" in kernels_run:
            print(
                "geomean speedup (reference/packed) "
                f"{summary['geomean_speedup']:.2f}x, "
                f"{summary['n_speedup_ge_3x']}/{summary['n_queries']} "
                "queries >= 3x, fixpoints identical: "
                f"{summary['fixpoints_identical']}",
                file=out,
            )
        batched = summary.get("batched")
        if batched:
            def _x(value):
                return "n/a" if value is None else f"{value:.2f}x"

            print(
                "batched vs packed: geomean "
                f"{_x(batched['geomean_vs_packed'])} overall, "
                f"{_x(batched['geomean_vs_packed_b_queries'])} on "
                "B-queries, faster on "
                f"{batched['n_faster_than_packed']}/"
                f"{summary['n_queries']} "
                f"(vs reference "
                f"{_x(batched['geomean_vs_reference'])})",
                file=out,
            )
        if args.json_out:
            write_bench_json(
                args.json_out, rows,
                lubm_universities=DEFAULT_LUBM_UNIVERSITIES,
                dbpedia_scale=DEFAULT_DBPEDIA_SCALE,
            )
            print(f"wrote {args.json_out}", file=out)
        if baseline is not None:
            from repro.bench import (
                compare_with_baseline,
                kernel_aggregate_regressions,
                render_bench_compare,
            )

            comparisons, unmatched = compare_with_baseline(rows, baseline)
            print(f"baseline: {args.compare_to}", file=out)
            print(render_bench_compare(comparisons, unmatched), file=out)
            diverged = [c for c in comparisons if not c.fixpoint_equal]
            if diverged:
                # A changed fixpoint is a correctness break, strictly
                # worse than any slowdown — always gate on it.
                print(
                    "error: fixpoint mass diverged from baseline for "
                    + ", ".join(f"{c.query}/{c.kernel}" for c in diverged),
                    file=sys.stderr,
                )
                return EXIT_REGRESSION
            dropped = [u for u in unmatched if "(baseline only)" in u]
            if dropped:
                # A query the baseline measured but this run did not:
                # a rename/removal must not silently hide its numbers.
                print(
                    "error: baseline queries missing from this run: "
                    + ", ".join(dropped),
                    file=sys.stderr,
                )
                return EXIT_REGRESSION
            aggregate = kernel_aggregate_regressions(comparisons)
            if aggregate:
                # Sub-ms rows are not gated one by one (their minima
                # are noise-bound); a kernel whose *geomean* is still
                # over the bar after drift normalization slowed down
                # systematically, and that gates.
                print(
                    "error: kernel-wide slowdown vs baseline: "
                    + ", ".join(
                        f"{kernel} {g:.2f}x"
                        for kernel, g in aggregate.items()
                    ),
                    file=sys.stderr,
                )
                return EXIT_REGRESSION
            if any(c.is_regression() for c in comparisons):
                return EXIT_REGRESSION
    elif args.table == "updates":
        from repro.bench import (
            render_updates_bench,
            run_updates_bench,
            write_updates_bench_json,
        )

        result = run_updates_bench()
        print(render_updates_bench(result), file=out)
        if args.json_out:
            write_updates_bench_json(args.json_out, result)
            print(f"wrote {args.json_out}", file=out)
        if not result.answers_all_equal:
            print(
                "error: incremental answers differ from cold-solve "
                "answers",
                file=sys.stderr,
            )
            return 1
    elif args.table == "storage":
        from repro.bench import (
            render_storage_bench,
            run_storage_bench,
            write_storage_bench_json,
        )

        result = run_storage_bench()
        print(render_storage_bench(result), file=out)
        if args.json_out:
            write_storage_bench_json(args.json_out, result)
            print(f"wrote {args.json_out}", file=out)
        if not result.answers_all_equal:
            print(
                "error: snapshot answers differ from in-memory answers",
                file=sys.stderr,
            )
            return 1
        if not result.cold_open_lazy:
            # The query-ready open must not decode adjacency: a fill
            # or promotion at open is the full-edge-scan regression
            # the lazy join indexes exist to prevent.
            print(
                "error: cold open was not lazy "
                f"({result.cold_open_join_fills} join fills, "
                f"{result.cold_open_promotions} promotions before any "
                "query)",
                file=sys.stderr,
            )
            return 1
    else:
        print(render_hypothesis(run_hhk_hypothesis()), file=out)
    return 0


def cmd_serve(args, out) -> int:
    import signal

    from repro.serve import DEFAULT_MAX_BODY, DEFAULT_QUANTUM_MS
    from repro.serve.server import ReproServer, ServeConfig

    path = Path(args.data)
    profile = _execution_profile(args, default_mode="auto")
    if path.suffix == ".nt":
        db = Database.from_ntriples(path, profile=profile)
    else:
        db = Database.open(path, profile=profile)

    config = ServeConfig(
        host=args.host,
        port=args.port,
        quantum_ms=(
            DEFAULT_QUANTUM_MS if args.quantum is None else args.quantum
        ),
        deadline_ms=args.deadline,
        max_body_bytes=(
            DEFAULT_MAX_BODY if args.max_body is None else args.max_body
        ),
        trace_out=args.trace_out,
    )
    server = ReproServer(db, config)
    print(
        f"serving {path} at {server.url} "
        f"(quantum {config.quantum_ms:g} ms, kind {db.backend.kind}); "
        "SIGTERM or Ctrl-C drains and exits",
        file=out,
    )

    def _drain(signum, frame) -> None:
        # shutdown() must not run on the serve_forever thread — hand
        # the stop to a helper so the handler returns immediately.
        threading.Thread(
            target=server.stop, name="repro-serve-drain", daemon=True
        ).start()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _drain),
        signal.SIGINT: signal.signal(signal.SIGINT, _drain),
    }
    try:
        server.serve_forever()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.stop()
        db.close()
    print("drained: all in-flight requests finished", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "query": cmd_query,
        "simulate": cmd_simulate,
        "ask": cmd_ask,
        "explain": cmd_explain,
        "bench": cmd_bench,
        "db": cmd_db,
        "serve": cmd_serve,
    }
    try:
        return handlers[args.command](args, out)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except DeadlineExceededError as error:
        print(f"error: deadline exceeded: {error}", file=sys.stderr)
        return EXIT_DEADLINE
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
