"""End-to-end and per-layer benchmark of the dual-simulation query system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lubm-read --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` (see ``inputs.py``)
and handed to the program through its public API.  ``--trace 0`` runs
the closed loop with tracing off and reports the end-to-end metrics;
``--trace 1`` runs the decomposed, span-recording path of
``layers.py`` and reports the per-layer metrics.  Every answer is
checked against cached reference answers (``oracle.py``).  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every answer was right; a run that
cannot import the program exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for snapshots (inside the checkout, git-ignored).
WORK_DIR = ROOT / ".bench_work"
#: Where traced runs write their spans as JSONL (git-ignored).
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="run at the smallest scale (self-tests)",
    )
    parser.add_argument(
        "--expected-dir", type=Path, default=None,
        help="where the cached reference answers live",
    )
    return parser.parse_args(argv)


def load_program():
    """Import the program under test from the checkout's ``src``."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"repro resolved outside the checkout: {repro.__file__}")
    return repro, numpy


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        repro, numpy = load_program()
    except ImportError as exc:
        print(
            f"perfbench: cannot import the program under test from "
            f"{ROOT / 'src'}: {exc}",
            file=sys.stderr,
        )
        return 2
    import e2e
    import layers
    import oracle
    from inputs import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    inputs = make_inputs(args.workload, args.seed, tiny=args.tiny)
    checker = e2e.Checker(oracle.expected_answers(inputs, args.expected_dir))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            report = layers.run(inputs, checker, args.seconds, workdir, spans_path)
            metrics = report.metrics()
            extras = {"spans": str(spans_path.relative_to(ROOT))}
        else:
            record = e2e.run(inputs, checker, args.seconds, workdir)
            report = record
            metrics = record.metrics()
            extras = record.extras()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(checker.attempted, 1)
    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "triples": len(inputs.triples),
        "inputs_sha256": inputs.digest,
        "snapshot_bytes": report.snapshot_bytes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "failed_frac": checker.failed / attempted,
        **extras,
    }
    for failure in checker.failures[:20]:
        print(f"FAILED {failure}")
    print("run " + json.dumps(run_info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
