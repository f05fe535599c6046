"""Self-tests of the benchmark at the smallest scale.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  They check the output contract (every metric named in
BENCHMARK.json, with its unit, in the last line) and that the answer
oracle can fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The gated workloads plus dbpedia-snapshot, which stays runnable.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["dbpedia-snapshot"]


def bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def tiny(workload, trace, expected_dir, seed=1):
    return bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tiny", "--expected-dir", str(expected_dir),
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace, tmp_path):
    proc = tiny(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    text = proc.stdout
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert metric["name"] in text
    if not trace:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0
    run_line = next(
        line for line in text.splitlines() if line.startswith("run ")
    )
    info = json.loads(run_line[4:])
    for key in ("seed", "inputs_sha256", "snapshot_bytes", "nproc",
                "python", "numpy"):
        assert key in info


@pytest.mark.parametrize("workload", ["dbpedia-snapshot", "lubm-edit"])
def test_planted_wrong_answer_fails_the_run(workload, tmp_path):
    assert tiny(workload, 0, tmp_path).returncode == 0
    (cache,) = tmp_path.glob(f"{workload}-tiny-*.json")
    payload = json.loads(cache.read_text())
    answer = next(iter(payload["states"]["base"].values()))
    answer["sha256"] = "0" * 64
    cache.write_text(json.dumps(payload))
    proc = tiny(workload, 0, tmp_path)
    assert proc.returncode == 1
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "FAILED wrong answer" in proc.stdout
    run_line = next(l for l in proc.stdout.splitlines() if l.startswith("run "))
    assert json.loads(run_line[4:])["failed_frac"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
