"""Expected answers from the direct-semantics ``ReferenceEvaluator``.

Answers are compared in a canonical form: every row becomes
``repr(sorted(row.items()))``, the lines are sorted, and an answer is
its row count plus the SHA-256 of the joined lines.  The reference is
slow (minutes at LUBM(50)), so the expected answers are cached as JSON
under ``expected/``, one file per workload named by the digest of the
generated inputs.  A change to the generators changes the digest and
forces a rebuild instead of a silent mismatch.

Rebuild a cache file (for example after a generator change) with::

    python3 perfbench/oracle.py lubm-read
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

Answer = Dict[str, object]


def canonical_lines(rows: Iterable[Mapping[str, object]]) -> List[str]:
    return sorted(repr(tuple(sorted(row.items()))) for row in rows)


def answer_of(rows: Iterable[Mapping[str, object]]) -> Tuple[int, str]:
    lines = canonical_lines(rows)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return len(lines), digest


def reference_answers(triples, queries: Mapping[str, str]) -> Dict[str, Answer]:
    """Evaluate every query with the reference evaluator."""
    from repro.sparql.ast import is_well_designed
    from repro.sparql.parser import parse_query
    from repro.store.reference import ReferenceEvaluator
    from repro.store.triple_store import TripleStore

    store = TripleStore.from_triples(triples)
    evaluator = ReferenceEvaluator(store)
    decode = store.nodes.decode
    out: Dict[str, Answer] = {}
    for name, text in queries.items():
        query = parse_query(text)
        rows = [
            {var.name: decode(value) for var, value in mu.items()}
            for mu in evaluator.evaluate_query(query)
        ]
        count, digest = answer_of(rows)
        answer: Answer = {
            "rows": count,
            "sha256": digest,
            "well_designed": is_well_designed(query.pattern),
        }
        if not answer["well_designed"]:
            # Pruned answers may only be checked as supersets here
            # (Theorem 2), which needs the rows themselves.
            answer["lines"] = canonical_lines(rows)
        out[name] = answer
    return out


def _build(inputs, log) -> Dict[str, Dict[str, Answer]]:
    queries = inputs.spec.queries
    started = time.perf_counter()
    states = {"base": reference_answers(inputs.triples, queries)}
    for index, episode in enumerate(inputs.episodes):
        for stage, triples in enumerate(episode.states(inputs.triples), 1):
            states[state_key(index, stage)] = reference_answers(
                triples, queries
            )
        log(f"oracle: episode {index} done")
    log(
        f"oracle: {len(states)} states in "
        f"{time.perf_counter() - started:.1f} s"
    )
    return states


def state_key(episode: int, stage: int) -> str:
    """State after batch ``stage`` (1-3) of an episode; stage 0 and 4
    are the base graph."""
    if stage in (0, 4):
        return "base"
    return f"episode{episode}.{stage}"


def cache_path(inputs, directory: Optional[Path] = None) -> Path:
    directory = EXPECTED_DIR if directory is None else Path(directory)
    size = "tiny" if inputs.tiny else "full"
    return directory / f"{inputs.spec.name}-{size}-{inputs.digest[:16]}.json"


def expected_answers(
    inputs, directory: Optional[Path] = None, log=None
) -> Dict[str, Dict[str, Answer]]:
    """Cached expected answers per state, building them on a miss."""
    log = log or (lambda message: print(message, file=sys.stderr))
    path = cache_path(inputs, directory)
    if path.exists():
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("inputs_sha256") != inputs.digest:
            raise ValueError(f"{path} belongs to other inputs")
        return payload["states"]
    log(f"oracle: no cached answers at {path}; running the reference")
    states = _build(inputs, log)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(
            {
                "workload": inputs.spec.name,
                "inputs_sha256": inputs.digest,
                "states": states,
            },
            handle,
            indent=1,
            sort_keys=True,
        )
    tmp.replace(path)
    return states


def main(argv: List[str]) -> int:
    import argparse

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from inputs import WORKLOADS, make_inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--expected-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    inputs = make_inputs(args.workload, seed=0, tiny=args.tiny)
    expected_answers(inputs, args.expected_dir)
    print(cache_path(inputs, args.expected_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
