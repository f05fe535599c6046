"""Per-query database pruning via dual simulation (paper Sect. 5).

After solving the SOI of a query, a database triple ``(o, a, o')`` is
*retained* iff some SOI edge ``(v, a, w)`` has ``o`` in the solution
row of ``v`` and ``o'`` in the row of ``w``.  Theorem 2 guarantees
that every triple participating in any SPARQL match is retained, so
evaluating the query on the pruned database loses nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, List, Set, Tuple

from repro.core.compiler import CompiledQuery
from repro.core.solver import SolverResult
from repro.graph.database import GraphDatabase
from repro.graph.graph import Graph
from repro.store.triple_store import TripleStore

IndexedTriple = Tuple[int, str, int]  # data-graph node indices + label


@dataclass
class PruneResult:
    """Triples retained by dual simulation pruning."""

    data: Graph
    triples: Set[IndexedTriple]
    n_triples_before: int
    elapsed: float

    @property
    def n_triples_after(self) -> int:
        return len(self.triples)

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the database disqualified (Table 3's >=95%)."""
        if self.n_triples_before == 0:
            return 0.0
        return 1.0 - self.n_triples_after / self.n_triples_before

    def name_triples(self) -> List[Tuple]:
        data = self.data
        return [
            (data.node_name(s), label, data.node_name(o))
            for s, label, o in self.triples
        ]

    def to_graph_database(self) -> GraphDatabase:
        db = GraphDatabase()
        for s, p, o in self.name_triples():
            db.add_triple(s, p, o)
        return db

    def to_store(self) -> TripleStore:
        return TripleStore.from_triples(self.name_triples())


def retained_triples(result: SolverResult) -> Set[IndexedTriple]:
    """Triples kept by one solved SOI (one union-free branch).

    Per SOI edge: one gather of the adjacency ranges of the smaller
    endpoint row plus one bit test against the other row.
    """
    soi = result.soi
    matrices = result.data.matrices()
    kept: Set[IndexedTriple] = set()
    for edge in soi.edges:
        pair = matrices.get(edge.label)
        if pair is None:
            continue
        source_row = result.row(edge.source)
        target_row = result.row(edge.target)
        if source_row.is_empty() or target_row.is_empty():
            continue
        # Gather from whichever side is smaller.
        if source_row.count() <= target_row.count():
            sources, targets = pair.forward.edges_between(
                source_row, target_row
            )
        else:
            targets, sources = pair.backward.edges_between(
                target_row, source_row
            )
        kept.update(
            zip(sources.tolist(), repeat(edge.label), targets.tolist())
        )
    return kept


def prune(
    data: Graph, results: SolverResult | Iterable[SolverResult]
) -> PruneResult:
    """Prune ``data`` by one or more solved SOIs (several for UNION
    queries — the union of the branch prunings, Prop. 3)."""
    start = time.perf_counter()
    if isinstance(results, SolverResult):
        results = [results]
    kept: Set[IndexedTriple] = set()
    for result in results:
        if result.data is not data:
            raise ValueError("solver result belongs to a different data graph")
        kept |= retained_triples(result)
    elapsed = time.perf_counter() - start
    return PruneResult(
        data=data,
        triples=kept,
        n_triples_before=data.n_edges,
        elapsed=elapsed,
    )


def required_triples_of_compiled(
    compiled: CompiledQuery, result: SolverResult
) -> Set[IndexedTriple]:
    """Alias of :func:`retained_triples` scoped to one compiled query
    (kept for API symmetry with the pipeline)."""
    del compiled
    return retained_triples(result)
