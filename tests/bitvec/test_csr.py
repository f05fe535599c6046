"""CSR edge cases: products and extract against the reference loops.

Random graphs are drawn so that the CSR arrays hit their corner cases:
trailing isolated nodes (``indptr`` runs past the last edge), widths
that are not a multiple of 64, a label absent from the data, hub rows,
all-ones source vectors, and sources that saturate a label's summary
(the shortcut that answers with the dual summary).
"""

import numpy as np
import pytest

from repro.bitvec import (
    Bitset,
    LabelMatrixPair,
    build_label_matrices,
    use_kernel,
)
from repro.core import solve
from repro.core.pruning import retained_triples
from repro.core.soi import SystemOfInequalities
from repro.graph import Graph

DIRECTIONS = ("forward", "backward")
STRATEGIES = ("row", "column", "auto")


def _random_edges(rng, n, n_edges, labels=("a", "b")):
    """Edges over the first ``n - 7`` nodes (the last seven stay
    isolated), plus one hub row per label."""
    live = max(n - 7, 1)
    edges = [
        (int(rng.integers(live)), labels[int(rng.integers(len(labels)))],
         int(rng.integers(live)))
        for _ in range(n_edges)
    ]
    for label in labels:
        hub = int(rng.integers(live))
        edges.extend((hub, label, j) for j in range(0, live, 2))
    return edges


def _vectors(rng, n, pair):
    yield Bitset.zeros(n)
    yield Bitset.ones(n)
    yield pair.forward.summary.copy()  # saturates the forward summary
    yield pair.backward.summary | Bitset.singleton(n, n - 1)
    for size in (1, 3, n // 2):
        yield Bitset.from_indices(n, rng.choice(n, size, replace=False))


@pytest.mark.parametrize("n", [8, 64, 70, 127, 129, 200])
def test_products_equal_reference(n):
    rng = np.random.default_rng(n)
    matrices = build_label_matrices(n, _random_edges(rng, n, 3 * n))
    for pair in matrices.values():
        # The last seven nodes are isolated: indptr runs past them.
        assert pair.forward.neighbours(n - 1).size == 0
        vectors = list(_vectors(rng, n, pair))
        masks = [None] + vectors
        for vec in vectors:
            for mask in masks:
                for direction in DIRECTIONS:
                    for strategy in STRATEGIES:
                        if strategy == "column" and mask is None:
                            continue
                        with use_kernel("reference"):
                            want = pair.product(
                                vec, direction, mask, strategy
                            )
                        for kernel in ("packed", "batched"):
                            with use_kernel(kernel):
                                got = pair.product(
                                    vec, direction, mask, strategy
                                )
                            assert got == want
                            assert got.count() == want.count()


def test_saturated_source_answers_with_dual_summary():
    rng = np.random.default_rng(5)
    n = 90
    pair = build_label_matrices(n, _random_edges(rng, n, 200, ("a",)))["a"]
    source = Bitset.ones(n)
    out = pair.product(source, "forward")
    assert out == pair.backward.summary
    assert out is not pair.backward.summary  # a fresh, mutable result
    out.clear()
    assert not pair.backward.summary.is_empty()


def test_empty_pair_products_are_zero():
    pair = LabelMatrixPair(70)
    for vec in (Bitset.ones(70), Bitset.from_indices(70, [3])):
        for direction in DIRECTIONS:
            assert pair.product(vec, direction).is_empty()
            assert pair.product(
                vec, direction, Bitset.ones(70), "column"
            ).is_empty()


def test_from_edges_collapses_repeats_and_sorts_rows():
    pair = LabelMatrixPair.from_edges(
        70, np.array([5, 5, 1, 5, 69]), np.array([9, 2, 3, 9, 0])
    )
    assert pair.n_edges == 4
    assert pair.forward.neighbours(5).tolist() == [2, 9]
    assert pair.backward.neighbours(9).tolist() == [5]
    assert pair.forward.summary.to_set() == {1, 5, 69}


def _reference_retained(result):
    """The seed extract: per source row, AND the adjacency row into
    the target row."""
    matrices = result.data.matrices()
    kept = set()
    for edge in result.soi.edges:
        pair = matrices.get(edge.label)
        if pair is None:
            continue
        target_row = result.row(edge.target)
        for i in result.row(edge.source).iter_ones().tolist():
            row = pair.forward.row(i)
            if row is not None:
                for j in (row & target_row).iter_ones().tolist():
                    kept.add((i, edge.label, j))
    return kept


@pytest.mark.parametrize("seed", range(6))
def test_extract_equals_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 140))
    data = Graph()
    for i in range(n):
        data.add_node(i)  # isolated nodes at the tail too
    for s, label, d in _random_edges(rng, n, 2 * n):
        data.add_edge(s, label, d)
    pattern = Graph()
    pattern.add_edge("x", "a", "y")
    pattern.add_edge("y", "b", "z")
    pattern.add_edge("z", "a", "x")
    if seed % 2:
        pattern.add_edge("x", "absent", "w")  # label missing from data
    soi = SystemOfInequalities.from_pattern_graph(pattern)
    for kernel in ("packed", "batched", "reference"):
        with use_kernel(kernel):
            result = solve(soi, data)
            assert retained_triples(result) == _reference_retained(result)
