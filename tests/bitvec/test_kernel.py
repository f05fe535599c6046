"""Unit tests for the kernel switch, the CSR layout, and the batched
flush."""

import numpy as np
import pytest

from repro.bitvec import (
    Bitset,
    KERNELS,
    LabelMatrixPair,
    active_kernel,
    set_kernel,
    use_kernel,
)
from repro.bitvec.gap import GapEncodedMatrix
from repro.graph import Graph


@pytest.fixture
def pair():
    p = LabelMatrixPair(6)
    p.add_edge(0, 1)
    p.add_edge(0, 2)
    p.add_edge(3, 2)
    p.add_edge(5, 0)
    return p


class TestKernelSwitch:
    def test_default_is_packed(self):
        assert active_kernel() == "packed"

    def test_set_and_restore(self):
        previous = set_kernel("reference")
        assert active_kernel() == "reference"
        set_kernel(previous)
        assert active_kernel() == previous

    def test_use_kernel_restores_on_exit(self):
        before = active_kernel()
        with use_kernel("reference"):
            assert active_kernel() == "reference"
        assert active_kernel() == before

    def test_use_kernel_restores_on_error(self):
        before = active_kernel()
        with pytest.raises(RuntimeError):
            with use_kernel("reference"):
                raise RuntimeError("boom")
        assert active_kernel() == before

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            set_kernel("quantum")

    def test_kernels_constant(self):
        assert set(KERNELS) == {"packed", "batched", "reference"}


class TestPackedLayout:
    """The CSR layout every kernel (``packed`` included) runs on."""

    def test_build_is_cached_on_graph(self):
        g = Graph()
        g.add_edge("x", "l", "y")
        assert g.matrices() is g.matrices()

    def test_csr_array_shapes(self, pair):
        forward = pair.forward
        assert forward._indptr.shape == (7,)  # n + 1 offsets
        assert forward._indices.shape == (4,)  # one id per edge
        assert forward._indices.dtype == np.int32
        assert forward.nbytes == 7 * 8 + 4 * 4

    def test_row_index_maps_nodes_to_rows(self, pair):
        # indptr is the CSR row index: node -> its range of column ids.
        expected = {0: [1, 2], 3: [2], 5: [0]}
        for node in range(6):
            assert pair.forward.neighbours(node).tolist() == expected.get(
                node, []
            )
        assert pair.backward.neighbours(2).tolist() == [0, 3]

    def test_rows_are_views_into_block(self, pair):
        view = pair.forward.neighbours(0)
        assert view.base is pair.forward._indices
        assert not view.flags.writeable

    def test_add_after_build_updates_csr(self, pair):
        with use_kernel("reference"):
            pair.forward.product_rowwise(Bitset.ones(6))  # row dict built
        pair.forward.add(1, 4)
        pair.forward.add(1, 4)  # repeats collapse
        assert pair.forward.has_edge(1, 4)
        assert pair.forward.n_edges == 5
        assert 1 in pair.forward.summary
        assert pair.forward.neighbours(1).tolist() == [4]
        with use_kernel("reference"):
            assert 4 in pair.forward.product_rowwise(
                Bitset.from_indices(6, [1])
            )

    def test_graph_matrices_are_packed(self):
        g = Graph()
        for i in range(100):
            g.add_edge(i, "l", (i + 1) % 100)
        pair = g.matrices()["l"]
        # O(n + |E|) bytes, not O(n^2 / 8) dense rows.
        assert pair.nbytes == 2 * (101 * 8 + 100 * 4)

    def test_summary_falls_out_of_build(self, pair):
        assert (
            set(pair.forward.row_nodes().tolist())
            == pair.forward.summary.to_set()
        )

    def test_reference_rows_built_only_on_reference_products(self, pair):
        vec = Bitset.from_indices(6, [0, 3])
        pair.product(vec, "forward")
        assert pair.forward._rows is None
        with use_kernel("reference"):
            pair.product(vec, "forward")
        assert pair.forward._rows is not None


class TestDeferredProducts:
    """A product the parallel batched solver defers (gathered ids, or
    gathered dual neighbours tagged with their candidates) computes to
    the per-matrix product."""

    def test_deferred_products_match_matrix_products(self, pair):
        from repro.core.batched import product_words

        source = Bitset.from_indices(6, [0, 3])
        row_ids = pair.forward.gather(source.iter_ones())
        assert np.array_equal(
            product_words(6, row_ids),
            pair.forward.product_rowwise(source).words,
        )
        owners, ids = pair.backward.gather_pairs(np.arange(6))
        assert np.array_equal(
            product_words(6, ids, owners, source.words),
            pair.product(
                source, "forward", Bitset.ones(6), strategy="column"
            ).words,
        )

    def test_random_deferred_products_match_matrix_products(self):
        from repro.core.batched import product_words

        rng = np.random.default_rng(3)
        n = 130  # three words, the last one partial
        for _ in range(30):
            p = LabelMatrixPair.from_edges(
                n, rng.integers(0, n, 40), rng.integers(0, n, 40)
            )
            source = Bitset.from_indices(
                n, rng.choice(n, 9, replace=False)
            )
            row_ids = p.forward.gather(source.iter_ones())
            assert np.array_equal(
                product_words(n, row_ids),
                p.product(source, "forward", strategy="row").words,
            )
            owners, ids = p.backward.gather_pairs(np.arange(n))
            assert np.array_equal(
                product_words(n, ids, owners, source.words),
                p.product(
                    source, "forward", Bitset.ones(n), strategy="column"
                ).words,
            )


class TestGapImportPath:
    def test_roundtrip_to_packed_adjacency(self, pair):
        encoded = GapEncodedMatrix.from_adjacency(pair.forward)
        decoded = encoded.to_adjacency()
        assert decoded.n_edges == pair.forward.n_edges
        assert decoded.summary == pair.forward.summary
        for node in range(6):
            assert decoded.row(node) == pair.forward.row(node)

    def test_products_agree_after_import(self, pair):
        restored = GapEncodedMatrix.from_adjacency(pair.forward).to_adjacency()
        vec = Bitset.from_indices(6, [0, 3])
        assert restored.product_rowwise(vec) == pair.forward.product_rowwise(
            vec
        )
