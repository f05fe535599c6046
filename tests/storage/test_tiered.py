"""TieredGraphView: lazy promotion, residency accounting, and the
solver-facing adjacency interface."""

import pytest

from repro.core import compile_query, solve
from repro.errors import GraphError
from repro.storage import SnapshotWriter, TieredGraphView, write_snapshot
from repro.workloads import generate_lubm


@pytest.fixture(scope="module")
def small_lubm():
    return generate_lubm(n_universities=1, seed=7, spiral_length=6)


@pytest.fixture
def lubm_view(small_lubm, tmp_path):
    path = tmp_path / "lubm.snap"
    write_snapshot(small_lubm, path)
    return TieredGraphView(path)


class TestInterface:
    def test_counts_and_names(self, small_lubm, lubm_view):
        assert lubm_view.n_nodes == small_lubm.n_nodes
        assert lubm_view.n_edges == small_lubm.n_edges
        assert lubm_view.n_triples == small_lubm.n_triples
        assert lubm_view.labels == small_lubm.labels
        for i in range(small_lubm.n_nodes):
            name = small_lubm.node_name(i)
            assert lubm_view.node_name(i) == name
            assert lubm_view.node_index(name) == i
            assert lubm_view.has_node(name)

    def test_unknown_node(self, lubm_view):
        assert not lubm_view.has_node("nope")
        with pytest.raises(GraphError):
            lubm_view.node_index("nope")

    def test_nodes_bitset(self, small_lubm, lubm_view):
        names = [small_lubm.node_name(i) for i in (0, 3, 5)]
        assert (
            lubm_view.nodes_bitset(names)
            == small_lubm.nodes_bitset(names)
        )

    def test_triples_match(self, small_lubm, lubm_view):
        assert set(lubm_view.triples()) == set(small_lubm.triples())

    def test_to_graph_database(self, small_lubm, lubm_view):
        materialized = lubm_view.to_graph_database()
        assert set(materialized.triples()) == set(small_lubm.triples())


class TestPromotion:
    def test_cold_until_touched(self, lubm_view):
        report = lubm_view.residency()
        assert report.promotions == 0
        assert report.cold_labels > 0

    def test_get_promotes_once(self, lubm_view):
        matrices = lubm_view.matrices()
        cold_label = next(
            lab for lab in lubm_view.labels
            if not lubm_view.is_resident(lab)
        )
        pair = matrices.get(cold_label)
        assert pair is not None
        assert lubm_view.is_resident(cold_label)
        assert lubm_view.promotions == 1
        assert matrices.get(cold_label) is pair  # cached, not re-decoded
        assert lubm_view.promotions == 1

    def test_mapping_iteration_does_not_promote(self, lubm_view):
        matrices = lubm_view.matrices()
        assert set(matrices.keys()) == lubm_view.labels
        assert len(matrices) == len(lubm_view.labels)
        for label in lubm_view.labels:
            assert label in matrices
        assert lubm_view.promotions == 0

    def test_get_unknown_label(self, lubm_view):
        assert lubm_view.matrices().get("no-such-label") is None
        with pytest.raises(KeyError):
            lubm_view.matrices()["no-such-label"]
        assert lubm_view.label_matrix("no-such-label") is None

    def test_promote_unknown_label(self, lubm_view):
        with pytest.raises(GraphError):
            lubm_view.promote("no-such-label")

    def test_promote_all(self, lubm_view):
        lubm_view.promote_all()
        report = lubm_view.residency()
        assert report.cold_labels == 0
        assert report.promotions == report.n_labels - report.hot_labels

    def test_promoted_matrices_equal_in_memory(self, small_lubm, lubm_view):
        for label, pair in small_lubm.matrices().items():
            loaded = lubm_view.matrices()[label]
            assert loaded.forward.summary == pair.forward.summary
            assert loaded.backward.summary == pair.backward.summary
            assert loaded.n_edges == pair.n_edges
            for node in pair.forward.row_nodes().tolist():
                assert loaded.forward.row(node) == pair.forward.row(node)
            for node in pair.backward.row_nodes().tolist():
                assert loaded.backward.row(node) == pair.backward.row(node)


class TestResidency:
    def test_promotion_grows_resident_bytes(self, lubm_view):
        before = lubm_view.residency().resident_bytes
        cold_label = next(
            lab for lab in lubm_view.labels
            if not lubm_view.is_resident(lab)
        )
        lubm_view.matrices().get(cold_label)
        after = lubm_view.residency().resident_bytes
        assert after > before

    def test_promoted_labels_recorded(self, lubm_view):
        lubm_view.matrices().get("advisor")
        report = lubm_view.residency()
        assert "advisor" in report.promoted_labels
        assert report.promotions == len(report.promoted_labels)

    def test_on_disk_bytes_is_file_size(self, lubm_view):
        report = lubm_view.residency()
        assert (
            report.on_disk_bytes
            == lubm_view.reader.path.stat().st_size
        )

    def test_hot_snapshot_is_resident_at_open(self, small_lubm, tmp_path):
        path = tmp_path / "hot.snap"
        SnapshotWriter(path, cold_threshold=0.0).write(small_lubm)
        view = TieredGraphView(path)
        report = view.residency()
        assert report.cold_labels == 0
        assert report.hot_labels == report.n_labels
        assert report.resident_bytes > 0


class TestSolverOnView:
    QUERY = """
        SELECT * WHERE {
            ?student advisor ?professor .
            ?professor teacherOf ?course .
            ?student takesCourse ?course .
        }
    """

    def test_solve_identical_hot_cold_and_memory(
        self, small_lubm, tmp_path
    ):
        hot_path = tmp_path / "hot.snap"
        cold_path = tmp_path / "cold.snap"
        SnapshotWriter(hot_path, cold_threshold=0.0).write(small_lubm)
        SnapshotWriter(cold_path, cold_threshold=1e9).write(small_lubm)
        hot = TieredGraphView(hot_path)
        cold = TieredGraphView(cold_path)
        for branch in compile_query(self.QUERY):
            expected = solve(branch.soi, small_lubm).to_relation()
            assert solve(branch.soi, hot).to_relation() == expected
            assert solve(branch.soi, cold).to_relation() == expected
        assert cold.promotions > 0

    def test_solver_promotes_only_query_labels(self, lubm_view):
        for branch in compile_query(self.QUERY):
            solve(branch.soi, lubm_view)
        promoted = set(lubm_view.residency().promoted_labels)
        assert promoted <= {"advisor", "teacherOf", "takesCourse"}
        untouched = lubm_view.labels - {"advisor", "teacherOf",
                                        "takesCourse"}
        assert all(not lubm_view.is_resident(lab) for lab in untouched
                   if lab not in promoted)
