"""The CSR adjacency is visible: build span, backend stats, residency."""

from repro.api import Database
from repro.graph import example_movie_database
from repro.obs.trace import Tracer, activate
from repro.storage import TieredGraphView, write_snapshot

QUERY = (
    "SELECT * WHERE { ?director directed ?movie . "
    "?director worked_with ?coworker . }"
)


def _csr_bytes(matrices):
    return sum(pair.nbytes for pair in matrices.values())


class TestMatrixBuildSpan:
    def test_cold_build_is_a_child_of_prepare(self):
        db = example_movie_database()
        session = Database.in_memory(db)
        result = session.query(QUERY, mode="pruned", trace=True)
        prepare, = result.trace.find("prepare")
        build, = result.trace.find("matrix_build")
        assert build.parent_id == prepare.span_id
        assert build.attributes["labels"] == len(db.labels)
        assert build.attributes["edges"] == db.n_edges
        assert build.attributes["bytes"] == _csr_bytes(db.matrices())

    def test_later_queries_build_nothing(self):
        session = Database.in_memory(example_movie_database())
        session.query(QUERY, mode="full")
        warm = session.query(QUERY, mode="pruned", trace=True)
        assert not warm.trace.find("matrix_build")


class TestAdjacencyBytes:
    def test_in_memory_stats_report_csr_bytes(self):
        db = example_movie_database()
        session = Database.in_memory(db)
        assert session.backend.stats()["adjacency_bytes"] == 0  # unbuilt
        session.query(QUERY, mode="pruned")  # the pipeline builds them
        assert session.backend.stats()["adjacency_bytes"] == _csr_bytes(
            db.matrices()
        )

    def test_tiered_residency_counts_csr_bytes(self, tmp_path):
        path = tmp_path / "movies.snap"
        write_snapshot(example_movie_database(), path, cold_threshold=1e9)
        view = TieredGraphView(path)
        tracer = Tracer()
        try:
            with activate(tracer):
                pair = view.promote("directed")
            promotion, = tracer.find("promotion")
            assert promotion.attributes["bytes"] == pair.nbytes
            assert view.resident_bytes() == pair.nbytes
            assert pair.nbytes == (
                pair.forward.nbytes + pair.backward.nbytes
            )
        finally:
            view.close()

    def test_snapshot_stats_count_csr_bytes(self, tmp_path):
        path = tmp_path / "movies.snap"
        write_snapshot(example_movie_database(), path)
        session = Database.open(path, cached=False)
        try:
            session.query(QUERY, mode="pruned")
            stats = session.backend.stats()
            view = session.backend.graph
            expected = sum(
                view.promote(label).nbytes for label in view.lru_labels()
            )
            assert stats["resident_bytes"] == expected > 0
            assert "adjacency_bytes" not in stats
        finally:
            session.close()
