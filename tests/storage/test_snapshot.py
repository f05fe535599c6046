"""Writer/reader round trips over the Fig. 1 movie database and
synthetic graphs that force both encodings."""

import pytest

from repro.errors import SnapshotError
from repro.graph.database import (
    GraphDatabase,
    Literal,
    example_movie_database,
)
from repro.storage import (
    SnapshotReader,
    SnapshotWriter,
    write_snapshot,
)
from repro.store import TripleStore


@pytest.fixture
def movie_snapshot(tmp_path):
    path = tmp_path / "movies.snap"
    write_snapshot(example_movie_database(), path)
    return path


class TestWriter:
    def test_write_is_deterministic(self, tmp_path):
        db = example_movie_database()
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        write_snapshot(db, a)
        write_snapshot(db, b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_counts(self, tmp_path):
        db = example_movie_database()
        report = write_snapshot(db, tmp_path / "m.snap")
        assert report.n_triples == db.n_triples
        assert report.n_nodes == db.n_nodes
        assert report.n_predicates == len(db.labels)
        assert report.n_hot + report.n_cold == len(db.labels)
        assert report.file_bytes == (tmp_path / "m.snap").stat().st_size

    def test_threshold_zero_forces_all_hot(self, tmp_path):
        db = example_movie_database()
        report = SnapshotWriter(
            tmp_path / "hot.snap", cold_threshold=0.0
        ).write(db)
        assert report.n_cold == 0

    def test_huge_threshold_forces_all_cold(self, tmp_path):
        db = example_movie_database()
        report = SnapshotWriter(
            tmp_path / "cold.snap", cold_threshold=1e9
        ).write(db)
        assert report.n_hot == 0

    def test_negative_threshold_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotWriter(tmp_path / "x.snap", cold_threshold=-1)

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.snap"
        write_snapshot(GraphDatabase(), path)
        with SnapshotReader(path) as reader:
            assert reader.n_nodes == 0
            assert reader.n_triples == 0
            assert list(reader.iter_triples()) == []

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        """A crash mid-write must not leave a file at the final path
        (the build-once cache gates regeneration on path.exists())."""
        import os

        path = tmp_path / "crash.snap"
        real_replace = os.replace

        def exploding_replace(src, dst):
            raise OSError("simulated crash before publish")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated"):
            write_snapshot(example_movie_database(), path)
        monkeypatch.setattr(os, "replace", real_replace)
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []  # staging cleaned up
        write_snapshot(example_movie_database(), path)
        assert path.exists()

    def test_overwrite_existing_snapshot(self, tmp_path):
        path = tmp_path / "twice.snap"
        write_snapshot(example_movie_database(), path)
        before = path.read_bytes()
        write_snapshot(example_movie_database(), path)
        assert path.read_bytes() == before


class TestReader:
    def test_header_counts(self, movie_snapshot):
        db = example_movie_database()
        with SnapshotReader(movie_snapshot) as reader:
            assert reader.n_nodes == db.n_nodes
            assert reader.n_triples == db.n_triples
            assert reader.n_predicates == len(db.labels)
            assert sorted(reader.labels()) == sorted(db.labels)

    def test_triples_roundtrip(self, movie_snapshot):
        db = example_movie_database()
        with SnapshotReader(movie_snapshot) as reader:
            assert set(reader.iter_triples()) == set(db.triples())

    def test_literals_survive(self, movie_snapshot):
        with SnapshotReader(movie_snapshot) as reader:
            literals = [
                o for _, p, o in reader.iter_triples()
                if p == "population"
            ]
        assert Literal(277140) in literals
        assert all(isinstance(o, Literal) for o in literals)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="not found"):
            SnapshotReader(tmp_path / "nope.snap")

    def test_garbage_file_raises(self, tmp_path):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"this is not a snapshot at all..")
        with pytest.raises(SnapshotError):
            SnapshotReader(bad)

    def test_truncated_file_raises(self, movie_snapshot, tmp_path):
        cut = tmp_path / "cut.snap"
        cut.write_bytes(movie_snapshot.read_bytes()[:100])
        with pytest.raises(SnapshotError):
            reader = SnapshotReader(cut)
            list(reader.iter_triples())

    def test_info_totals(self, movie_snapshot):
        with SnapshotReader(movie_snapshot) as reader:
            info = reader.info()
            assert info.n_triples == 20
            assert info.n_hot + info.n_cold == info.n_predicates
            assert {i.label for i in info.labels} == set(reader.labels())
            doc = info.to_dict()
            assert doc["n_triples"] == 20
            assert len(doc["labels"]) == info.n_predicates

    def test_dense_matrix_matches_in_memory(self, tmp_path):
        db = example_movie_database()
        path = tmp_path / "hot.snap"
        SnapshotWriter(path, cold_threshold=0.0).write(db)
        pair = db.matrices()["directed"]
        with SnapshotReader(path) as reader:
            loaded = reader.dense_matrix("directed", "forward")
            assert loaded.n_edges == pair.forward.n_edges
            assert loaded.summary == pair.forward.summary
            for node in range(db.n_nodes):
                assert loaded.row(node) == pair.forward.row(node)

    def test_gap_matrix_matches_in_memory(self, tmp_path):
        db = example_movie_database()
        path = tmp_path / "cold.snap"
        SnapshotWriter(path, cold_threshold=1e9).write(db)
        pair = db.matrices()["directed"]
        with SnapshotReader(path) as reader:
            loaded = reader.gap_matrix("directed", "backward")
            promoted = loaded.to_adjacency()
            assert promoted.n_edges == pair.backward.n_edges
            for node in range(db.n_nodes):
                assert promoted.row(node) == pair.backward.row(node)

    def test_corrupt_row_node_id_raises_snapshot_error(self, tmp_path):
        """Out-of-range node ids in a block must fail as SnapshotError,
        not index silently (negative wrap) or as a bare NumPy error.

        Uses a v1 snapshot so the structural range check is what fires;
        on v2 files the payload CRC intercepts the same corruption first
        (covered by test_corrupt_payload_fails_crc_on_v2).
        """
        import numpy as np

        from repro.storage.format import BLOCK_ENTRY, BlockEntry, Header

        db = example_movie_database()
        path = tmp_path / "hot.snap"
        SnapshotWriter(path, cold_threshold=0.0, version=1).write(db)
        blob = bytearray(path.read_bytes())
        header = Header.unpack(bytes(blob))
        entry = BlockEntry.unpack_from(bytes(blob), header.block_table_off)
        assert entry.n_rows > 0
        # overwrite the first row node id of the first block
        for bad_id in (-1, header.n_nodes):
            corrupted = bytearray(blob)
            corrupted[entry.payload_off:entry.payload_off + 8] = (
                np.int64(bad_id).tobytes()
            )
            bad_path = tmp_path / f"bad{bad_id}.snap"
            bad_path.write_bytes(bytes(corrupted))
            with SnapshotReader(bad_path) as reader:
                label = reader.predicate_terms()[entry.label_id]
                with pytest.raises(SnapshotError, match="out of range"):
                    reader.dense_matrix(label, "forward")
        assert BLOCK_ENTRY.size == 40  # layout assumption of the patch

    def test_corrupt_payload_fails_crc_on_v2(self, tmp_path):
        """On current-format files the payload checksum catches a
        flipped row node id before the structural decoder sees it."""
        import numpy as np

        from repro.errors import SnapshotCorruptError
        from repro.storage.format import BlockEntry, Header

        db = example_movie_database()
        path = tmp_path / "hot.snap"
        SnapshotWriter(path, cold_threshold=0.0).write(db)
        blob = bytearray(path.read_bytes())
        header = Header.unpack(bytes(blob))
        entry = BlockEntry.unpack_from(bytes(blob), header.block_table_off)
        blob[entry.payload_off:entry.payload_off + 8] = (
            np.int64(header.n_nodes).tobytes()
        )
        bad_path = tmp_path / "bad.snap"
        bad_path.write_bytes(bytes(blob))
        with SnapshotReader(bad_path) as reader:
            label = reader.predicate_terms()[entry.label_id]
            with pytest.raises(SnapshotCorruptError, match="CRC"):
                reader.dense_matrix(label, "forward")

    def test_wrong_encoding_accessor_raises(self, tmp_path):
        db = example_movie_database()
        path = tmp_path / "hot.snap"
        SnapshotWriter(path, cold_threshold=0.0).write(db)
        with SnapshotReader(path) as reader:
            with pytest.raises(SnapshotError, match="dense"):
                reader.gap_matrix("directed", "forward")


class TestConstructors:
    def test_graph_database_from_snapshot(self, movie_snapshot):
        db = example_movie_database()
        loaded = GraphDatabase.from_snapshot(movie_snapshot)
        assert set(loaded.triples()) == set(db.triples())
        assert loaded.n_literals == db.n_literals
        # node ids are adopted from the snapshot dictionary
        for i in range(db.n_nodes):
            assert loaded.node_name(i) == db.node_name(i)

    def test_triple_store_from_snapshot(self, movie_snapshot):
        db = example_movie_database()
        direct = TripleStore.from_graph_database(db)
        loaded = TripleStore.from_snapshot(movie_snapshot)
        assert loaded.n_triples == direct.n_triples
        assert set(loaded.triples()) == set(direct.triples())

    def test_triple_store_accepts_open_reader(self, movie_snapshot):
        with SnapshotReader(movie_snapshot) as reader:
            loaded = TripleStore.from_snapshot(reader)
        assert loaded.n_triples == 20

    def test_store_lookups_work_after_load(self, movie_snapshot):
        store = TripleStore.from_snapshot(movie_snapshot)
        assert store.contains("B. De Palma", "directed",
                              "Mission: Impossible")
        assert not store.contains("B. De Palma", "directed", "Goldfinger")
