"""The legacy entry points still work — and warn exactly once."""

import warnings

import pytest

from repro._deprecation import (
    deprecated_call,
    reset_deprecation_registry,
)
from repro.graph import GraphDatabase, example_movie_database
from repro.pipeline import PruningPipeline
from repro.storage import write_snapshot
from repro.store import TripleStore

X1 = ("SELECT * WHERE { ?director directed ?movie . "
      "?director worked_with ?coworker . }")


@pytest.fixture
def movie_snapshot(tmp_path):
    path = tmp_path / "movies.snap"
    write_snapshot(example_movie_database(), path)
    return path


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_deprecation_registry()
    yield
    reset_deprecation_registry()


def _count_deprecations(calls):
    """Run callables under an always-on filter; count our warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = [call() for call in calls]
    return (
        [w for w in caught if issubclass(w.category, DeprecationWarning)],
        results,
    )


class TestWarnOnceRegistry:
    def test_second_call_is_silent(self):
        caught, _ = _count_deprecations([
            lambda: deprecated_call("k", "gone"),
            lambda: deprecated_call("k", "gone"),
        ])
        assert len(caught) == 1

    def test_distinct_keys_warn_separately(self):
        caught, _ = _count_deprecations([
            lambda: deprecated_call("k1", "gone"),
            lambda: deprecated_call("k2", "gone"),
        ])
        assert len(caught) == 2


class TestSnapshotShims:
    def test_pipeline_from_snapshot_warns_once_and_works(
        self, movie_snapshot
    ):
        caught, (first, second) = _count_deprecations([
            lambda: PruningPipeline.from_snapshot(movie_snapshot),
            lambda: PruningPipeline.from_snapshot(movie_snapshot),
        ])
        assert len(caught) == 1
        assert "Database.open" in str(caught[0].message)
        assert len(first.evaluate_full(X1).as_set()) == 2
        assert len(second.evaluate_full(X1).as_set()) == 2

    def test_triple_store_from_snapshot_warns_once_and_works(
        self, movie_snapshot
    ):
        caught, (store, _) = _count_deprecations([
            lambda: TripleStore.from_snapshot(movie_snapshot),
            lambda: TripleStore.from_snapshot(movie_snapshot),
        ])
        assert len(caught) == 1
        assert store.n_triples == 20

    def test_graph_database_from_snapshot_warns_once_and_works(
        self, movie_snapshot
    ):
        caught, (db, _) = _count_deprecations([
            lambda: GraphDatabase.from_snapshot(movie_snapshot),
            lambda: GraphDatabase.from_snapshot(movie_snapshot),
        ])
        assert len(caught) == 1
        assert db.n_triples == 20

    def test_internal_reader_path_does_not_warn(self, movie_snapshot):
        caught, (store,) = _count_deprecations([
            lambda: TripleStore._from_snapshot_reader(movie_snapshot),
        ])
        assert not caught
        assert store.n_triples == 20


class TestPipelineStoreKwarg:
    def test_store_kwarg_warns_once_and_works(self):
        db = example_movie_database()
        store = TripleStore.from_graph_database(db)
        caught, (pipeline, _) = _count_deprecations([
            lambda: PruningPipeline(db, store=store),
            lambda: PruningPipeline(db, store=store),
        ])
        assert len(caught) == 1
        assert pipeline.store is store
        assert len(pipeline.evaluate_full(X1).as_set()) == 2

    def test_plain_construction_is_not_deprecated(self):
        caught, _ = _count_deprecations([
            lambda: PruningPipeline(example_movie_database()),
        ])
        assert not caught


class TestSessionMutationShim:
    """Mutating a GraphDatabase behind an attached session's back is
    the pre-write-API idiom: it still works (the graph accepts the
    edge) but warns once, pointing at Database.add/retract."""

    def test_attached_database_warns_once(self):
        from repro import Database

        db = example_movie_database()
        session = Database.in_memory(db)
        caught, _ = _count_deprecations([
            lambda: db.add_triple("a", "p", "b"),
            lambda: db.add_triple("a", "p", "c"),
        ])
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "Database.add" in message
        assert "Database.writable" in message
        del session

    def test_standalone_database_is_silent(self):
        db = example_movie_database()
        caught, _ = _count_deprecations([
            lambda: db.add_triple("a", "p", "b"),
        ])
        assert caught == []

    def test_write_api_is_silent(self):
        from repro import Database

        session = Database.writable(example_movie_database())
        caught, _ = _count_deprecations([
            lambda: session.add([("a", "p", "b")]),
            lambda: session.retract([("a", "p", "b")]),
        ])
        assert caught == []
