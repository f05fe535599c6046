"""Unit tests for the parallel flush executors.

The property suite (tests/property/test_parallel_properties.py) owns
the bit-identity contract; this module covers the plumbing — executor
selection, serial fallbacks, pool lifecycle and reuse, fork-safety
resets, and the metrics the executors emit.
"""

import os

import pytest

from repro.core import SolverOptions, largest_dual_simulation
from repro.core.parallel import (
    ForkProductExecutor,
    ThreadFlushExecutor,
    executor_for,
    shutdown_pools,
)
from repro.bitvec.kernel import use_kernel
from repro.errors import ReproError
from repro.graph import random_database, random_pattern
from repro.obs.metrics import registry
from repro.storage import TieredGraphView, write_snapshot


def _string_database(n_nodes, n_edges, seed):
    """random_database with snapshot-serializable (string) node names."""
    import random

    from repro.graph.database import GraphDatabase

    rng = random.Random(seed)
    db = GraphDatabase()
    for i in range(n_nodes):
        db.add_node(f"n{i}")
    for _ in range(n_edges):
        db.add_triple(
            f"n{rng.randrange(n_nodes)}",
            rng.choice(("a", "b", "c")),
            f"n{rng.randrange(n_nodes)}",
        )
    return db


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    shutdown_pools()


class TestOptions:
    def test_defaults_are_serial(self):
        options = SolverOptions()
        assert options.workers == 1
        assert options.worker_mode == "threads"

    def test_validation(self):
        with pytest.raises(ReproError):
            SolverOptions(workers=0)
        with pytest.raises(ReproError):
            SolverOptions(workers=-2)
        with pytest.raises(ReproError):
            SolverOptions(worker_mode="processes")


class TestExecutorSelection:
    def test_serial_gets_no_executor(self):
        data = random_database(10, 20, seed=1)
        assert executor_for(SolverOptions(), data) is None
        assert executor_for(SolverOptions(workers=1), data) is None

    def test_threads_on_in_memory(self):
        data = random_database(10, 20, seed=1)
        executor = executor_for(SolverOptions(workers=3), data)
        assert isinstance(executor, ThreadFlushExecutor)
        assert executor.workers == 3
        assert executor.remote is False

    def test_fork_falls_back_to_threads_off_snapshot(self):
        data = random_database(10, 20, seed=1)
        executor = executor_for(
            SolverOptions(workers=2, worker_mode="fork"), data
        )
        assert isinstance(executor, ThreadFlushExecutor)

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="needs fork()"
    )
    def test_fork_on_snapshot_view(self, tmp_path):
        db = _string_database(20, 60, seed=2)
        path = tmp_path / "g.snap"
        write_snapshot(db, path, shards=3)
        view = TieredGraphView(path)
        try:
            executor = executor_for(
                SolverOptions(workers=2, worker_mode="fork"), view
            )
            assert isinstance(executor, ForkProductExecutor)
            assert executor.remote is True
            assert executor.path == str(path)
            assert executor.n_shards == 3
        finally:
            view.close()


class _FakeBatch:
    """Just enough of _Batch for ThreadFlushExecutor.compute()."""

    def __init__(self):
        self.row_targets = []
        self.row_ids = []
        self.col_targets = []
        self.col_owners = []
        self.col_ids = []
        self.col_vectors = []
        self.n = 64


class TestThreadFallbacks:
    def test_single_job_stays_serial(self):
        import numpy as np

        batch = _FakeBatch()
        batch.row_targets.append(0)
        batch.row_ids.append(np.arange(10_000))
        executor = ThreadFlushExecutor(4, min_rows=0)
        assert executor.compute(batch) is None  # jobs < 2

    def test_below_floor_stays_serial(self):
        import numpy as np

        batch = _FakeBatch()
        for target in (0, 1):
            batch.row_targets.append(target)
            batch.row_ids.append(np.arange(3))
        executor = ThreadFlushExecutor(4)  # default 4096-id floor
        assert executor.compute(batch) is None


class TestPoolLifecycle:
    def test_thread_pool_reused_per_width(self):
        from repro.core.parallel import _thread_pool, _THREAD_POOLS

        pool = _thread_pool(2)
        assert _thread_pool(2) is pool
        assert _thread_pool(3) is not pool
        shutdown_pools()
        assert not _THREAD_POOLS

    def test_reset_in_child_drops_without_closing(self):
        from repro.core import parallel

        pool = parallel._thread_pool(2)
        parallel._reset_in_child()
        assert not parallel._THREAD_POOLS
        # The pool object itself must still be usable: it belongs to
        # the (simulated) parent and was dropped, not shut down.
        assert pool.submit(int, "7").result() == 7
        pool.shutdown(wait=True)

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="needs fork()"
    )
    def test_fork_pool_reused_and_survives_solves(self, tmp_path):
        from repro.core import parallel

        db = _string_database(30, 120, seed=3)
        path = tmp_path / "g.snap"
        write_snapshot(db, path, shards=2)
        view = TieredGraphView(path)
        options = SolverOptions(workers=2, worker_mode="fork")
        pattern = random_pattern(3, 4, seed=4)
        try:
            old_floor = parallel.MIN_PARALLEL_ROWS
            parallel.MIN_PARALLEL_ROWS = 0
            try:
                with use_kernel("batched"):
                    largest_dual_simulation(pattern, view, options)
                    pools = dict(parallel._FORK_POOLS)
                    largest_dual_simulation(pattern, view, options)
            finally:
                parallel.MIN_PARALLEL_ROWS = old_floor
            assert len(pools) == 1
            assert parallel._FORK_POOLS == pools  # reused, not respawned
            pool = next(iter(pools.values()))
            assert pool.alive()
        finally:
            view.close()


class TestMetrics:
    def test_thread_flushes_counted(self):
        from repro.core import parallel

        registry().reset()
        data = random_database(40, 160, seed=5)
        pattern = random_pattern(3, 5, seed=6)
        old_floor = parallel.MIN_PARALLEL_ROWS
        parallel.MIN_PARALLEL_ROWS = 0
        try:
            with use_kernel("batched"):
                largest_dual_simulation(
                    pattern, data, SolverOptions(workers=2)
                )
        finally:
            parallel.MIN_PARALLEL_ROWS = old_floor
        snapshot = registry().snapshot()
        assert snapshot.get("parallel_flushes_total", 0) > 0
        assert snapshot.get("parallel_tasks_total", 0) > 0
        assert "parallel_flush_ms" in snapshot
        registry().reset()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
class TestForkSafety:
    def test_child_starts_with_fresh_pool_registry(self):
        from repro.core import parallel

        parallel._thread_pool(2)
        pid = os.fork()
        if pid == 0:  # child
            try:
                ok = not parallel._THREAD_POOLS
                # and the fresh lock must be immediately acquirable
                ok = ok and parallel._POOLS_LOCK.acquire(timeout=1)
                os._exit(0 if ok else 1)
            except BaseException:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
        # parent registry untouched
        assert parallel._THREAD_POOLS
