"""Parallel evaluation of the batched engine's hazard-free runs.

The batched engine (:mod:`repro.core.batched`) already isolates the
independent work of a solver round: between hazard flushes, every
deferred product writes a distinct target and reads only values frozen
at defer time.  That makes a flush embarrassingly parallel — the
products of one batch can be computed in any order, on any worker, and
the results are bit-identical as long as the *apply* pass (the
AND-shrink into the candidate rows, which carries the work counters)
stays serial.  This module provides the two worker models behind
``ExecutionProfile.workers``:

* :class:`ThreadFlushExecutor` (``worker_mode="threads"``, the
  default) — splits a flush's row/column products into contiguous
  chunks and computes them on a persistent thread pool.  NumPy
  releases the GIL inside the bit-test and scatter kernels, so the
  chunks genuinely overlap on multi-core hosts.  Flushes below
  :data:`MIN_PARALLEL_ROWS` gathered ids are computed one by one in
  the solving thread, which is faster than any dispatch.
* :class:`ForkProductExecutor` (``worker_mode="fork"``) — the
  scale-out mode: a pool of forked worker processes, each holding its
  *own* :class:`~repro.storage.tiered.TieredGraphView` over the
  snapshot.  Labels map to workers by the same stable hash that
  assigns them to snapshot shards (:func:`shard_of_label`), so on a
  sharded snapshot each worker faults in a disjoint subset of the
  shard files.  The engine defers whole products — ``(label,
  direction, strategy, source bits, target bits)`` — and the worker
  answers with the product words; deltas merge at the flush barrier in
  the parent, exactly where the serial engine applies them.

Both executors leave the evaluation *trajectory* untouched: hazard
analysis, flush boundaries, and the serial apply pass are unchanged,
so answers, fixpoint, and work counters match the serial run bit for
bit (the property suite in ``tests/property/test_parallel_properties``
asserts it across kernels × worker counts × backends).

Fork safety: pools must never leak across ``fork()`` — a child that
inherited pipe ends would race the parent for worker responses.  An
``os.register_at_fork`` handler drops the child's pool registry (without
closing: the pipes still belong to the parent) and reinitializes the
registry lock.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bitvec.bitset import Bitset, _word_count
from repro.core.batched import product_words
from repro.obs.metrics import registry
from repro.storage.format import shard_of_label

#: Below this many gathered ids per flush, serial compute wins — the
#: thread executor hands the batch back to the serial path.  Tests
#: lower it to force the parallel path on tiny graphs.
MIN_PARALLEL_ROWS = 4096

WORKER_MODES = ("threads", "fork")


# -- thread mode -------------------------------------------------------------


#: Shared thread pools, keyed by worker count.  Threads are cheap but
#: not free; solver calls reuse one pool per width for the process
#: lifetime.
_THREAD_POOLS: Dict[int, ThreadPoolExecutor] = {}
_FORK_POOLS: Dict[Tuple[str, int], "_ForkPool"] = {}
_POOLS_LOCK = threading.Lock()


def _thread_pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _THREAD_POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix=f"repro-flush-{workers}",
            )
            _THREAD_POOLS[workers] = pool
        return pool


class ThreadFlushExecutor:
    """Chunk a flush's product segments across a thread pool.

    ``remote`` is False: the engine gathers the CSR neighbour ids
    exactly as in serial mode; only the compute of a flush is farmed
    out.
    """

    remote = False

    def __init__(self, workers: int, min_rows: Optional[int] = None):
        self.workers = workers
        self.min_rows = min_rows

    def compute(self, batch) -> Optional[List[Tuple[int, np.ndarray]]]:
        """Compute every pending product of ``batch``.

        Returns ``(target, result words)`` pairs in the serial compute
        order (rows, then columns), or None when the batch is too
        small to be worth the dispatch — the caller then runs the
        serial path.
        """
        jobs = len(batch.row_targets) + len(batch.col_targets)
        if jobs < 2:
            return None
        floor = (
            self.min_rows if self.min_rows is not None else MIN_PARALLEL_ROWS
        )
        total = sum(ids.size for ids in batch.row_ids)
        total += sum(ids.size for ids in batch.col_ids)
        if total < floor:
            return None

        n = batch.n
        work: List[tuple] = [
            (target, ids, None, None)
            for target, ids in zip(batch.row_targets, batch.row_ids)
        ]
        work.extend(zip(
            batch.col_targets, batch.col_ids, batch.col_owners,
            batch.col_vectors,
        ))

        def run_chunk(chunk: List[tuple]) -> List[Tuple[int, np.ndarray]]:
            return [
                (target, product_words(n, ids, owners, vector))
                for target, ids, owners, vector in chunk
            ]

        width = min(self.workers, len(work))
        bounds = np.linspace(0, len(work), width + 1).astype(int)
        chunks = [
            work[bounds[i]:bounds[i + 1]]
            for i in range(width)
            if bounds[i] < bounds[i + 1]
        ]
        started = time.perf_counter()
        if len(chunks) == 1:
            outputs = [run_chunk(chunks[0])]
        else:
            pool = _thread_pool(self.workers)
            outputs = list(pool.map(run_chunk, chunks))
        metrics = registry()
        metrics.counter("parallel_flushes_total").inc()
        metrics.counter("parallel_tasks_total").inc(len(work))
        metrics.histogram("parallel_flush_ms").record(
            (time.perf_counter() - started) * 1000.0
        )
        results: List[Tuple[int, np.ndarray]] = []
        for out in outputs:
            results.extend(out)
        return results

    def shutdown(self) -> None:
        """No-op: the underlying pool is shared (see shutdown_pools)."""


# -- fork mode ---------------------------------------------------------------


def _fork_worker_main(conn, path: str) -> None:
    """Worker process loop: open the snapshot, answer product tasks.

    Each task is ``(index, n, label, direction, strategy, source
    words, target words)``; the reply is ``(index, product words)``.
    The worker materializes only the labels it is ever asked about —
    with the shard-hash worker assignment, a disjoint subset of the
    snapshot's shard files.
    """
    from repro.storage.tiered import TieredGraphView

    try:
        view = TieredGraphView(path)
        matrices = view.matrices()
        busy_us = 0
        while True:
            tasks = conn.recv()
            if tasks is None:
                break
            started = time.perf_counter()
            out = []
            for (index, n, label, direction, strategy,
                 source_words, target_words) in tasks:
                pair = matrices.get(label)
                if pair is None:
                    words = np.zeros(_word_count(n), dtype=np.uint64)
                else:
                    source = Bitset._wrap(
                        n, np.array(source_words, dtype=np.uint64)
                    )
                    mask = Bitset._wrap(
                        n, np.array(target_words, dtype=np.uint64)
                    )
                    result = pair.product(
                        source, direction, mask=mask, strategy=strategy
                    )
                    words = np.ascontiguousarray(result.words)
                out.append((index, words))
            busy_us += int((time.perf_counter() - started) * 1e6)
            conn.send((busy_us, out))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _ForkPool:
    """A set of forked workers, each owning one pipe and one reader."""

    def __init__(self, workers: int, path: str, n_shards: int):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.workers = workers
        self.path = path
        self.n_shards = n_shards
        self._conns = []
        self._procs = []
        for _ in range(workers):
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(
                target=_fork_worker_main,
                args=(child_end, path),
                daemon=True,
            )
            proc.start()
            child_end.close()
            self._conns.append(parent_end)
            self._procs.append(proc)

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self._procs)

    def worker_of(self, label) -> int:
        """Stable label -> worker assignment.

        On a sharded snapshot this is the label's shard modulo the
        worker count, so workers touch disjoint shard files whenever
        ``workers <= n_shards``; single-file snapshots hash straight
        onto the workers.
        """
        base = self.n_shards if self.n_shards > 0 else self.workers
        return shard_of_label(label, base) % self.workers

    def run(self, tasks: List[tuple]) -> List[np.ndarray]:
        """Evaluate ``(label, direction, strategy, source words,
        target words, n)`` tasks; results in task order."""
        per_worker: List[List[tuple]] = [[] for _ in range(self.workers)]
        for index, (label, direction, strategy, source, target, n) in (
            enumerate(tasks)
        ):
            per_worker[self.worker_of(label)].append(
                (index, n, label, direction, strategy, source, target)
            )
        engaged = [
            w for w, chunk in enumerate(per_worker) if chunk
        ]
        for w in engaged:
            self._conns[w].send(per_worker[w])
        results: List[Optional[np.ndarray]] = [None] * len(tasks)
        metrics = registry()
        for w in engaged:
            busy_us, replies = self._conns[w].recv()
            # Cumulative worker busy time: set-to-value via delta.
            counter = metrics.counter(f"parallel_worker_{w}_busy_us")
            counter.inc(max(0, busy_us - counter.value))
            for index, words in replies:
                results[index] = words
        return results  # type: ignore[return-value]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass


def _fork_pool(workers: int, path: str, n_shards: int) -> _ForkPool:
    key = (path, workers)
    with _POOLS_LOCK:
        pool = _FORK_POOLS.get(key)
        if pool is None or not pool.alive():
            if pool is not None:
                pool.close()
            pool = _ForkPool(workers, path, n_shards)
            _FORK_POOLS[key] = pool
        return pool


class ForkProductExecutor:
    """Defer whole products to a pool of snapshot-mmapping workers.

    ``remote`` is True: the engine skips parent-side materialization
    entirely for real products and ships ``(label, direction,
    strategy, source bits, target bits)`` instead — the parent only
    ever touches summaries, so a fully sharded solve never maps a
    payload outside the workers.
    """

    remote = True

    def __init__(self, workers: int, path: str, n_shards: int = 0):
        self.workers = workers
        self.path = str(path)
        self.n_shards = n_shards

    def compute(self, batch) -> List[Tuple[int, np.ndarray]]:
        tasks = [
            (label, direction, strategy, source, target, batch.n)
            for label, direction, strategy, source, target in (
                batch.remote_tasks
            )
        ]
        if not tasks:
            return []
        started = time.perf_counter()
        pool = _fork_pool(self.workers, self.path, self.n_shards)
        words = pool.run(tasks)
        metrics = registry()
        metrics.counter("parallel_flushes_total").inc()
        metrics.counter("parallel_tasks_total").inc(len(tasks))
        metrics.histogram("parallel_flush_ms").record(
            (time.perf_counter() - started) * 1000.0
        )
        return list(zip(batch.remote_targets, words))

    def shutdown(self) -> None:
        """No-op: the underlying pool is shared (see shutdown_pools)."""


# -- selection & lifecycle ---------------------------------------------------


def executor_for(options, data):
    """The executor a solve should run with, or None for serial.

    ``options`` carries ``workers``/``worker_mode``
    (:class:`~repro.core.solver.SolverOptions`); ``data`` is the graph
    being solved.  Fork mode needs a snapshot-backed graph (workers
    re-open the file); anything else falls back to threads, which are
    correct on every backend.
    """
    workers = int(getattr(options, "workers", 1) or 1)
    if workers <= 1:
        return None
    mode = getattr(options, "worker_mode", "threads")
    if mode == "fork" and hasattr(os, "fork"):
        reader = getattr(data, "reader", None)
        path = getattr(reader, "path", None)
        if path is not None:
            return ForkProductExecutor(
                workers, str(path), int(getattr(reader, "n_shards", 0))
            )
    return ThreadFlushExecutor(workers)


def shutdown_pools() -> None:
    """Close every shared pool (test isolation / clean shutdown)."""
    with _POOLS_LOCK:
        for pool in _THREAD_POOLS.values():
            pool.shutdown(wait=True)
        _THREAD_POOLS.clear()
        for pool in _FORK_POOLS.values():
            pool.close()
        _FORK_POOLS.clear()


def _reset_in_child() -> None:
    # The child inherited pipe ends and pool bookkeeping that belong
    # to the parent: drop the references WITHOUT closing (closing
    # would tear down the parent's workers) and give the child a
    # fresh, unlocked registry lock.
    global _POOLS_LOCK
    _POOLS_LOCK = threading.Lock()
    _THREAD_POOLS.clear()
    _FORK_POOLS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)
