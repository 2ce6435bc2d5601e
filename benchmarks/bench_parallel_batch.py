"""Multi-core batch execution: ``WorkerPool.run_batch`` vs serial.

A ≥100-query mixed-regime workload (finite / trC / NP-hard languages,
with a hot language concentrating load on one shared plan) is saved as
a snapshot.  A serial :class:`~repro.engine.QueryEngine` over the
loaded snapshot and a :class:`~repro.service.workers.WorkerPool` whose
workers attach the same file both answer it.

Asserted shape:

* pool results are **path-for-path identical** to serial — same
  vertices, same labels, same strategies, with and without the
  vectorized sweep;
* the pool places each plan group whole on one shard, so a fresh pool
  compiles each distinct language **exactly once** across all its
  workers, verified via the real plan-cache counters;
* on hardware with more than one core, the pool is **faster than
  serial wall-clock** (>1×).  On a single-core machine the speedup
  test is skipped (no scheduler can beat serial there) and the
  overhead-bound test keeps the pool honest instead.
"""

import os

import pytest

from benchmarks.conftest import (
    measure_seconds,
    record_metric,
    scaled,
    skip_if_smoke,
)
from benchmarks.workloads import distinct_languages, mixed_workload

from repro.engine import IndexedGraph, QueryEngine
from repro.service import load_snapshot, save_snapshot
from repro.service.workers import WorkerPool

WORKERS = 2
NUM_QUERIES = scaled(150, 30)

#: The hot language: every 3rd query shares this plan.
HOT_LANGUAGE = "a*(bb^+ + eps)c*"


def _available_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _save(graph, directory):
    path = str(directory / "graph.snap")
    save_snapshot(IndexedGraph(graph), path)
    return path


@pytest.fixture(scope="module")
def workload():
    return mixed_workload(
        num_queries=NUM_QUERIES,
        seed=23,
        num_vertices=scaled(300, 60),
        num_edges=scaled(950, 190),
        hot_language=HOT_LANGUAGE,
        hot_every=3,
    )


@pytest.fixture(scope="module")
def snapshot(workload, tmp_path_factory):
    graph, _queries = workload
    return _save(graph, tmp_path_factory.mktemp("parallel_batch"))


@pytest.fixture(scope="module")
def pool(snapshot):
    with WorkerPool(snapshot, workers=WORKERS) as running:
        yield running


def _assert_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for reference, result in zip(serial.results, parallel.results):
        key = (str(reference.language), reference.source, reference.target)
        assert result.found == reference.found, key
        assert result.path == reference.path, key
        assert result.strategy == reference.strategy, key
        assert result.error == reference.error, key


def test_pool_matches_serial_path_for_path(workload, snapshot, pool):
    _graph, queries = workload
    for vectorize in (True, False):
        serial = QueryEngine(load_snapshot(snapshot)).run_batch(
            queries, vectorize=vectorize
        )
        pooled = pool.run_batch(queries, vectorize=vectorize)
        assert pooled.workers == WORKERS
        _assert_identical(serial, pooled)


def test_pool_compiles_each_plan_exactly_once(workload, snapshot):
    _graph, queries = workload
    with WorkerPool(snapshot, workers=WORKERS) as fresh:
        batch = fresh.run_batch(queries)
    assert batch.cache_stats.compiles == len(distinct_languages(queries))
    assert batch.cache_stats.evictions == 0


def test_parallel_overhead_is_bounded(workload, snapshot, pool):
    """Even where parallelism cannot win (1 core), it must not explode."""
    skip_if_smoke("scheduling-overhead wall-clock bound")
    _graph, queries = workload
    serial_engine = QueryEngine(load_snapshot(snapshot))
    serial_seconds, _ = measure_seconds(serial_engine.run_batch, queries)
    parallel_seconds, _ = measure_seconds(pool.run_batch, queries)
    assert parallel_seconds < 5 * serial_seconds + 0.5, (
        "pool scheduling overhead out of bounds: serial %.3fs, "
        "pool %.3fs" % (serial_seconds, parallel_seconds)
    )


def test_parallel_speedup_over_serial(tmp_path):
    """>1× wall-clock vs serial on the same workload (needs >1 core)."""
    skip_if_smoke("parallel wall-clock speedup")
    cores = _available_cores()
    if cores < 2:
        pytest.skip(
            "parallel wall-clock speedup needs >1 CPU core, this "
            "machine exposes %d" % cores
        )
    # A heavier instance so per-worker compute dwarfs scheduling costs.
    graph, queries = mixed_workload(
        num_queries=200,
        seed=23,
        num_vertices=400,
        num_edges=1400,
        hot_language=HOT_LANGUAGE,
        hot_every=3,
    )
    path = _save(graph, tmp_path)
    workers = min(WORKERS, cores)
    # Result caches off on both sides: a timed rerun must solve, not
    # replay the previous run's answers.
    serial_engine = QueryEngine(load_snapshot(path), result_cache=False)
    with WorkerPool(
        path, engine_kwargs={"result_cache": False}, workers=workers
    ) as timed_pool:
        # Warm every plan cache, then take the best of two runs each:
        # one noisy scheduling hiccup must not decide the comparison.
        serial_engine.run_batch(queries)
        timed_pool.run_batch(queries)
        serial_seconds, serial_batch = min(
            (measure_seconds(serial_engine.run_batch, queries)
             for _ in range(2)),
            key=lambda pair: pair[0],
        )
        parallel_seconds, parallel_batch = min(
            (measure_seconds(timed_pool.run_batch, queries)
             for _ in range(2)),
            key=lambda pair: pair[0],
        )
    _assert_identical(serial_batch, parallel_batch)
    record_metric(
        "parallel_batch", "serial_seconds", round(serial_seconds, 6)
    )
    record_metric(
        "parallel_batch", "parallel_seconds", round(parallel_seconds, 6)
    )
    record_metric(
        "parallel_batch", "parallel_speedup",
        round(serial_seconds / parallel_seconds, 3),
    )
    record_metric("parallel_batch", "workers", workers)
    assert parallel_seconds < serial_seconds, (
        "expected >1x speedup with %d pool workers, got %.2fx "
        "(serial %.3fs, pool %.3fs)"
        % (
            workers,
            serial_seconds / parallel_seconds,
            serial_seconds,
            parallel_seconds,
        )
    )


def test_parallel_batch(benchmark, workload, pool):
    _graph, queries = workload
    pool.run_batch(queries)  # warm the workers' plan caches
    batch = benchmark(pool.run_batch, queries)
    assert len(batch) == len(queries)
    assert batch.error_count == 0


def test_serial_batch_baseline(benchmark, workload, snapshot):
    _graph, queries = workload
    engine = QueryEngine(load_snapshot(snapshot))
    engine.run_batch(queries)  # warm the plan cache
    batch = benchmark(engine.run_batch, queries)
    assert batch.cache_stats.compiles == 0
