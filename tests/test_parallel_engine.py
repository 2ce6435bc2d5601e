"""Concurrency properties of the engine: shared frozen plans, concurrent
queries, single-flight compilation, per-query context isolation.

Two kinds of concurrency remain: many threads calling ``engine.query``
on one engine (what the service executor does), and a batch sharded
over a :class:`~repro.service.workers.WorkerPool`.  The core property
of both: **observationally identical** to serial execution — same
paths, same strategies, same per-query step counters (which would
differ if two queries ever bled counters through a shared solver).
"""

import threading

import pytest

from benchmarks.workloads import (
    MIXED_LANGUAGES,
    distinct_languages,
    mixed_workload,
)

from repro.engine import QueryEngine
from repro.errors import GraphError, ReproError
from tests.conftest import worker_pool

WORKERS = 4


@pytest.fixture(scope="module")
def workload():
    """Mixed-regime workload with a hot language on every 2nd query."""
    return mixed_workload(
        num_queries=60,
        seed=5,
        num_vertices=24,
        num_edges=70,
        hot_language="a*(bb^+ + eps)c*",
        hot_every=2,
    )


@pytest.fixture(scope="module")
def pool(workload):
    graph, _queries = workload
    with worker_pool(graph) as running:
        yield running


def query_concurrently(engine, queries, threads=WORKERS):
    """Answer ``queries`` with ``engine.query`` from ``threads`` threads.

    The threads start together on strided shards.  Results come back
    in input order; a query that raised a ``ReproError`` is
    represented by the exception.
    """
    results = [None] * len(queries)
    barrier = threading.Barrier(threads)

    def run_shard(offset):
        barrier.wait(timeout=10)
        for index in range(offset, len(queries), threads):
            try:
                results[index] = engine.query(*queries[index])
            except ReproError as err:
                results[index] = err

    runners = [
        threading.Thread(target=run_shard, args=(offset,))
        for offset in range(threads)
    ]
    for runner in runners:
        runner.start()
    for runner in runners:
        runner.join(timeout=60)
        assert not runner.is_alive()
    return results


class TestParallelMatchesSerial:
    def test_paths_strategies_and_steps_identical(self, workload, pool):
        graph, queries = workload
        serial = QueryEngine(graph).run_batch(queries)
        parallel = pool.run_batch(queries)
        assert parallel.workers == 2
        assert len(parallel) == len(queries)
        for reference, result in zip(serial.results, parallel.results):
            assert result.found == reference.found
            assert result.path == reference.path
            assert result.strategy == reference.strategy
            # Step counters are deterministic per query; equality means
            # no cross-query counter bleed through the shared plans.
            assert result.stats.steps == reference.stats.steps

    def test_results_keep_input_order(self, workload, pool):
        _graph, queries = workload
        batch = pool.run_batch(queries)
        assert [
            (result.language, result.source, result.target)
            for result in batch.results
        ] == queries

    def test_concurrent_queries_match_serial(self, workload):
        graph, queries = workload
        serial = QueryEngine(graph).run_batch(queries, vectorize=False)
        concurrent = query_concurrently(QueryEngine(graph), queries)
        for reference, result in zip(serial.results, concurrent):
            assert result.path == reference.path
            assert result.strategy == reference.strategy
            assert result.stats.steps == reference.stats.steps


class TestSingleFlightCompilation:
    def test_distinct_languages_compiled_exactly_once(self, workload):
        graph, queries = workload
        engine = QueryEngine(graph)
        query_concurrently(engine, queries)
        stats = engine.cache_stats()
        assert stats.compiles == len(distinct_languages(queries))
        assert stats.evictions == 0

    def test_hot_language_contention(self, workload):
        graph, _queries = workload
        vertices = list(graph.vertices())
        # Every thread hammers the same cold language at the same time.
        queries = [
            ("a*(bb^+ + eps)c*", vertices[i % len(vertices)],
             vertices[(i + 7) % len(vertices)])
            for i in range(40)
        ]
        engine = QueryEngine(graph)
        results = query_concurrently(engine, queries)
        assert engine.cache_stats().compiles == 1
        assert not any(isinstance(r, ReproError) for r in results)

    def test_stats_sanity(self, workload):
        graph, queries = workload
        engine = QueryEngine(graph)
        results = query_concurrently(engine, queries)
        stats = engine.cache_stats()
        assert stats.lookups == stats.hits + stats.misses
        assert stats.hits + stats.compiles >= len(queries)
        assert all(result.stats.seconds >= 0 for result in results)

    def test_concurrent_query_calls_share_one_plan(self, workload):
        """Raw engine.query from many threads: one compile, no errors."""
        graph, _queries = workload
        engine = QueryEngine(graph)
        vertices = list(graph.vertices())
        errors = []
        barrier = threading.Barrier(WORKERS)

        def hammer(offset):
            try:
                barrier.wait(timeout=10)
                for i in range(10):
                    engine.query(
                        "b*c*",
                        vertices[(offset + i) % len(vertices)],
                        vertices[(offset + 3 * i + 1) % len(vertices)],
                    )
            except Exception as err:  # pragma: no cover - failure path
                errors.append(err)

        threads = [
            threading.Thread(target=hammer, args=(offset,))
            for offset in range(WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert engine.cache_stats().compiles == 1


class TestParallelErrorIsolation:
    def test_bad_queries_isolated_across_workers(self, workload):
        graph, queries = workload
        poisoned = list(queries)
        poisoned[3] = ("a*", "missing-vertex", poisoned[3][2])
        poisoned[17] = ("((((", poisoned[17][1], poisoned[17][2])
        serial = QueryEngine(graph).run_batch(poisoned)
        concurrent = query_concurrently(QueryEngine(graph), poisoned)
        failed = [
            index for index, result in enumerate(concurrent)
            if isinstance(result, ReproError)
        ]
        assert failed == [3, 17]
        assert serial.error_count == 2
        for reference, result in zip(serial.results, concurrent):
            if isinstance(result, ReproError):
                assert reference.error == str(result)
            else:
                assert reference.error is None
                assert result.path == reference.path

    def test_single_query_api_still_raises_in_parallel_engine(
        self, workload
    ):
        graph, _queries = workload
        engine = QueryEngine(graph)
        # The engine has served concurrent queries.
        query_concurrently(engine, [("a*", 0, 1)] * WORKERS)
        with pytest.raises(GraphError):
            engine.query("a*", "nope", 1)


class TestRunBatchArguments:
    def test_rejects_zero_workers(self, workload, pool):
        _graph, queries = workload
        with pytest.raises(ValueError):
            pool.run_batch(queries, workers=0)

    def test_workers_clamped_to_queries(self, pool):
        batch = pool.run_batch([("a*", 0, 1)], workers=WORKERS)
        assert batch.workers == 1
        assert len(batch) == 1

    def test_empty_batch(self, workload):
        graph, _queries = workload
        batch = QueryEngine(graph).run_batch([])
        assert len(batch) == 0
        assert batch.workers == 1
        assert batch.cache_stats.compiles == 0

    def test_workload_generator_is_deterministic(self):
        first = mixed_workload(num_queries=20, seed=9)
        second = mixed_workload(num_queries=20, seed=9)
        assert first[1] == second[1]
        assert list(first[0].edges()) == list(second[0].edges())
        assert distinct_languages(first[1]) <= set(MIXED_LANGUAGES)
