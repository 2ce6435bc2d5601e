"""Per-layer probes for the traced run.

Each probe calls a layer's public function from the benchmark's own
files inside a span, on the workload's own inputs.  Nothing here runs
in the timed (untraced) runs.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

from repro import QueryEngine
from repro.engine import IndexedGraph
from repro.graphs import io as graph_io
from repro.graphs.reach import ReachabilityIndex
from repro.service.snapshot import attach_snapshot, save_snapshot
from repro.service.workers import WorkerPool

from .load import batch_body, query_body
from .server import Connection

STRATEGIES = ("finite-AC0", "trc-nice-path", "exact-backtracking")

#: Repetitions of each set-up probe; the median is reported.
REPEATS = 3


def tail_percentile(count):
    """Highest percentile (<= 99) with at least ten samples beyond it."""
    if count < 11:
        return 50.0
    return min(99.0, 100.0 * (1.0 - 10.0 / count))


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (``inf`` sorts last)."""
    ordered = sorted(values)
    rank = math.ceil(round(pct * len(ordered) / 100.0, 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def _timed(tracer, name, fn):
    with tracer.span(name):
        start = time.perf_counter()
        value = fn()
        return time.perf_counter() - start, value


def setup_layers(tracer, graph_path, snapshot_path, workdir, languages):
    """Set-up cost of each layer a server start goes through."""
    loads, compiles, reaches, saves, attaches, spawns, plans = (
        [], [], [], [], [], [], []
    )
    size = 0
    with tracer.span("setup"):
        for repeat in range(REPEATS):
            seconds, graph = _timed(tracer, "graphs.io.load",
                                    lambda: graph_io.load(graph_path))
            loads.append(seconds)
            seconds, indexed = _timed(tracer, "engine.indexed.compile",
                                      lambda g=graph: IndexedGraph(g))
            compiles.append(seconds)
            view = indexed.view()
            seconds, _ = _timed(tracer, "graphs.reach.build",
                                lambda v=view: ReachabilityIndex.from_view(v))
            reaches.append(seconds)
            target = os.path.join(workdir, "probe-%d.snap" % repeat)
            seconds, size = _timed(
                tracer, "service.snapshot.save",
                lambda g=indexed, t=target: save_snapshot(g, t))
            saves.append(seconds)
            # The snapshot written by a separate process: a cold attach.
            seconds, attached = _timed(tracer, "service.snapshot.attach",
                                       lambda: attach_snapshot(snapshot_path))
            attaches.append(seconds)
            seconds, pool = _timed(tracer, "service.workers.spawn",
                                   lambda: WorkerPool(snapshot_path,
                                                      workers=2))
            pool.close()
            spawns.append(seconds)
            engine = QueryEngine(attached)
            with tracer.span("engine.plan.compile"):
                start = time.perf_counter()
                for lang in languages:
                    engine.plan_for(lang)
                plans.append(time.perf_counter() - start)
    med = statistics.median
    return {
        "graphs.io.load_s": (med(loads), "s"),
        "engine.indexed.compile_s": (med(compiles), "s"),
        "graphs.reach.build_s": (med(reaches), "s"),
        "service.snapshot.save_s": (med(saves), "s"),
        "service.snapshot.attach_s": (med(attaches), "s"),
        "service.snapshot.bytes": (size, "bytes"),
        "service.workers.spawn_s": (med(spawns), "s"),
        "engine.plan.compile_ms": (1000.0 * med(plans), "ms"),
    }


def ledger(tracer, port, snapshot_path, triples):
    """Engine, pool and HTTP cost of the same cold queries, per query.

    Returns ``(metrics, records)``; ``records`` are the HTTP replies,
    which the caller checks like any served answer.
    """
    engine = QueryEngine(attach_snapshot(snapshot_path))
    pool = WorkerPool(snapshot_path, workers=2)
    conn = Connection(port)
    engine_us, pipe_us, overhead_us, xcheck_us, records = [], [], [], [], []
    try:
        with tracer.span("ledger"):
            for index, (lang, source, target) in enumerate(triples):
                with tracer.span("engine.query", request_id=index):
                    start = time.perf_counter()
                    engine.query(lang, source, target)
                    engine_us.append(1e6 * (time.perf_counter() - start))
                with tracer.span("service.workers.query", request_id=index):
                    start = time.perf_counter()
                    pooled = pool.query(lang, source, target)
                    pool_s = time.perf_counter() - start
                pipe = pool_s - pooled.stats.seconds
                pipe_us.append(1e6 * pipe)
                body = query_body(lang, source, target)
                with tracer.span("service.server.http", request_id=index):
                    start = time.perf_counter()
                    status, reply = conn.call("POST", "/query", body)
                    http_s = time.perf_counter() - start
                record = json.loads(reply) if status == 200 else {
                    "error": "HTTP %d" % status}
                records.append(record)
                overhead_us.append(1e6 * (http_s - pool_s))
                if status == 200:
                    xcheck_us.append(
                        1e6 * (http_s - record["seconds"] - pipe))
    finally:
        conn.close()
        pool.close()
    med = statistics.median
    metrics = {
        "engine.query_us_p50": (med(engine_us), "us"),
        "service.workers.pipe_us_p50": (med(pipe_us), "us"),
        "service.server.overhead_us_p50": (med(overhead_us), "us"),
        "service.server.overhead_xcheck_us_p50": (
            med(xcheck_us) if xcheck_us else 0.0, "us"),
    }
    metrics.update(solver_metrics(records))
    return metrics, records


def solver_metrics(records):
    """Busy time, exact step counts and tail latency per strategy."""
    metrics = {}
    for strategy in STRATEGIES:
        mine = [r for r in records if r.get("strategy") == strategy]
        seconds = [r["seconds"] for r in mine]
        metrics["solver.%s.busy_s" % strategy] = (sum(seconds), "s")
        metrics["solver.%s.steps" % strategy] = (
            sum(r["steps"] or 0 for r in mine), "count")
        metrics["solver.%s.p99_ms" % strategy] = (
            1000.0 * percentile(seconds, tail_percentile(len(seconds)))
            if seconds else 0.0, "ms")
    return metrics


def batch_layers(tracer, snapshot_path, batch):
    """In-process vectorized batch, and pool scaling from 1 to 2 workers."""
    engine = QueryEngine(attach_snapshot(snapshot_path))
    with tracer.span("engine.run_batch"):
        start = time.perf_counter()
        result = engine.run_batch(batch)
        batch_s = time.perf_counter() - start
    swept = result.stats.swept_negatives if result.stats else 0
    elapsed = {}
    for workers in (1, 2):
        # A fresh pool per size, so neither run sees the other's caches.
        with WorkerPool(snapshot_path, workers=workers) as pool:
            with tracer.span("service.workers.run_batch"):
                start = time.perf_counter()
                pool.run_batch(batch, workers=workers)
                elapsed[workers] = time.perf_counter() - start
    return {
        "engine.vectorized.swept_share": (swept / len(batch), "ratio"),
        "engine.vectorized.batch_s": (batch_s, "s"),
        "service.workers.scaling_2w": (elapsed[1] / elapsed[2], "ratio"),
    }


def _served_by_worker(server):
    workers = server.get("/stats")["graphs"][0]["workers"]["per_worker"]
    return {w["pid"]: w["served_queries"] for w in workers}


def batch_shard(tracer, server, batch):
    """How one served ``/batch`` spreads over the pool's workers.

    Returns ``(metrics, records)``: the largest per-worker share of
    the batch, from ``/stats`` before and after it.
    """
    before = _served_by_worker(server)
    body = batch_body(batch)
    conn = Connection(server.port)
    try:
        with tracer.span("service.server.http"):
            status, reply = conn.call("POST", "/batch", body)
    finally:
        conn.close()
    after = _served_by_worker(server)
    served = [after[pid] - before.get(pid, 0) for pid in after]
    if status == 200:
        records = json.loads(reply)["results"]
    else:
        records = [{"error": "HTTP %d" % status}] * len(batch)
    share = max(served) / max(1, sum(served))
    return {"service.workers.max_worker_share": (share, "ratio")}, records


def served_layers(records, stats):
    """Shares read off served records, and counters from ``/stats``."""
    count = max(1, len(records))
    graph = stats["graphs"][0]
    shedder = stats["resilience"]["shedder"]
    return {
        "engine.plan.hit_share": (
            sum(bool(r.get("plan_cache_hit")) for r in records) / count,
            "ratio"),
        "engine.result_cache.hit_share": (
            sum(bool(r.get("result_cache_hit")) for r in records) / count,
            "ratio"),
        "graphs.reach.short_circuit_share": (
            sum(bool(r.get("short_circuit")) for r in records) / count,
            "ratio"),
        "service.resilience.shed_count": (
            shedder["shed_hard"] + shedder["shed_soft"]
            + shedder["shed_doomed"], "count"),
        "service.resilience.degraded_count": (graph["degraded"], "count"),
    }
