"""Certificate-first dispatch: the engine's walk probe vs the paper's solvers.

The engine runs one product-graph BFS ("rung 0") before the solver of
every plan with an infinite language.  No accepting walk certifies
NOT_FOUND; a shortest accepting walk that is simple *is* the answer.
Only queries whose shortest walk repeats a vertex reach the paper's
solver.

Workload: the Example-1 language ``a*(bb^+ + eps)c*`` (trC, nice-path
solver) and ``a*ba*`` (NP-complete, exact solver) on a random ``abc``
graph with 4 edges per vertex — 1,500 vertices on the full profile,
200 on the smoke profile.  Both sides answer the same queries on the
same compiled graph: ``QueryEngine.query`` (plans warm, result cache
off) against the plan's own solver called directly
(``RspqSolver.search``: ``TractableSolver`` / ``ExactSolver``).

Recorded metrics (``BENCH_certificate.json``):

* ``certificate_speedup`` — direct-solver seconds over engine seconds
  (gated by ``check_perf_regression.py``; asserted ≥ 20× on the full
  profile, where one random positive alone can keep the direct
  nice-path solver busy for minutes);
* ``walk_certified_share`` — the fraction of queries rung 0 settled.

Answers are asserted equal — found flag and length — before any
ratio is recorded.
"""

import random

from benchmarks.conftest import (
    measure_seconds,
    record_metric,
    scaled,
    skip_if_smoke,
)

import pytest

from repro.engine import QueryEngine
from repro.execution import ExecutionContext
from repro.graphs.generators import random_labeled_graph

LANGUAGES = ("a*(bb^+ + eps)c*", "a*ba*")

NUM_VERTICES = scaled(1500, 200)
NUM_EDGES = 4 * NUM_VERTICES
#: Random (source, target) pairs per language.  The full profile stays
#: small: direct trC solves on the 1,500-vertex graph run from
#: milliseconds to minutes per positive.
PAIRS = scaled(4, 15)
#: Timed repetitions per side (the fastest is kept).
REPS = scaled(1, 3)
SEED = 11


@pytest.fixture(scope="module")
def workload():
    graph = random_labeled_graph(NUM_VERTICES, NUM_EDGES, "abc", seed=SEED)
    engine = QueryEngine(graph, result_cache=False)
    rng = random.Random(SEED)
    queries = []
    for regex in LANGUAGES:
        engine.plan_for(regex)
        for _ in range(PAIRS):
            source, target = rng.sample(range(NUM_VERTICES), 2)
            queries.append((regex, source, target))
    return engine, queries


def _engine_answers(engine, queries):
    return [engine.query(regex, s, t) for regex, s, t in queries]


def _direct_answers(engine, queries):
    view = engine.view
    return [
        engine.plan_for(regex)[0].solver.search(
            view, s, t, ctx=ExecutionContext()
        )
        for regex, s, t in queries
    ]


def test_certificate_first_speedup(workload):
    engine, queries = workload
    direct_seconds, direct = _best_of(REPS, _direct_answers, engine, queries)
    engine_seconds, served = _best_of(REPS, _engine_answers, engine, queries)
    for (regex, s, t), result, path in zip(queries, served, direct):
        assert result.found == (path is not None), (regex, s, t)
        if path is not None:
            assert result.length == len(path), (regex, s, t)
    speedup = direct_seconds / engine_seconds
    share = sum(r.stats.walk_certified for r in served) / len(served)
    record_metric("certificate", "queries", len(queries))
    record_metric("certificate", "found", sum(r.found for r in served))
    record_metric("certificate", "direct_seconds", round(direct_seconds, 6))
    record_metric("certificate", "engine_seconds", round(engine_seconds, 6))
    record_metric("certificate", "certificate_speedup", round(speedup, 3))
    record_metric("certificate", "walk_certified_share", round(share, 3))
    assert share > 0.5
    skip_if_smoke()
    assert speedup >= 20.0, (
        "expected >= 20x over the direct solvers, got %.1fx "
        "(engine %.4fs, direct %.4fs)"
        % (speedup, engine_seconds, direct_seconds)
    )


def _best_of(reps, fn, *args):
    best = None
    for _ in range(reps):
        seconds, result = measure_seconds(fn, *args)
        if best is None or seconds < best[0]:
            best = (seconds, result)
    return best
