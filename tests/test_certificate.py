"""Certificate-first dispatch: the shared walk probe ("rung 0").

Walk (RPQ) semantics are polynomial over the product graph ``G × A_L``
and every simple path is a walk.  So no accepting walk proves NOT_FOUND,
and a shortest accepting walk that happens to be simple is a shortest
simple path.  These tests pin:

* the shared BFS (:func:`repro.core.product.shortest_accepting_walk`):
  lexicographically least shortest walks, dead-state pruning, honest
  charging;
* the canonical-witness rule: whenever the walk is simple, the exact
  solver and the trC front door return exactly that walk — which is
  what keeps the engine's rung 0 path-for-path identical to the
  paper's solvers;
* the engine: ``walk_certified`` reporting, the plans rung 0 skips,
  the deep-path query that used to overflow the recursive solver, and
  per-query isolation of internal faults in batches;
* the service: the wire field and the per-graph ``/stats`` counter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.exact import ExactSolver
from repro.core.nice_paths import TractableSolver
from repro.core.product import is_simple_walk, shortest_accepting_walk
from repro.core.solver import (
    STRATEGY_EXACT,
    STRATEGY_FINITE,
    STRATEGY_TRACTABLE,
    RspqSolver,
)
from repro.engine import IndexedGraph, QueryEngine
from repro.errors import BudgetExceededError, ServiceError
from repro.execution import ExecutionContext
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import labeled_path
from repro.graphs.view import as_graph_view
from repro.languages import language
from repro.service import (
    GraphRegistry,
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)
from repro.service.protocol import RESULT_FIELDS, result_record

from tests.test_hypothesis_solvers import small_graph_and_query

#: trC languages (the nice-path solver runs) and NP-complete ones.
TRC_LANGUAGES = ("a*(bb^+ + eps)c*", "b*c*", "c*a*", "a*", "a*b*")
HARD_LANGUAGES = ("a*bc*", "a*ba*", "(aa)*")


def _walk(regex, graph, source, target, max_edges=None):
    """``(walk, charges)`` of the shared BFS on ``graph``."""
    view = as_graph_view(graph)
    dfa = language(regex).dfa
    charges = []
    if max_edges is None:
        max_edges = view.num_vertices * dfa.num_states
    walk = shortest_accepting_walk(
        dfa, view, view.vertex_id(source), view.vertex_id(target),
        max_edges, lambda: charges.append(1),
    )
    return walk, len(charges)


def _walk_path(regex, graph, source, target):
    """The walk as a named path when it is simple, else ``None``."""
    walk, _charges = _walk(regex, graph, source, target)
    if walk is None or not is_simple_walk(walk[0]):
        return None
    return as_graph_view(graph).path(*walk)


class TestSharedWalk:
    def test_least_shortest_walk_in_canonical_order(self):
        # Two 2-edge routes 0→3; canonical (label, target) order
        # expands the a-edge first, so the walk goes through 1.
        graph = DbGraph()
        for u, label, v in [
            (0, "b", 2), (2, "a", 3), (0, "a", 1), (1, "b", 3),
        ]:
            graph.add_edge(u, label, v)
        walk, _charges = _walk("(a + b)*", graph, 0, 3)
        view = as_graph_view(graph)
        assert view.path(*walk).vertices == (0, 1, 3)

    def test_dead_sink_state_is_never_expanded(self):
        # After its single b, "a*b" is accepting; one more b lands in
        # the DFA's dead sink.  The long b-chain behind the first edge
        # must not be explored in the sink.
        graph = labeled_path("b" * 60)
        walk, charges = _walk("a*b", graph, 0, 60)
        assert walk is None
        assert charges <= 2

    def test_no_walk_within_the_edge_cap(self):
        graph = labeled_path("aaaa")
        assert _walk("a*", graph, 0, 4, max_edges=3)[0] is None
        walk, _charges = _walk("a*", graph, 0, 4, max_edges=4)
        assert walk == ((0, 1, 2, 3, 4), (0, 0, 0, 0))

    def test_empty_walk_when_source_is_target(self):
        graph = labeled_path("aa")
        assert _walk("a*", graph, 1, 1)[0] == ((1,), ())

    def test_charges_one_step_per_expanded_node(self):
        graph = labeled_path("a" * 10)
        walk, charges = _walk("a*", graph, 0, 10)
        assert len(walk[1]) == 10
        assert charges == 10


class TestCanonicalWitness:
    """Whenever the walk is simple, every solver returns exactly it."""

    @given(small_graph_and_query("abc"),
           st.sampled_from(TRC_LANGUAGES + HARD_LANGUAGES))
    @settings(max_examples=150, deadline=None)
    def test_exact_solver_returns_the_simple_walk(self, instance, regex):
        graph, x, y = instance
        if x == y:
            return
        walk = _walk_path(regex, graph, x, y)
        if walk is None:
            return
        path = ExactSolver(language(regex)).shortest_simple_path(graph, x, y)
        assert path == walk

    @given(small_graph_and_query("abc"), st.sampled_from(TRC_LANGUAGES))
    @settings(max_examples=150, deadline=None)
    def test_trc_front_door_returns_the_simple_walk(self, instance, regex):
        graph, x, y = instance
        if x == y:
            return
        walk = _walk_path(regex, graph, x, y)
        if walk is None:
            return
        solver = RspqSolver(regex)
        assert solver.strategy == STRATEGY_TRACTABLE
        assert solver.shortest_simple_path(graph, x, y) == walk

    def test_pinned_tie_from_the_solve_workload(self):
        # Shrunk from a servebench `solve` seed-1 query: two 3-edge
        # witnesses, "bbb" through 6449 and "bbc" through 6470.  The
        # anchored search alone picks the second; the canonical one
        # (the least shortest walk) is the first.
        graph = DbGraph()
        for u, label, v in [
            ("6376", "b", "6457"), ("6449", "b", "6459"),
            ("6457", "b", "6449"), ("6457", "b", "6470"),
            ("6470", "c", "6459"),
        ]:
            graph.add_edge(u, label, v)
        regex = "a*(bb^+ + eps)c*"
        canonical = ("6376", "6457", "6449", "6459")
        alone = TractableSolver(language(regex)).shortest_simple_path(
            graph, "6376", "6459"
        )
        assert alone.vertices == ("6376", "6457", "6470", "6459")
        solver = RspqSolver(regex)
        assert solver.shortest_simple_path(
            graph, "6376", "6459"
        ).vertices == canonical
        # The paper's algorithm still ran in full before the pass.
        assert solver.last_steps() >= 1
        result = QueryEngine(graph).query(regex, "6376", "6459")
        assert result.path.vertices == canonical
        assert result.stats.walk_certified is True
        assert result.strategy == STRATEGY_TRACTABLE


class TestEngineRungZero:
    def test_simple_walk_answers_without_the_solver(self):
        engine = QueryEngine(labeled_path("aaaa"), result_cache=False)
        result = engine.query("(aa)*", 0, 4)
        assert result.found and result.length == 4
        assert result.strategy == STRATEGY_EXACT
        assert result.stats.walk_certified is True
        # Honest steps: one exact-counter charge per expanded node.
        assert result.stats.steps == 4

    def test_no_walk_is_a_certified_negative(self):
        # The reach index sees a and b edges from 0 to 2, but "a*b"
        # never reads a after b: only the walk proves NOT_FOUND.
        graph = DbGraph()
        graph.add_edge(0, "b", 1)
        graph.add_edge(1, "a", 2)
        result = QueryEngine(graph, result_cache=False).query("a*b", 0, 2)
        assert not result.found
        assert result.stats.short_circuit is False
        assert result.stats.walk_certified is True

    def test_repeated_vertex_walk_falls_through_to_the_solver(self):
        # Odd a-cycle: the only even walks 0→1 go round the cycle.
        graph = DbGraph()
        for u in range(5):
            graph.add_edge(u, "a", (u + 1) % 5)
        result = QueryEngine(graph, result_cache=False).query("(aa)*", 0, 1)
        assert not result.found
        assert result.stats.walk_certified is False

    def test_finite_plans_skip_rung_zero(self):
        result = QueryEngine(labeled_path("ab")).query("ab + ba", 0, 2)
        assert result.found
        assert result.strategy == STRATEGY_FINITE
        assert result.stats.walk_certified is False

    def test_portfolio_queries_use_the_ladder_probe_instead(self):
        engine = QueryEngine(labeled_path("aaaa"), portfolio=True)
        result = engine.query("(aa)*", 0, 4)
        assert result.found
        assert result.strategy == "portfolio:walk-probe"
        assert result.stats.walk_certified is False

    def test_probe_charges_count_against_the_budget(self):
        engine = QueryEngine(labeled_path("a" * 40), result_cache=False)
        with pytest.raises(BudgetExceededError):
            engine.query("(aa)*", 0, 40, budget=10)

    def test_trc_probe_charges_dfs_steps(self):
        engine = QueryEngine(labeled_path("a" * 6), result_cache=False)
        result = engine.query("a*", 0, 6)
        assert result.strategy == STRATEGY_TRACTABLE
        assert result.stats.walk_certified is True
        assert result.stats.steps == 6

    def test_replayed_answers_keep_the_flag(self):
        engine = QueryEngine(labeled_path("aa"))
        engine.query("a*", 0, 2)
        replay = engine.query("a*", 0, 2)
        assert replay.stats.result_cache_hit is True
        assert replay.stats.walk_certified is True

    def test_csr_and_dict_views_agree(self):
        graph = DbGraph()
        for u, label, v in [
            (0, "a", 1), (1, "b", 2), (0, "b", 3), (3, "b", 2),
            (2, "c", 4), (1, "c", 4),
        ]:
            graph.add_edge(u, label, v)
        for regex in TRC_LANGUAGES + HARD_LANGUAGES:
            on_dict = QueryEngine(graph).query(regex, 0, 4)
            on_csr = QueryEngine(IndexedGraph(graph)).query(regex, 0, 4)
            assert on_dict.path == on_csr.path, regex
            assert on_dict.stats.steps == on_csr.stats.steps, regex


#: A 3,001-vertex a-path: deep enough to overflow a recursive search.
DEEP = 3000


@pytest.fixture(scope="module")
def deep_path():
    return labeled_path("a" * DEEP)


class TestDeepPath:
    def test_query_answers_iteratively(self, deep_path):
        result = QueryEngine(deep_path).query("(aa)*", 0, DEEP)
        assert result.found and result.length == DEEP
        assert result.stats.walk_certified is True

    def test_batch_keeps_both_queries(self, deep_path):
        batch = QueryEngine(deep_path).run_batch(
            [("(aa)*", 0, DEEP), ("a*", 0, 5)]
        )
        assert batch.error_count == 0
        assert [r.length for r in batch.results] == [DEEP, 5]

    def test_http_query_answers(self, deep_path):
        registry = GraphRegistry()
        registry.register("deep", deep_path)
        service = QueryService(registry, ServiceConfig(workers=1))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            record = client.query("(aa)*", 0, DEEP)
        assert record["found"] is True
        assert record["length"] == DEEP
        assert record["walk_certified"] is True


class TestInternalFaultIsolation:
    """A non-ReproError fails its own query only, never the batch."""

    @staticmethod
    def _break_source_one(monkeypatch, engine):
        """Make every source-1 query raise a non-ReproError."""
        real = engine._walk_certificate

        def faulty(view, plan, source, target, ctx):
            if source == 1:
                raise RuntimeError("solver blew up")
            return real(view, plan, source, target, ctx)

        monkeypatch.setattr(engine, "_walk_certificate", faulty)
        return engine

    @classmethod
    def _faulty_engine(cls, monkeypatch, **kwargs):
        engine = QueryEngine(
            labeled_path("aaaaaa"), result_cache=False, **kwargs
        )
        return cls._break_source_one(monkeypatch, engine)

    @pytest.mark.parametrize("vectorize", [False, True])
    def test_other_queries_survive(self, monkeypatch, vectorize):
        engine = self._faulty_engine(monkeypatch, vectorize=vectorize)
        batch = engine.run_batch(
            [("a*", 0, 3), ("a*", 1, 3), ("a*", 2, 5), ("a*", 0, 6)]
        )
        assert batch.error_count == 1
        failed = batch.results[1]
        assert failed.strategy == "error"
        assert failed.error == (
            "internal_error: RuntimeError: solver blew up"
        )
        assert [r.length for r in batch.results] == [3, None, 3, 6]

    def test_single_queries_still_raise(self, monkeypatch):
        engine = self._faulty_engine(monkeypatch)
        with pytest.raises(RuntimeError):
            engine.query("a*", 1, 3)

    def test_query_endpoint_counts_the_fault_like_batch(self, monkeypatch):
        registry = GraphRegistry()
        entry = registry.register("g", labeled_path("aaaaaa"))
        self._break_source_one(monkeypatch, entry.engine)
        service = QueryService(registry, ServiceConfig(workers=1))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            with pytest.raises(ServiceError) as info:
                client.query("a*", 1, 3)
            batch = client.batch([("a*", 1, 3)])
            stats = client.stats()
        assert info.value.status == 500
        assert info.value.error_type == "internal_error"
        assert str(info.value) == batch["results"][0]["error"] == (
            "internal_error: RuntimeError: solver blew up"
        )
        (graph_stats,) = stats["graphs"]
        assert graph_stats["queries"] == 2
        assert graph_stats["errors"] == 2


class TestServiceReporting:
    def test_result_record_carries_the_flag(self):
        result = QueryEngine(labeled_path("aa")).query("a*", 0, 2)
        record = result_record(result)
        assert list(record) == list(RESULT_FIELDS)
        assert record["walk_certified"] is True

    def test_stats_count_walk_certified_answers(self):
        registry = GraphRegistry()
        registry.register("g", labeled_path("aaaa"))
        service = QueryService(registry, ServiceConfig(workers=1))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            client.query("a*", 0, 4)          # rung 0
            client.query("ab + ba", 0, 2)     # finite: no rung 0
            client.batch([("(aa)*", 0, 2), ("(aa)*", 1, 3)])
            stats = client.stats()
        (entry,) = stats["graphs"]
        assert entry["queries"] == 4
        assert entry["walk_certified"] == 3


def test_context_charges_match_steps_in():
    # charge_in is the method behind steps_in for every strategy.
    for regex in ("ab + ba", "a*", "(aa)*"):
        solver = RspqSolver(regex)
        ctx = ExecutionContext()
        solver.charge_in(ctx)()
        assert solver.steps_in(ctx) == 1, regex
