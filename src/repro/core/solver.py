"""Front-door RSPQ solver: classify, then dispatch (Theorem 2 in code).

``RspqSolver`` inspects the language once and picks the regime:

* finite L            → :class:`FiniteLanguageSolver` (the AC0 case),
* infinite L ∈ trC    → :class:`TractableSolver` (the NL case) when an
  anchor decomposition is available, otherwise the exact solver with
  the ``decompose_failed`` warning flag set (surfaced on both the
  solver and every :class:`RspqResult` it produces),
* L ∉ trC             → :class:`ExactSolver` (the NP-complete case; a
  work budget may be supplied).

Results report which strategy ran, so experiments can verify the
dispatch matches the trichotomy.

**The canonical witness.**  A query can have many shortest simple
paths.  The canonical one is the *first* in the graph views'
canonical ``(label, target)`` expansion order, i.e. the
lexicographically least.  The exact solver's branch-and-bound
depth-first search always returns it.  The anchored search of the
tractable solver finds a shortest path but breaks ties its own way,
so the trC branch ends with a canonical-witness pass: after the
paper's solver finds a path of length ``k``, the product-graph BFS
(:func:`~repro.core.product.shortest_accepting_walk`) runs to depth
``k``, and when the lexicographically least shortest accepting walk
is simple it is returned instead — it is a shortest simple path, and
the least one.  The rule therefore holds on every infinite language
whenever that walk is simple, which is exactly what lets the batch
engine answer such queries from the walk alone (see
:mod:`repro.engine.engine`).  Otherwise — and for finite languages,
whose solver tries words first — the solver's own tie-break stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError
from ..graphs.dbgraph import Path
from ..graphs.view import as_graph_view
from ..languages import Language
from ..languages.analysis import useful_symbols
from ..algorithms.bounded import FiniteLanguageSolver
from ..algorithms.exact import ExactSolver
from .nice_paths import TractableSolver
from .product import is_simple_walk, shortest_accepting_walk
from .psitr import decompose
from .trichotomy import Classification, classify


STRATEGY_FINITE = "finite-AC0"
STRATEGY_TRACTABLE = "trc-nice-path"
STRATEGY_EXACT = "exact-backtracking"


@dataclass
class RspqResult:
    """Outcome of one RSPQ evaluation."""

    found: bool
    path: Optional[Path]
    strategy: str
    classification: Classification
    #: True when L ∈ trC but no Ψtr decomposition could be computed, so
    #: the query silently fell back to the exponential exact solver.
    decompose_failed: bool = False

    @property
    def length(self):
        return None if self.path is None else len(self.path)


class RspqSolver:
    """Evaluate regular simple path queries with the right algorithm.

    Construction does all the per-language work (classification,
    decomposition, sub-solver setup); after that the solver is
    immutable and re-entrant: every query's mutable state lives in the
    :class:`~repro.execution.ExecutionContext` threaded through
    :meth:`shortest_simple_path` / :meth:`solve` / :meth:`exists`, so
    one instance — e.g. inside a cached
    :class:`~repro.engine.plan.QueryPlan` — can serve concurrent
    queries.  Context-less calls remain supported for single-threaded
    use (``last_steps()`` then reads the implicit context).

    Parameters
    ----------
    language:
        :class:`~repro.languages.Language` or regex string.
    exact_budget:
        Step budget handed to the exponential solver when it is used.
    force_exact:
        Skip the tractable machinery (useful for baselines in benches).
    use_reach_pruning:
        Consult the graph view's label-constrained reachability index
        (short-circuiting provably unreachable queries and dropping
        dead product states).  On by default; the differential suite
        pins pruned ≡ unpruned results, path for path.
    """

    def __init__(self, language, exact_budget=None, force_exact=False,
                 use_reach_pruning=True):
        if isinstance(language, str):
            language = Language(language)
        self.language = language
        self.classification = classify(language.dfa, with_witness=False)
        #: Symbols occurring in some word of L — the query's label mask
        #: for the reachability index (everything else is dead-state
        #: plumbing no L-labeled path can use).
        self.used_symbols = useful_symbols(language.dfa)
        self.exact_budget = exact_budget
        self.use_reach_pruning = use_reach_pruning
        self._finite_solver = None
        self._tractable_solver = None
        self._exact_solver = None
        self.strategy = STRATEGY_EXACT
        self.decompose_failed = False
        if force_exact:
            pass
        elif self.classification.finite:
            self._finite_solver = FiniteLanguageSolver(
                language, use_reach_pruning=use_reach_pruning
            )
            self.strategy = STRATEGY_FINITE
        elif self.classification.in_trc:
            try:
                expression = decompose(language)
            except ReproError:
                expression = None
            if expression is not None:
                self._tractable_solver = TractableSolver(
                    language, expression=expression,
                    use_reach_pruning=use_reach_pruning,
                )
                self.strategy = STRATEGY_TRACTABLE
            else:
                # L is tractable but we could not build the anchor
                # decomposition; warn rather than silently go exponential.
                self.decompose_failed = True
        if self.strategy == STRATEGY_EXACT:
            self._exact_solver = ExactSolver(
                language, budget=exact_budget,
                use_reach_pruning=use_reach_pruning,
            )

    def shortest_simple_path(self, graph, source, target, ctx=None):
        """The canonical shortest simple L-labeled path, or ``None``.

        ``ctx`` (an :class:`~repro.execution.ExecutionContext`) carries
        the per-query counters and budget/deadline accounting; without
        one, the dispatched solver creates its own and the legacy
        ``last_steps()`` shim reads it afterwards.
        """
        path = self.search(graph, source, target, ctx=ctx)
        if self._tractable_solver is None or path is None or not len(path):
            return path
        return self._canonical_witness(graph, path, ctx)

    def _canonical_witness(self, graph, path, ctx):
        """The least shortest walk of ``len(path)`` edges if simple, else ``path``.

        ``path`` is a shortest simple path, so no accepting walk is
        shorter; the BFS stops at its length.  The walk's expansions
        are charged as anchored-DFS steps, to the implicit context of
        a context-less query.
        """
        if ctx is None:
            ctx = self._tractable_solver.last_stats
        view = as_graph_view(graph)
        walk = shortest_accepting_walk(
            self.language.dfa, view, view.vertex_id(path.source),
            view.vertex_id(path.target), len(path), ctx.charge_dfs_step,
        )
        if walk is None or not is_simple_walk(walk[0]):
            return path
        return view.path(*walk)

    def search(self, graph, source, target, ctx=None):
        """A shortest simple path from the dispatched solver alone.

        The paper's algorithm for the language's regime, without the
        canonical-witness pass: on trC languages a tie between equally
        short paths may resolve differently from
        :meth:`shortest_simple_path`.  The engine calls this only after
        its own walk probe came back inconclusive, which already rules
        out every case where the two differ.
        """
        if self._finite_solver is not None:
            return self._finite_solver.shortest_simple_path(
                graph, source, target, ctx=ctx
            )
        if self._tractable_solver is not None:
            return self._tractable_solver.shortest_simple_path(
                graph, source, target, ctx=ctx
            )
        return self._exact_solver.shortest_simple_path(
            graph, source, target, ctx=ctx
        )

    def solve(self, graph, source, target, ctx=None):
        """Full result object with path and strategy information."""
        path = self.shortest_simple_path(graph, source, target, ctx=ctx)
        return RspqResult(
            found=path is not None,
            path=path,
            strategy=self.strategy,
            classification=self.classification,
            decompose_failed=self.decompose_failed,
        )

    def last_steps(self):
        """Work counter of the most recent context-less query.

        Exact: DFS expansions; tractable: anchored-DFS steps; finite:
        words tried.  ``None`` when no query has run yet.  Queries that
        passed an explicit context are invisible here — read their
        counters off the context via :meth:`steps_in` instead.
        """
        if self._finite_solver is not None:
            return self._finite_solver.words_tried
        if self._tractable_solver is not None:
            stats = self._tractable_solver.last_stats
            return None if stats is None else stats.dfs_steps
        return self._exact_solver.steps

    def steps_in(self, ctx):
        """The strategy-relevant work counter recorded on ``ctx``."""
        if self._finite_solver is not None:
            return ctx.words_tried
        if self._tractable_solver is not None:
            return ctx.dfs_steps
        return ctx.steps

    def charge_in(self, ctx):
        """The ``ctx`` charging method behind :meth:`steps_in`.

        Work done on the strategy's behalf (the engine's walk probe)
        charges this, so budgets and deadlines keep their meaning:
        exact steps count against the budget and the deadline,
        tractable and finite steps against the deadline only.
        """
        if self._finite_solver is not None:
            return ctx.charge_word
        if self._tractable_solver is not None:
            return ctx.charge_dfs_step
        return ctx.charge_step

    def exists(self, graph, source, target, ctx=None):
        """Decision variant of RSPQ(L)."""
        if self._exact_solver is not None:
            return self._exact_solver.exists(graph, source, target, ctx=ctx)
        return self.search(graph, source, target, ctx=ctx) is not None


def solve_rspq(language, graph, source, target, exact_budget=None, ctx=None):
    """One-shot helper: build a solver and answer a single query."""
    solver = RspqSolver(language, exact_budget=exact_budget)
    return solver.solve(graph, source, target, ctx=ctx)
