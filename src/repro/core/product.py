"""Shared product-graph expansion helpers (DFA × graph, label-native).

Every solver that walks the product of the minimal DFA with a
:class:`~repro.graphs.view.GraphView` needs the same two precomputed
tables before its hot loop starts:

* **per-label transition rows** — ``rows[label_id][state] -> state'``
  with ``None`` rows for graph labels outside the DFA alphabet, so the
  inner loop replaces a string alphabet test plus a keyed transition
  lookup with one list index each;
* **the live-state row** — a flat 0/1 table over DFA states marking
  the co-reachable (accepting-capable) states, so dead product states
  are dropped at expansion time instead of being explored to
  exhaustion.

Historically each solver rebuilt these privately
(:meth:`~repro.algorithms.exact.ExactSolver._transition_rows`, the
tractable solver's segment automaton); the vectorized batch executor
(:mod:`repro.engine.vectorized`) shares the same product expansion
across a whole query group, so the helpers live here once and both
layers call them.

:func:`shortest_accepting_walk` is the one product-graph BFS the
engine's certificate-first dispatch, the solver front door's
canonical-witness pass and the portfolio's walk-probe rung all share:
walk semantics are polynomial, and every simple path is a walk, so
the walk either settles a simple-path query outright or leaves it to
the paper's solver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from ..graphs.view import GraphView
    from ..languages.dfa import DFA

#: A walk as ``(vertex_ids, label_ids)``; ``len(vertex_ids)`` is one
#: more than ``len(label_ids)``.
Walk = tuple[tuple[int, ...], tuple[int, ...]]


def transition_rows(dfa: "DFA", view: "GraphView") -> list[list[int] | None]:
    """Per-label transition rows: ``rows[label_id][state] -> state'``.

    ``None`` rows mark graph labels outside the DFA alphabet — a word
    using such a label is not in L, so product expansion skips the
    whole label with one ``is None`` test.
    """
    states = range(dfa.num_states)
    rows: list[list[int] | None] = []
    for label_id in range(view.num_labels):
        label = view.label_at(label_id)
        if label in dfa.alphabet:
            rows.append([dfa.transition(state, label) for state in states])
        else:
            rows.append(None)
    return rows


def reverse_transition_rows(
    dfa: "DFA",
    view: "GraphView",
    reverse_transitions: dict[tuple[int, str], tuple[int, ...]] | None = None,
) -> list[list[tuple[int, ...]] | None]:
    """``rows[label_id][state_after] -> states_before`` (``None`` = dead label).

    ``reverse_transitions`` is the optional precomputed
    ``(state_after, label) -> states_before`` index (solvers that keep
    one per language pass it in); without it the index is derived from
    the DFA's transition table here.
    """
    if reverse_transitions is None:
        reverse: dict[tuple[int, str], list[int]] = {}
        for state_before, label, state_after in dfa.transitions():
            reverse.setdefault((state_after, label), []).append(state_before)
        reverse_transitions = {
            key: tuple(values) for key, values in reverse.items()
        }
    empty: tuple[int, ...] = ()
    rows: list[list[tuple[int, ...]] | None] = []
    for label_id in range(view.num_labels):
        label = view.label_at(label_id)
        if label in dfa.alphabet:
            rows.append([
                reverse_transitions.get((state, label), empty)
                for state in range(dfa.num_states)
            ])
        else:
            rows.append(None)
    return rows


def live_state_row(dfa: "DFA") -> bytearray:
    """Flat 0/1 row over DFA states: 1 = some accepting state is reachable.

    Product states whose DFA component is dead (``row[state] == 0``)
    can never complete a word of L, so expansions drop them on sight —
    the same pruning the exact solver's goal-distance table implies,
    available before any per-query search runs.
    """
    live = bytearray(dfa.num_states)
    for state in dfa.co_reachable_states():
        live[state] = 1
    return live


def is_simple_walk(vertex_ids: "tuple[int, ...]") -> bool:
    """True when the walk visits no vertex twice (it is a simple path)."""
    return len(set(vertex_ids)) == len(vertex_ids)


# invariant: hot-loop
def shortest_accepting_walk(
    dfa: "DFA",
    view: "GraphView",
    source_id: int,
    target_id: int,
    max_edges: int,
    charge: Callable[[], None],
) -> Walk | None:
    """The canonical shortest accepting walk with at most ``max_edges`` edges.

    Layered BFS over the product graph ``G × A_L`` from
    ``(source, initial)`` to any ``(target, accepting)`` node, ignoring
    simplicity.  Only co-reachable (live) DFA states are expanded: a
    product node in a dead state — e.g. the sink every complete DFA
    carries — can never complete a word of L.

    Frontiers are expanded in discovery order, each node's successors
    in the view's canonical ``(label, target)`` adjacency order, and
    the first discovery of a product node fixes its parent.  The walk
    returned is therefore the *lexicographically least* shortest
    accepting walk in that order — the canonical witness.  Whenever it
    is simple it is also the first shortest simple path a depth-first
    search in the same order reaches, which is what keeps the walk
    certificate path-for-path identical to the solvers.

    ``charge`` is called once per expanded product node (before its
    successors are generated), so the caller's budget and deadline
    bound the BFS; whatever it raises propagates.  Returns
    ``(vertex_ids, label_ids)`` or ``None`` when no accepting walk of
    at most ``max_edges`` edges exists — which proves that no simple
    L-path of that length exists either.
    """
    num_states = dfa.num_states
    initial = dfa.initial
    live = live_state_row(dfa)
    accepting = bytearray(num_states)
    for state in dfa.accepting:
        accepting[state] = 1
    if source_id == target_id and accepting[initial]:
        return (source_id,), ()
    if not live[initial]:
        return None
    # Transition rows with dead successor states folded to -1, so the
    # inner loop drops them with one comparison.
    rows = [
        None if row is None else [
            state if live[state] else -1 for state in row
        ]
        for row in transition_rows(dfa, view)
    ]
    num_labels = len(rows)
    out = view.out
    start = source_id * num_states + initial
    # node -> parent_node * num_labels + label_id (-1 for the start).
    parents = {start: -1}
    frontier = [start]
    goal = -1
    depth = 0
    while frontier and depth < max_edges:
        depth += 1
        next_frontier: list[int] = []
        append = next_frontier.append
        for node in frontier:
            charge()
            vertex_id, state = divmod(node, num_states)
            for label_id, nxt in out(vertex_id):
                row = rows[label_id]
                if row is None:
                    continue
                next_state = row[state]
                if next_state < 0:
                    continue
                next_node = nxt * num_states + next_state
                if next_node in parents:
                    continue
                parents[next_node] = node * num_labels + label_id
                if nxt == target_id and accepting[next_state]:
                    goal = next_node
                    break
                append(next_node)
            if goal >= 0:
                break
        if goal >= 0:
            break
        frontier = next_frontier
    if goal < 0:
        return None
    vertex_ids = [target_id]
    label_ids = []
    link = parents[goal]
    while link >= 0:
        node, label_id = divmod(link, num_labels)
        vertex_ids.append(node // num_states)
        label_ids.append(label_id)
        link = parents[node]
    vertex_ids.reverse()
    label_ids.reverse()
    return tuple(vertex_ids), tuple(label_ids)
