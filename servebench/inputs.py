"""Seeded inputs for the three workloads: graph text and request streams.

Everything here is a pure function of the seed (``random.Random``
only), so the same seed always yields byte-identical graph files and
request sequences.  The graph constructions repeat the ones in
``repro.graphs.generators.random_labeled_graph`` and
``benchmarks/workloads.sweep_skewed_workload`` inside the benchmark's
own files, so a later change to the program cannot silently change
the benchmark's inputs.
"""

from __future__ import annotations

import itertools
import random

#: Cheap languages from all three regimes (AC0, NL, NP-complete).
POINT_LANGUAGES = ("ab + ba", "abc", "a*", "c*", "(aa)*")
#: trC languages (Example 1 and friends) plus NP-complete ones.
#: ``a*bc*`` is NP-complete under the repo's classifier, not trC.
SOLVE_LANGUAGES = (
    "a*(bb^+ + eps)c*", "b*c*", "c*a*", "a*bc*", "a*ba*", "(aa)*",
)
#: The single shared hard plan every sweep batch asks.
SWEEP_LANGUAGE = "a*ba*"

POINT_VERTICES = 400
POINT_EDGES = 1400
#: Zipf exponent of endpoint popularity on ``point``; with the open
#: loop's request count it makes about a third of triples repeats.
POINT_ZIPF = 1.3

#: ``solve`` is a union of small random components: a component caps
#: the worst single search, and many of them average out how hard any
#: one seed's graph happens to be.
SOLVE_COMPONENTS = 96
SOLVE_COMPONENT_VERTICES = 120
SOLVE_COMPONENT_EDGES = 480

SWEEP_VERTICES = 3000
SWEEP_OUT_DEGREE = 3
SWEEP_SINK_EVERY = 10
SWEEP_BATCH = 500


def _rng(seed, stream):
    """Independent generator per (seed, stream) so streams never mix."""
    return random.Random("%d/%s" % (seed, stream))


def random_edges(rng, num_vertices, num_edges, alphabet="abc", offset=0):
    """Distinct labeled edges drawn like ``random_labeled_graph``."""
    letters = sorted(alphabet)
    seen = set()
    edges = []
    attempts = 0
    while len(edges) < num_edges and attempts < 50 * num_edges + 100:
        attempts += 1
        source = rng.randrange(num_vertices)
        target = rng.randrange(num_vertices)
        label = rng.choice(letters)
        if (source, label, target) not in seen:
            seen.add((source, label, target))
            edges.append((source + offset, label, target + offset))
    return edges


def graph_text(vertices, edges):
    """The ``repro.graphs.io`` text format: edges, then isolated vertices."""
    lines = ["e %s %s %s" % edge for edge in edges]
    touched = {edge[0] for edge in edges} | {edge[2] for edge in edges}
    lines.extend("v %s" % v for v in vertices if v not in touched)
    return "\n".join(lines) + "\n"


class Workload:
    """One workload's inputs for one seed.

    ``graph`` is the text the server loads; ``requests(n)`` is the
    first ``n`` items of the workload's deterministic request stream
    and ``workload[i]`` its ``i``-th item.
    Point and solve items are ``(language, source, target)`` triples;
    sweep items are lists of ``SWEEP_BATCH`` such triples (one batch).
    Vertex names are strings, as the text format loads them.
    """

    def __init__(self, name, seed, graph, languages, stream):
        self.name = name
        self.seed = seed
        self.graph = graph
        self.languages = languages
        self._stream = stream
        self._items = []

    def _fill(self, count):
        while len(self._items) < count:
            self._items.append(next(self._stream))

    def requests(self, count):
        self._fill(count)
        return self._items[:count]

    def __getitem__(self, index):
        self._fill(index + 1)
        return self._items[index]


def point(seed):
    rng = _rng(seed, "point-graph")
    vertices = list(range(POINT_VERTICES))
    edges = random_edges(rng, POINT_VERTICES, POINT_EDGES)
    return Workload("point", seed, graph_text(vertices, edges),
                    POINT_LANGUAGES, _point_stream(seed))


def _point_stream(seed):
    rng = _rng(seed, "point-requests")
    order = [str(v) for v in range(POINT_VERTICES)]
    rng.shuffle(order)
    weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** POINT_ZIPF for rank in range(len(order))
    ))
    while True:
        language = rng.choice(POINT_LANGUAGES)
        source, target = rng.choices(order, cum_weights=weights, k=2)
        if source != target:
            yield (language, source, target)


def solve(seed):
    rng = _rng(seed, "solve-graph")
    edges = []
    for component in range(SOLVE_COMPONENTS):
        edges.extend(random_edges(
            rng, SOLVE_COMPONENT_VERTICES, SOLVE_COMPONENT_EDGES,
            offset=component * SOLVE_COMPONENT_VERTICES,
        ))
    vertices = range(SOLVE_COMPONENTS * SOLVE_COMPONENT_VERTICES)
    return Workload("solve", seed, graph_text(vertices, edges),
                    SOLVE_LANGUAGES, _solve_stream(seed))


def _solve_stream(seed):
    """Distinct triples, round-robin over languages and components."""
    rng = _rng(seed, "solve-requests")
    seen = set()
    for index in itertools.count():
        language = SOLVE_LANGUAGES[index % len(SOLVE_LANGUAGES)]
        component = (index // len(SOLVE_LANGUAGES)) % SOLVE_COMPONENTS
        base = component * SOLVE_COMPONENT_VERTICES
        while True:
            source = base + rng.randrange(SOLVE_COMPONENT_VERTICES)
            target = base + rng.randrange(SOLVE_COMPONENT_VERTICES)
            triple = (language, str(source), str(target))
            if source != target and triple not in seen:
                break
        seen.add(triple)
        yield triple


def sweep(seed):
    rng = _rng(seed, "sweep-graph")
    edges = []
    for vertex in range(SWEEP_VERTICES):
        for _ in range(SWEEP_OUT_DEGREE):
            edges.append((vertex, "a", rng.randrange(SWEEP_VERTICES)))
    for vertex in range(0, SWEEP_VERTICES, SWEEP_SINK_EVERY):
        edges.append((vertex, "b", "sink"))
    vertices = list(range(SWEEP_VERTICES)) + ["sink"]
    return Workload("sweep", seed, graph_text(vertices, edges),
                    (SWEEP_LANGUAGE,), _sweep_stream(seed))


def _sweep_stream(seed):
    """Batches of pairs that are distinct across the whole run."""
    rng = _rng(seed, "sweep-requests")
    seen = set()
    while True:
        batch = []
        while len(batch) < SWEEP_BATCH:
            pair = (rng.randrange(SWEEP_VERTICES),
                    rng.randrange(SWEEP_VERTICES))
            if pair[0] != pair[1] and pair not in seen:
                seen.add(pair)
                batch.append((SWEEP_LANGUAGE, str(pair[0]), str(pair[1])))
        yield batch


WORKLOADS = {"point": point, "solve": solve, "sweep": sweep}


def poisson_schedule(seed, rate, seconds):
    """Due offsets (seconds from start) of an open loop at ``rate``/s."""
    rng = _rng(seed, "arrivals")
    due = []
    clock = rng.expovariate(rate)
    while clock < seconds:
        due.append(clock)
        clock += rng.expovariate(rate)
    return due
