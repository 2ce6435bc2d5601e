"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import os
import random
import tempfile

import pytest

from repro.engine import IndexedGraph
from repro.graphs.generators import random_labeled_graph
from repro.service import save_snapshot
from repro.service.workers import WorkerPool


@pytest.fixture
def rng():
    return random.Random(20130622)  # PODS 2013 conference date


def random_instance(seed, alphabet, max_vertices=12):
    """A reproducible random (graph, x, y) triple."""
    rand = random.Random(seed)
    n = rand.randint(4, max_vertices)
    m = rand.randint(n, 3 * n)
    graph = random_labeled_graph(n, m, alphabet, seed=seed)
    return graph, rand.randrange(n), rand.randrange(n)


def paths_agree(path_a, path_b):
    """Both None, or both found with equal length."""
    if (path_a is None) != (path_b is None):
        return False
    return path_a is None or len(path_a) == len(path_b)


@contextlib.contextmanager
def worker_pool(graph, workers=2, **engine_kwargs):
    """A :class:`WorkerPool` over a fresh snapshot of ``graph``.

    The snapshot lives in a private temporary directory, so the helper
    also works inside hypothesis tests (no function-scoped fixtures).
    """
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "graph.snap")
        save_snapshot(IndexedGraph(graph), path)
        with WorkerPool(
            path, engine_kwargs=engine_kwargs, workers=workers
        ) as pool:
            yield pool
