"""Tests for the benchmark harness itself (inputs, checker, metric names).

Run with ``PYTHONPATH=src python -m pytest servebench -q``.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from servebench import inputs
from servebench.checker import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    make = inputs.WORKLOADS[name]
    first, again, other = make(7), make(7), make(8)
    assert first.graph == again.graph
    assert first.requests(50) == again.requests(50)
    assert first.graph != other.graph
    assert first.requests(50) != other.requests(50)
    assert (inputs.poisson_schedule(7, 100.0, 2.0)
            == inputs.poisson_schedule(7, 100.0, 2.0))
    assert (inputs.poisson_schedule(7, 100.0, 2.0)
            != inputs.poisson_schedule(8, 100.0, 2.0))


def test_solve_and_sweep_never_repeat_a_query():
    solve = inputs.solve(3).requests(600)
    assert len(set(solve)) == len(solve)
    pairs = [q for batch in inputs.sweep(3).requests(4) for q in batch]
    assert len(set(pairs)) == len(pairs)


def test_point_repeats_some_triples():
    triples = inputs.point(3).requests(1400)
    share = 1 - len(set(triples)) / len(triples)
    assert 0.2 < share < 0.5


# A tiny graph: s -a-> m -b-> n -b-> o -c-> t, plus a shortcut s -c-> t
# and a cycle edge o -a-> s.
GRAPH = "e s a m\ne m b n\ne n b o\ne o c t\ne s c t\ne o a s\n"
EXAMPLE1 = "a*(bb^+ + eps)c*"


@pytest.fixture(scope="module")
def reference():
    return Reference(GRAPH)


def record(path, word):
    return {"found": True, "path": path, "word": word,
            "length": len(word), "error": None}


def test_reference_answers(reference):
    assert reference.expected(EXAMPLE1, "s", "t") == (True, 1)
    assert reference.expected("abbc", "s", "t") == (True, 4)
    assert reference.expected("b*", "s", "t") == (False, None)
    assert not reference.walk_exists("b*", "s", "t")
    # The only abbac walk from s to t passes s twice: no simple path.
    assert reference.walk_exists("abbac", "s", "t")
    assert reference.expected("abbac", "s", "t") == (False, None)


def test_checker_accepts_a_correct_witness(reference):
    assert reference.problems(record(["s", "t"], "c"),
                              EXAMPLE1, "s", "t") == []
    assert reference.problems({"found": False, "error": None},
                              "b*", "s", "t") == []


@pytest.mark.parametrize("path, word, fragment", [
    (["s", "m", "n", "m", "t"], "abbc", "repeats a vertex"),
    (["s", "m", "n", "o", "t"], "abcc", "no edge"),
    (["m", "n", "o", "t"], "bbc", "endpoints"),
    (["s", "m", "n", "o", "t"], "abbc", "not in L"),
])
def test_checker_rejects_a_tampered_witness(reference, path, word,
                                            fragment):
    issues = reference.witness_problems("a*c", "s", "t", path, word,
                                        len(word))
    assert any(fragment in issue for issue in issues), issues


def test_checker_rejects_wrong_found_and_length(reference):
    assert reference.problems({"found": False, "error": None},
                              EXAMPLE1, "s", "t")
    longer = record(["s", "m", "n", "o", "t"], "abbc")
    assert any("shortest" in issue for issue in
               reference.problems(longer, EXAMPLE1, "s", "t"))
    assert reference.problems({"error": "boom"}, "b*", "s", "t")


def test_metric_names_and_counts():
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(name.match(n) for n in names), names
    assert len(set(names)) == len(names)
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        inputs.WORKLOADS)


def test_walk_shortcut_agrees_with_solve_rspq():
    import random

    from repro import solve_rspq

    rng = random.Random(5)
    edges = inputs.random_edges(rng, 40, 110)
    text = inputs.graph_text(range(40), edges)
    reference = Reference(text)
    languages = inputs.POINT_LANGUAGES + ("a*(bb^+ + eps)c*", "a*ba*")
    for _ in range(150):
        lang = rng.choice(languages)
        source, target = (str(v) for v in rng.sample(range(40), 2))
        result = solve_rspq(reference.language(lang), reference.graph,
                            source, target)
        assert reference.expected(lang, source, target) == (
            result.found, result.length)
