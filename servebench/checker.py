"""Answer checker: validate every served record against the graph.

Each served witness is checked independently of the server: the path
is simple, every edge exists with its label, the endpoints match and
``language(regex).dfa`` accepts the word.  ``found`` and the path
length must also equal a reference answer computed here, outside the
timed window.  Lengths are compared, not paths, so a change in how
solvers break ties between equally short witnesses stays legal.

The reference is the solver behind ``repro.core.solver.solve_rspq``
(one ``RspqSolver`` per language) on the graph loaded from the same
text the server received, so it never touches the compiled view,
caches or pool the server answers from.  Two things keep it
affordable.  If no walk at all spells a word of the language from
source to target, no simple path can either, so the answer is a
certified NOT_FOUND without a search; walk existence comes from this
module's own product-graph closure, one pass per language.  And a
large set of queries is answered by two worker processes.

``python -m servebench.checker`` is that worker: it reads the graph
text and triples as JSON on stdin and writes the answers as JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro import RspqSolver, language
from repro.errors import AutomatonError
from repro.graphs import io as graph_io

#: Below this many open queries the reference answers in-process.
PARALLEL_MIN = 200


class Reference:
    """Reference answers and witness checks for one graph text."""

    def __init__(self, text):
        self.text = text
        self.graph = graph_io.loads(text)
        self.vertices = sorted(self.graph.vertices(), key=str)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.out = [[] for _ in self.vertices]
        self.edges = set()
        for source, label, target in self.graph.edges():
            self.out[self.index[source]].append((label, self.index[target]))
            self.edges.add((source, label, target))
        self._languages = {}
        self._solvers = {}
        self._walks = {}
        self._answers = {}

    def language(self, regex):
        lang = self._languages.get(regex)
        if lang is None:
            lang = self._languages[regex] = language(regex)
        return lang

    def expected(self, regex, source, target):
        """``(found, length)`` of the shortest simple path, cached."""
        key = (regex, source, target)
        answer = self._answers.get(key)
        if answer is None:
            if not self.walk_exists(regex, source, target):
                answer = (False, None)
            else:
                solver = self._solvers.get(regex)
                if solver is None:
                    solver = self._solvers[regex] = RspqSolver(
                        self.language(regex))
                result = solver.solve(self.graph, source, target)
                answer = (result.found, result.length)
            self._answers[key] = answer
        return answer

    def prefetch(self, triples, processes=2):
        """Answer ``triples`` ahead of checking, searching in workers."""
        todo = []
        for triple in sorted(set(triples) - self._answers.keys()):
            if self.walk_exists(*triple):
                todo.append(triple)
            else:
                self._answers[triple] = (False, None)
        if len(todo) < PARALLEL_MIN:
            return
        # Plain child processes over pipes, each waited for: nothing
        # outlives the run and nothing is written outside the checkout.
        here = os.path.dirname(os.path.abspath(__file__))
        root = os.path.dirname(here)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [root, os.path.join(root, "src")]))
        parts = [todo[k::processes] for k in range(processes)]
        workers = []
        try:
            for part in parts:
                worker = subprocess.Popen(
                    [sys.executable, "-m", "servebench.checker"], cwd=root,
                    env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                workers.append(worker)
                worker.stdin.write(json.dumps(
                    {"text": self.text, "triples": part}).encode())
                worker.stdin.close()
            results = [json.loads(worker.stdout.read()) for worker in workers]
            if any(worker.wait() != 0 for worker in workers):
                raise RuntimeError("a reference worker failed")
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                worker.wait()
                worker.stdout.close()
        for part, answers in zip(parts, results):
            self._answers.update(zip(part, map(tuple, answers)))

    def walk_exists(self, regex, source, target):
        """Whether some walk from source to target spells a word in L."""
        closure, states = self._walk_closure(regex)
        node = self.index[source] * states + self.language(regex).dfa.initial
        return bool(closure[node] >> self.index[target] & 1)

    def _walk_closure(self, regex):
        """Per product node: bitset of vertices where an accepting walk ends.

        Iterative Tarjan over ``vertex x DFA state``; SCCs complete in
        reverse topological order, so every successor component's set
        is final when a component is closed.
        """
        cached = self._walks.get(regex)
        if cached is not None:
            return cached
        dfa = self.language(regex).dfa
        states = dfa.num_states
        delta = [{} for _ in range(states)]
        for state in range(states):
            for symbol in dfa.alphabet:
                delta[state][symbol] = dfa.transition(state, symbol)
        accepting = set(dfa.accepting)
        out = self.out

        def successors(node):
            vertex, state = divmod(node, states)
            row = delta[state]
            return [
                target * states + row[label]
                for label, target in out[vertex] if label in row
            ]

        total = len(self.vertices) * states
        order = [-1] * total
        low = [0] * total
        comp = [-1] * total
        closure = [0] * total
        stack = []
        counter = 0
        for root in range(total):
            if order[root] != -1:
                continue
            order[root] = low[root] = counter
            counter += 1
            stack.append(root)
            work = [(root, iter(successors(root)))]
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if order[child] == -1:
                        order[child] = low[child] = counter
                        counter += 1
                        stack.append(child)
                        work.append((child, iter(successors(child))))
                        advanced = True
                        break
                    if comp[child] == -1:
                        low[node] = min(low[node], order[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] != order[node]:
                    continue
                members = []
                while True:
                    member = stack.pop()
                    comp[member] = node
                    members.append(member)
                    if member == node:
                        break
                bits = 0
                for member in members:
                    vertex, state = divmod(member, states)
                    if state in accepting:
                        bits |= 1 << vertex
                    for child in successors(member):
                        if comp[child] != node:
                            bits |= closure[comp[child]]
                for member in members:
                    closure[member] = bits
        self._walks[regex] = (closure, states)
        return closure, states

    def problems(self, record, regex, source, target):
        """Why ``record`` is not a correct answer (empty list: correct)."""
        if record.get("error") is not None:
            return ["per-query error: %s" % record["error"]]
        found, length = self.expected(regex, source, target)
        issues = []
        if record.get("found") is not found:
            issues.append("found=%r, reference says %r"
                          % (record.get("found"), found))
        if record.get("found"):
            issues.extend(self.witness_problems(
                regex, source, target, record.get("path"),
                record.get("word"), record.get("length"),
            ))
            if found and record.get("length") != length:
                issues.append("length %r, reference shortest is %r"
                              % (record.get("length"), length))
        return issues

    def witness_problems(self, regex, source, target, path, word, length):
        """Independent validation of one served witness."""
        if not isinstance(path, list) or not isinstance(word, str):
            return ["witness missing: path=%r word=%r" % (path, word)]
        issues = []
        if len(path) != len(word) + 1 or length != len(word):
            issues.append("path of %d vertices spells %d letters (length %r)"
                          % (len(path), len(word), length))
        if not path or path[0] != source or path[-1] != target:
            issues.append("endpoints %r..%r, asked %r..%r"
                          % (path[:1], path[-1:], source, target))
        if len(set(path)) != len(path):
            issues.append("path repeats a vertex: %r" % (path,))
        for step, label in enumerate(word):
            if step + 1 >= len(path):
                break
            edge = (path[step], label, path[step + 1])
            if edge not in self.edges:
                issues.append("no edge %s -%s-> %s" % edge)
        try:
            accepted = self.language(regex).dfa.accepts(word)
        except AutomatonError:
            accepted = False
        if not accepted:
            issues.append("word %r is not in L(%s)" % (word, regex))
        return issues


def _main():
    """Worker: reference answers for the triples on stdin, as JSON."""
    job = json.load(sys.stdin)
    reference = Reference(job["text"])
    json.dump([reference.expected(*triple) for triple in job["triples"]],
              sys.stdout)


if __name__ == "__main__":
    _main()
