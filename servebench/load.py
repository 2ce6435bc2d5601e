"""Open- and closed-loop traffic over at most two persistent connections.

Request bodies are encoded before the clock starts and replies are
decoded after it stops, so the generator spends the timed window
waiting on sockets, not in the JSON codec.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from dataclasses import dataclass

from .server import Connection


def query_body(language, source, target):
    """A ``POST /query`` body."""
    return json.dumps({"language": language, "source": source,
                       "target": target}).encode()


def batch_body(triples):
    """A ``POST /batch`` body that lets the server use both workers."""
    return json.dumps({"queries": [list(t) for t in triples],
                       "workers": 2}).encode()


@dataclass
class Sample:
    """One request: when it was due, sent and answered, and the reply."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    request_bytes: int
    traced: bool = False
    #: Filled in by the answer checker: queries asked, and how many
    #: of them failed or came back wrong.
    queries: int = 0
    failed: int = 0

    @property
    def latency(self):
        return self.done - self.due


class Generator:
    """Drives ``bodies`` (pre-encoded JSON) at one server endpoint.

    ``tracer`` (optional) records one span per request around the
    HTTP call, with the request index as the request id.
    """

    def __init__(self, port, path, bodies, connections, tracer=None):
        self.port = port
        self.path = path
        self.bodies = bodies
        self.connections = connections
        self.tracer = tracer
        self.opened = 0
        self.epoch = None
        self._lock = threading.Lock()

    def _run(self, worker):
        conns = [Connection(self.port) for _ in range(self.connections)]
        samples = [[] for _ in conns]
        threads = [
            threading.Thread(target=worker, args=(conn, samples[i]),
                             daemon=True)
            for i, conn in enumerate(conns)
        ]
        # A collection pass over the generator's own heap would stall
        # both connections and show up as server latency.
        gc.collect()
        gc.freeze()
        gc.disable()
        # The clock starts once the collection above is done.
        self.epoch = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            gc.enable()
            gc.unfreeze()
        for conn in conns:
            self.opened += conn.opened
            conn.close()
        merged = [s for part in samples for s in part]
        merged.sort(key=lambda s: s.index)
        return merged

    def _send(self, conn, index, due):
        body = self.bodies[index]
        sent = time.perf_counter()
        if self.tracer is None:
            status, reply = conn.call("POST", self.path, body)
        else:
            with self.tracer.span("service.server.http", request_id=index):
                status, reply = conn.call("POST", self.path, body)
        done = time.perf_counter()
        return Sample(index, due, sent, done, status, reply, len(body),
                      self.tracer is not None)

    def closed_loop(self, first, seconds):
        """Each connection sends its next request when the last returns.

        Stops issuing at ``seconds``; requests in flight then finish.
        """
        counter = itertools.count(first)

        def worker(conn, out):
            while time.perf_counter() < self.epoch + seconds:
                with self._lock:
                    index = next(counter)
                if index >= len(self.bodies):
                    return
                now = time.perf_counter()
                out.append(self._send(conn, index, now))

        return self._run(worker)

    def open_loop(self, first, offsets):
        """Request ``first + k`` is due at ``offsets[k]`` after the start.

        Latency is measured from the due time, so a stalled connection
        charges its wait to every request queued behind it.
        """
        counter = itertools.count()

        def worker(conn, out):
            while True:
                with self._lock:
                    k = next(counter)
                if k >= len(offsets):
                    return
                due = self.epoch + offsets[k]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                out.append(self._send(conn, first + k, due))

        return self._run(worker)
