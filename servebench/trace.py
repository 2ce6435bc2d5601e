"""In-memory spans recorded from the benchmark's own calls into layers.

A span has a name, start, end, parent span and request id.  Spans are
kept in memory and written out once, at the end of the traced run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name, request_id=None):
        """Record one span; spans opened inside it name it as parent."""
        span_id = next(self._ids)
        parent = getattr(self._local, "current", None)
        self._local.current = span_id
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._local.current = parent
            self.spans.append((span_id, parent, name, request_id, start, end))

    def self_times(self):
        """Per span name: total duration minus what its children cover."""
        children = {}
        for span_id, parent, _name, _rid, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals = {}
        for span_id, _parent, name, _rid, start, end in self.spans:
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def dump(self, path):
        fields = ("id", "parent", "name", "request_id", "start", "end")
        with open(path, "w") as handle:
            json.dump({
                "spans": [dict(zip(fields, span)) for span in self.spans],
                "self_seconds": self.self_times(),
            }, handle)
