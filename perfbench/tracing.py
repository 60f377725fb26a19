"""Spans recorded around the benchmark's calls into the library.

A span is ``(id, name, start_ns, end_ns, parent_id, instance_id, calls)``.
``calls`` is 1 for a single call and the batch size for a replay span
that times a loop of identical calls.  Spans are kept in memory and
written out once, when the run ends.  Tracing inside the library itself
is not done here: a span covers one public call, whatever it does inside.
"""

import gzip
import json
from time import perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def begin(self, instance):
        return None

    def end(self, sid, start, end):
        """Close an instance span; ``start=None`` drops it (no instance)."""


class Tracer:
    """Spans in memory.  ``totals`` scales durations by the run's ``Speed``
    samples, like every other timing of the benchmark."""

    def __init__(self, speed):
        self.speed = speed
        self.spans = []
        self._next_id = 0
        self.parent = None       # the instance (or section) span being filled
        self.instance = None
        self._sections = []
        self._instance_parent = None

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def open_section(self, name):
        """Start a top-level span (one pass, or the replay) that later spans
        hang below; returns its id."""
        sid = self._new_id()
        self._sections.append((sid, name, perf_counter_ns()))
        self.parent, self.instance = sid, None
        return sid

    def close_section(self):
        sid, name, start = self._sections.pop()
        self.spans.append((sid, name, start, perf_counter_ns(), None, None, 1))
        self.parent = None

    def begin(self, instance):
        sid = self._new_id()
        self._instance_parent = self.parent
        self.parent, self.instance = sid, instance
        return sid

    def end(self, sid, start, end):
        self.parent = self._instance_parent
        if start is not None:
            self.spans.append((sid, "instance", start, end, self.parent,
                               self.instance, 1))
        self.instance = None

    def call(self, name, fn, *args):
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((self._new_id(), name, start, perf_counter_ns(),
                               self.parent, self.instance, 1))

    def batch(self, name, fn, items):
        """Time ``fn(*item)`` over all items as one span; returns the count."""
        self.speed.sample(force=True)
        start = perf_counter_ns()
        n = 0
        for item in items:
            fn(*item)
            n += 1
        self.spans.append((self._new_id(), name, start, perf_counter_ns(),
                           self.parent, None, n))
        self.speed.sample(force=True)
        return n

    def totals(self, section_ids):
        """Per span name below the given sections: [calls, ns, self ns],
        speed-scaled."""
        scale = self.speed.scale
        section_ids = set(section_ids)
        inside = set(section_ids)
        child_ns = {}
        duration = {}
        # spans are appended when they end, so a parent follows its children;
        # walk in reverse to see parents first
        for sid, name, start, end, parent, _, calls in reversed(self.spans):
            if parent not in inside:
                continue
            inside.add(sid)
            duration[sid] = (end - start) * scale(start)
            child_ns[parent] = child_ns.get(parent, 0) + duration[sid]
        out = {}
        for sid, name, start, end, parent, _, calls in self.spans:
            if sid in section_ids or sid not in inside:
                continue
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += duration[sid]
            entry[2] += duration[sid] - child_ns.get(sid, 0)
        return out

    def write(self, path):
        """Write all spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent",
                                 "instance", "calls"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
