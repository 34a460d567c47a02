"""Spans and counters recorded around calls into hxproof's modules.

Two kinds of call are timed. A *span* is kept in memory with its name,
start, end, parent span and op id, and written out when the run ends. A
*leaf* (a hot, tiny call such as `print_node`, made tens of thousands of
times per op) is only counted and timed, because a record per call would
dominate the run's memory and overhead. Both kinds are charged to the
enclosing span, so a span's self time is its duration minus the time its
children cover; the tracer's own bookkeeping after a call (node counting
and the like) is charged to the child too, never to the parent's self time.
Everything is single-threaded: the open spans form one stack.
"""

import json
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []                  # (id, name, start, end, parent, op)
        self.stack = []                  # open frames: [id, child_time]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.op = None
        self._patches = []

    def _run(self, name, record, fn, args, kwargs, after):
        parent = self.stack[-1][0] if self.stack else None
        sid = len(self.spans) if record else None
        if record:
            self.spans.append(None)      # reserve the id in start order
        frame = [sid, 0.0]
        self.stack.append(frame)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            self.stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            if record:
                self.spans[sid] = (sid, name, t0, t1, parent, self.op)
        if after is not None:
            after(self, result, dur, args)
        if self.stack:
            self.stack[-1][1] += perf() - t0
        return result

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args) inside a recorded span."""
        return self._run(name, True, fn, args, kwargs, None)

    def wrap(self, name, fn, leaf=False, after=None):
        """A stand-in for fn that times each call.

        `after(tracer, result, duration, args)` runs outside the timed
        interval, for counters derived from the call's result.
        """
        def wrapped(*args, **kwargs):
            return self._run(name, not leaf, fn, args, kwargs, after)
        return wrapped

    def patch(self, module, attr, name, leaf=False, after=None):
        """Rebind module.attr to a timed stand-in until `unpatch`."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, leaf, after))

    def unpatch(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def count(self, name, amount=1):
        self.counts[name] += amount

    def write(self, path):
        """Write the recorded spans as JSON lines (times relative to the first)."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": t0 - origin, "end": t1 - origin,
                                     "parent": parent, "op": op}) + "\n")

