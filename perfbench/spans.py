"""Span recording for the traced run.

Spans are recorded by the benchmark around its calls into ``crloading``;
nothing inside the package is instrumented.  Each span is
``[name, start, end, parent, trial]`` with times from
``time.perf_counter``; ``parent`` is the index of the enclosing span
(-1 for the root) and ``trial`` the trial index (-1 outside trials).  The
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "trial", "sid")

    def __init__(self, tracer, name, trial):
        self.tracer = tracer
        self.name = name
        self.trial = trial

    def __enter__(self):
        self.sid = self.tracer.open(self.name, self.trial)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, trial=-1):
        return _Span(self, name, trial)

    def open(self, name, trial=-1):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self.spans.append([name, time.perf_counter(), 0.0, parent, trial])
        return sid

    def close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def durations(self, name):
        """Durations in seconds of every span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self):
        """Per-span self time: duration minus the time its children cover
        (children of one span never overlap, the run being single-threaded)."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def layer_self_times(self):
        """Total self time per layer, in seconds."""
        total = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            total[s[0].split(".", 1)[0]] += t
        return dict(total)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}))
                fh.write("\n")


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stands in for ``Tracer`` in the untraced run; records nothing."""

    _span = _NoSpan()

    def span(self, name, trial=-1):
        return self._span
