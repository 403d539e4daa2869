"""Spans recorded by the benchmark around its own calls into each module.

A span is ``(name, start, end, parent, iteration)`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (or
-1).  Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, ITERATION = range(5)


class Tracer:
    """Records spans; module spans only when tracing is enabled.

    Phase spans (``always=True``: iteration, setup, solve, check) are
    recorded in both modes, because the end-to-end times are read from
    them.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.iteration = 0
        self._open = []

    @contextmanager
    def span(self, name, always=False):
        if not (self.enabled or always):
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        # reserve the slot now so children can name this span as parent;
        # the finished span is a tuple, which the garbage collector stops tracking
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, perf_counter(), parent, self.iteration)
            self._open.pop()

    def operator(self, op):
        """The operator to pass as ``op=``: a recording proxy when tracing."""
        return TracedOperator(op, self) if self.enabled else op

    def summary(self, iteration):
        """Per-name totals, counts and self times for one iteration."""
        spans = [(k, s) for k, s in enumerate(self.spans) if s[ITERATION] == iteration]
        covered = defaultdict(float)
        for _, s in spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        total, count, own = defaultdict(float), defaultdict(int), defaultdict(float)
        for k, s in spans:
            duration = s[END] - s[START]
            total[s[NAME]] += duration
            count[s[NAME]] += 1
            own[s[NAME]] += duration - covered[k]
        return total, count, own

    def write(self, path, header):
        """Write the header fields plus every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "span_fields": ["name", "start", "end", "parent", "iteration"],
                       "spans": self.spans}, fh)


class TracedOperator:
    """Stand-in for a ``SparseOperator`` that records each apply as a span.

    Every right-hand-side evaluation of the integrator applies the operator
    once to the (2, N) state, so those spans also count RHS evaluations.
    """

    def __init__(self, op, tracer):
        self._op = op
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._op, name)

    def apply(self, field):
        name = "lbo.apply" if getattr(field, "ndim", 1) == 2 else "lbo.apply_1d"
        with self._tracer.span(name):
            return self._op.apply(field)
