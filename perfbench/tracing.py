"""Span tracer wrapped around isavflow's layer boundaries from outside.

Each traced name is replaced, for the duration of one CLI call, at the place
the package looks it up at run time: a class attribute for methods, the
calling module's global for functions. Every call opens a span with a parent
link; self time is the span's duration minus the time its child spans cover,
derived from a span stack. Counts are kept both in total and for calls made
inside a ``harness.step`` span, which gives exact per-step counts.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

STEP = "harness.step"


def trace_sites():
    """(owner, attribute, span name) of every wrapped name.

    ``harness.step`` is the per-step dispatcher of the run loop;
    ``harness.step_isav_be`` is the bootstrap step of BDF runs.
    ``schemes._rank_one_core`` is private, but it is what every stepper calls.
    ``record_step`` is wrapped where ``schemes`` and ``harness`` bind it.
    """
    from isavflow import harness, potentials, schemes, spectral

    return (
        (spectral.Grid, "forward", "spectral.forward"),
        (spectral.Grid, "inverse", "spectral.inverse"),
        (spectral.Field, "__post_init__", "spectral.field_check"),
        (potentials.DoubleWell, "F", "potentials.DoubleWell.F"),
        (potentials.DoubleWell, "f", "potentials.DoubleWell.f"),
        (potentials.FloryHugginsRegularized, "F", "potentials.FloryHuggins.F"),
        (potentials.FloryHugginsRegularized, "f", "potentials.FloryHuggins.f"),
        (schemes, "_rank_one_core", "schemes.rank_one"),
        (harness, "step", STEP),
        (harness, "step_isav_be", "harness.step_isav_be"),
        (schemes, "record_step", "diagnostics.record_step"),
        (harness, "record_step", "diagnostics.record_step"),
        (harness, "write_series_csv", "harness.write_series_csv"),
        (harness, "write_snapshot", "harness.write_snapshot"),
    )


class Tracer:
    """Collects the spans of one traced call; use as a context manager."""

    def __init__(self):
        self.spans = []          # (id, parent id or -1, name, start, end)
        self.calls = Counter()
        self.calls_in_step = Counter()
        self.self_s = defaultdict(float)
        self.step_ms = []
        self._stack = []         # [id, start, child seconds]
        self._in_step = 0
        self._saved = []

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        is_step = name == STEP

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0, 0.0]
            spans.append(None)
            stack.append(frame)
            if is_step:
                self._in_step += 1
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start = frame[1]
                dur = end - start
                self.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                spans[frame[0]] = (frame[0], parent, name, start, end)
                self.calls[name] += 1
                if is_step:
                    self._in_step -= 1
                    self.step_ms.append(1e3 * dur)
                elif self._in_step:
                    self.calls_in_step[name] += 1

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for owner, attr, name in trace_sites():
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def per_step(self, name) -> float:
        """Calls of ``name`` made inside ``harness.step`` per step taken."""
        steps = self.calls[STEP]
        return self.calls_in_step[name] / steps if steps else 0.0

    def counts(self) -> dict:
        """Exact structural counts of the call: totals and per-step values."""
        names = sorted(set(self.calls) - {STEP})
        return {
            "steps_in_loop": self.calls[STEP],
            "total": {n: self.calls[n] for n in names},
            "per_step": {n: self.per_step(n) for n in names},
        }

    def write_spans(self, path) -> None:
        """Write the spans as CSV: id, parent, name, start and end in seconds."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start - t0!r},{end - t0!r}\n")
