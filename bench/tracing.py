"""In-memory spans recorded by the benchmark around calls into qcong.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that was open when it started, the id of the run (one benchmark
repetition) it belongs to, and free-form attributes such as member counts.
Spans stay in memory until the benchmark writes them out at the end.

``NULL`` is the switched-off tracer: it records nothing, so the untraced runs
that produce the end-to-end metrics pay one no-op context manager per call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span; the yielded dict takes attributes set inside it."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, attrs_of):
        """``fn`` with a span around every call; ``attrs_of(*args)`` names it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **attrs_of(*args, **kwargs)):
                return fn(*args, **kwargs)

        return traced

    def of_run(self, run) -> list[dict]:
        return [s for s in self.spans if s["run"] == run]

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh)


class _NullTracer:
    def span(self, name: str, **attrs):
        return contextlib.nullcontext(attrs)


NULL = _NullTracer()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children_of(spans) -> dict[int, list[dict]]:
    kids: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def self_times(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds).

    Self time is a span's duration minus the part of it that its child spans
    cover.  One thread records the spans, so children never overlap and their
    durations add up to the covered part.
    """
    kids = children_of(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        d = duration(s)
        row = out[s["name"]]
        row[0] += 1
        row[1] += d
        row[2] += d - sum(duration(c) for c in kids.get(s["id"], ()))
    return {k: tuple(v) for k, v in out.items()}
