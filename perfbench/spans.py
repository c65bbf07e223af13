"""In-memory spans for the traced run.

A span has a name, a start, an end, the span that was open when it began
(its parent) and the id of the op it belongs to.  Garbage collections are
recorded through ``gc.callbacks`` as child spans ``gc.gen<N>`` of whichever
span is open.  Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._op: str | None = None
        self._gc_start = 0.0

    @contextmanager
    def op(self, op_id: str):
        """Spans opened inside belong to ``op_id``; the op is a span too."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid][_END] = time.perf_counter()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        parent = self._open[-1] if self._open else -1
        self.spans.append(
            [f"gc.gen{info['generation']}", self._gc_start, time.perf_counter(), parent, self._op]
        )

    def install_gc_hook(self) -> None:
        gc.callbacks.append(self._on_gc)

    def remove_gc_hook(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        out = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] >= 0:
                out[s[_PARENT]] -= s[_END] - s[_START]
        return out

    def per_op(self) -> dict[str, dict[str, list[float]]]:
        """op id -> span name -> self times of that op's spans, in order."""
        table: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        for s, self_time in zip(self.spans, self.self_times()):
            table[s[_OP]][s[_NAME]].append(self_time)
        return table

    def op_durations(self) -> dict[str, float]:
        return {s[_OP]: s[_END] - s[_START] for s in self.spans if s[_NAME] == "op"}

    def dump(self, path, header: dict) -> None:
        base = self.spans[0][_START] if self.spans else 0.0
        spans = [
            {"id": i, "name": s[_NAME], "start": s[_START] - base, "end": s[_END] - base,
             "parent": s[_PARENT], "op": s[_OP]}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": spans}, fh)
