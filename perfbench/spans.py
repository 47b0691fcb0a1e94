"""In-memory spans for the traced run, written to JSON when the run ends."""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Tracer:
    """Spans around the calls the benchmark makes into each layer.

    A span records its name, start and end (seconds since the tracer was
    created), its parent span, the operation it belongs to and the workload.
    Nothing is written until :meth:`write`.
    """

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._stack: "list[int]" = []
        self.spans: "list[dict]" = []
        self.workload: "str | None" = None
        self.op_id = 0

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "workload": self.workload,
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    @contextmanager
    def op(self):
        """One operation: a fresh operation id and a root ``op`` span."""
        self.op_id += 1
        with self.span("op") as record:
            yield record

    def select(self, workload: str, name: str) -> "list[dict]":
        return [s for s in self.spans if s["workload"] == workload and s["name"] == name]

    def seconds(self, workload: str, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.select(workload, name))

    def write(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.spans}, handle)
