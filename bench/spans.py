"""The benchmark's own spans, recorded around calls into each layer.

Spans live in memory and are written out when the traced pass ends.  A
span records its name, start, end, parent id and the id of the run it
belongs to; a layer's *self time* is its span minus the part of that
interval its child spans cover (children may overlap each other — slices
on two workers do — so coverage is an interval union, not a sum).
"""

import json
import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span list with a parent stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = 0

    @contextmanager
    def run(self):
        """Group the spans opened inside under a fresh run id."""
        self.run_id += 1
        yield self.run_id

    @contextmanager
    def span(self, name: str, **args):
        record = self._open(name, time.perf_counter(), args)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int,
            **args) -> dict:
        """Record an already-measured interval as a child of ``parent``."""
        record = self._open(name, start, args)
        record["parent"] = parent
        record["run"] = self.spans[parent]["run"]
        record["end"] = end
        return record

    def _open(self, name: str, start: float, args: dict) -> dict:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id, "start": start, "end": None}
        if args:
            record["args"] = args
        self.spans.append(record)
        return record

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.spans,
                       "by_name": aggregate(self.spans)}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, cursor)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = duration(span) - covered
    return result


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: count, total seconds and total self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span["name"],
                               {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration(span)
        row["self_s"] += selfs[span["id"]]
    return table
