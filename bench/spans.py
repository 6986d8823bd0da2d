"""In-memory spans around the benchmark's calls into covgraph, plus the
tail statistic the benchmark reports.

A span is (name, start, end, parent, item): `parent` is the index of the
enclosing span or -1, `item` the id of the workload item it served.  Spans
are appended to a list while the run goes and written out once at the end.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Sequence


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: int) -> Iterator[None]:
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, item]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this exact name."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per module: a span's duration minus the
        part its direct children cover, summed by the name's first part."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (end - start - covered)
        return out

    def write(self, path, **meta) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile that still has at least ten samples beyond
    it, but never one below the median: (value, percentile, sample
    count)."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n
