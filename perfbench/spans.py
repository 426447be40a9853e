"""In-memory span recorder for the traced run.

A span is (name, start, end, parent).  Spans live in flat arrays, so a
traced query that makes tens of thousands of leaf lookups and KB calls
stays cheap to record, and `save` writes them all out once, at the end.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

ROOT = -1


class Spans:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.open: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        """`fn` with a span around every call; nested calls nest their spans."""
        nid = self._name_id(name)
        names, starts, ends, parents, open_ = (
            self.name, self.start, self.end, self.parent, self.open
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else ROOT)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def totals(self, first: int = 0) -> dict[tuple[str, str], tuple[int, float]]:
        """(parent name, name) -> (count, total duration) over the spans
        recorded from index `first` on.  Top-level spans have parent ''."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:]
        dur = np.frombuffer(self.end)[first:] - np.frombuffer(self.start)[first:]
        parent_name = np.where(parent == ROOT, -1, name[np.maximum(parent, 0)])
        k = len(self.names) + 1
        key = (parent_name + 1) * k + name[first:]
        counts = np.bincount(key, minlength=k * k)
        sums = np.bincount(key, weights=dur, minlength=k * k)
        labels = [""] + self.names
        return {
            (labels[j // k], labels[j % k + 1]): (int(counts[j]), float(sums[j]))
            for j in np.flatnonzero(counts)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )
