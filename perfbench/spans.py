"""Span recording and self-time arithmetic for the traced benchmark run.

Spans are recorded by the benchmark's own wrappers around calls into the
program's layers (``repro`` is never edited).  Each span is
``[name, parent, start, end]`` where ``parent`` indexes the enclosing
span of the same process (``-1`` for a root).  Spans stay in memory and
are written as JSONL when the unit ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; summed over every span of one process,
self times plus the unattributed remainder equal that process's wall
time.

Process-pool workers forked while the wrappers are installed inherit
them.  A worker's recorder notices the new pid, starts empty, and dumps
its spans and counts to ``worker-<pid>.jsonl`` in the sidecar directory
when the worker exits, so in-worker layers reach the unit's report.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

#: Span record layout: ``[name, parent, start, end]``.
NAME, PARENT, START, END = range(4)


class Recorder:
    """In-memory span and count recorder for one process.

    Disabled recorders cost one attribute read per wrapped call, so the
    same wrappers can stay installed while a traced unit runs work that
    must not be recorded.
    """

    def __init__(self, enabled: bool, sidecar_dir: Optional[Path] = None) -> None:
        self.enabled = enabled
        self.sidecar_dir = sidecar_dir
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def _check_process(self) -> None:
        if os.getpid() == self.pid:
            return
        # A forked pool worker: drop what the parent had recorded and
        # dump this worker's own records when it exits.
        self.pid = os.getpid()
        self.spans, self.counts, self._stack = [], Counter(), []
        if self.sidecar_dir is not None:
            from multiprocessing.util import Finalize

            Finalize(None, self.dump_worker, exitpriority=10)

    def open(self, name: str) -> int:
        self._check_process()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.monotonic(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = time.monotonic()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self._check_process()
            self.counts[name] += amount

    def wrap(self, fn, name: str):
        """``fn`` timed as span ``name`` whenever the recorder is enabled."""
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            index = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        return wrapper

    def dump_worker(self) -> None:
        path = self.sidecar_dir / f"worker-{os.getpid()}.jsonl"
        write_jsonl(path, [{"counts": dict(self.counts)}]
                    + [span_dict(s) for s in self.spans])


def span_dict(span: Sequence) -> dict:
    return {"name": span[NAME], "parent": span[PARENT],
            "start": span[START], "end": span[END]}


def write_jsonl(path: Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def read_worker_sidecars(directory: Path):
    """``(spans, counts)`` of every worker sidecar under ``directory``.

    Spans are returned per worker process, since parents index within
    one process.
    """
    per_process: List[List[list]] = []
    counts: Counter = Counter()
    for path in sorted(directory.glob("worker-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        counts.update(rows[0]["counts"])
        per_process.append([[r["name"], r["parent"], r["start"], r["end"]]
                            for r in rows[1:]])
    return per_process, counts


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time per span name: duration minus the part children cover.

    ``spans`` are ``[name, parent, start, end]`` records of one process;
    unclosed spans are ignored.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span[END] is not None and span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        if span[END] is None:
            continue
        own = (span[END] - span[START]) - _covered(
            children.get(index, []), span[START], span[END])
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    return totals
