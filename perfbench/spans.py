"""In-memory span tracing installed from the benchmark's side.

A Tracer replaces module attributes that cyclored looks up at call time
with wrappers that record one span per call: (id, name, start, end,
parent).  Spans stay in memory and are written out once, at the end of
the run.  Wrappers record only in the process that installed them:
census workers forked from a traced parent call straight through, so a
run with workers > 1 has parent-side spans only.  A counter is a lighter
wrapper that only counts calls, for functions called too often to span.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

ID, NAME, START, END, PARENT = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter[str] = Counter()
        self._pid = os.getpid()
        self.enabled = True

    def begin(self, name: str) -> list | None:
        if not self.enabled or os.getpid() != self._pid:
            return None
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def end(self, rec: list | None) -> None:
        if rec is not None:
            rec[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield
        finally:
            self.end(rec)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(rec)

        return traced

    def counter(self, fn, name: str):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def patch(self, module, attr: str, name: str, count_only: bool = False) -> None:
        """Route module.attr through a span (or a counter) named `name`
        until unpatch()."""
        orig = getattr(module, attr)
        self._patches.append((module, attr, orig))
        setattr(module, attr, (self.counter if count_only else self.wrap)(orig, name))

    def patch_pool(self, module) -> None:
        """Time the parent's waits on module.multiprocessing.Pool.

        Pool start-up, each blocking fetch of an imap result and pool
        shutdown become `census.pool_wait` spans.
        """
        tracer = self
        real = module.multiprocessing

        class TimedPool:
            def __init__(self, *args, **kwargs):
                with tracer.span("census.pool_wait"):
                    self._pool = real.Pool(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                with tracer.span("census.pool_wait"):
                    return self._pool.__exit__(*exc)

            def imap(self, fn, iterable):
                results = self._pool.imap(fn, iterable)
                while True:
                    with tracer.span("census.pool_wait"):
                        try:
                            item = next(results)
                        except StopIteration:
                            return
                    yield item

        self._patches.append((module, "multiprocessing", real))
        module.multiprocessing = types.SimpleNamespace(Pool=TimedPool)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)


def calibrate(calls: int = 20_000, repeats: int = 7) -> tuple[float, float]:
    """Seconds that one span and one counted call add to a call: the
    median over repeats of a wrapped minus a bare three-argument call."""
    def bare(a, b, c):
        return a

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(1, 2, 3)
        return (time.perf_counter() - t0) / calls

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        base = per_call(bare)
        costs.append((per_call(tracer.wrap(bare, "calibrate")) - base,
                      per_call(tracer.counter(bare, "calibrate")) - base))
    return (max(statistics.median(c[0] for c in costs), 0.0),
            max(statistics.median(c[1] for c in costs), 0.0))


def dump(span_list, path) -> None:
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent"],
                   "spans": span_list}, fh)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = 0.0
        run_lo = run_hi = None
        for c_lo, c_hi in sorted(children.get(s[ID], ())):
            c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[s[ID]] = (hi - lo) - covered
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, durations."""
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    )
    for s in spans:
        agg = out[s[NAME]]
        agg["count"] += 1
        agg["total_s"] += s[END] - s[START]
        agg["self_s"] += own[s[ID]]
        agg["durations"].append(s[END] - s[START])
    return out


def has_ancestor(spans, span, name: str) -> bool:
    """Whether some enclosing span of `span` is called `name`."""
    parent = span[PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
