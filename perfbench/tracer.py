"""Spans and counts recorded around the program's public functions.

The traced run wraps functions from outside, in the benchmark process:
each wrapper records a span (name, start, end, parent) in memory and
adds its duration to per-name totals. A span's self time is its duration
minus the time its child spans cover; the bookkeeping a child's `after`
hook does is charged to the child, so it never inflates a parent's self
time. Nothing under `src/` changes.

Worker processes of `mtsc bench` are forked from the benchmark process
and so inherit the wrappers. Each worker starts from an empty tracer and
appends what it recorded to a file per process after every task; the
parent merges those files after the call.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter_ns as now


class Tracer:
    def __init__(self):
        self._undo = []
        self.pid = os.getpid()
        self.spans = []          # [name, start_ns, end_ns, parent index or -1, pid]
        self._stack = []         # [span index, ns covered by child spans]
        self.calls = Counter()
        self.incl_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()  # bumped by `after` hooks and counting wrappers
        self.maxima = Counter()

    def reset(self):
        """Forget everything recorded, in place: hooks hold these containers."""
        self.pid = os.getpid()
        for container in (self.spans, self._stack, self.calls, self.incl_ns,
                          self.self_ns, self.counts, self.maxima):
            container.clear()

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1][0]][0] if self._stack else None

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, after=None):
        """`fn` recording a span; `after(result, args, kwargs, dur_ns)` runs on return."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = now()
            stack = tracer._stack
            rec = [name, start, 0, stack[-1][0] if stack else -1, tracer.pid]
            frame = [len(tracer.spans), 0]
            tracer.spans.append(rec)
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = now()
                stack.pop()
                rec[2] = end
                tracer.calls[name] += 1
                tracer.incl_ns[name] += end - start
                tracer.self_ns[name] += end - start - frame[1]
                if ok and after is not None:
                    after(result, args, kwargs, end - start)
                if stack:
                    stack[-1][1] += now() - start
            return result

        return wrapper

    def patch(self, owner, attr, name, after=None):
        self.replace(owner, attr, self.span(name, getattr(owner, attr), after))

    def patch_counter(self, owner, attr, key):
        """Count calls of `owner.attr` without a span (for very hot calls)."""
        fn, counts = getattr(owner, attr), self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self.replace(owner, attr, counted)

    def replace(self, owner, attr, new):
        """Set `owner.attr` to `new` until `unpatch`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def unpatch(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- process pool ----------------------------------------------------------

    def pool_class(self):
        """ProcessPoolExecutor recording its `with` block as a `cli.pool` span."""
        tracer = self

        class TimedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                super().__init__(max_workers=max_workers, **kwargs)
                tracer.counts["cli.pool_workers"] += max_workers or os.cpu_count() or 1

            def __enter__(self):
                self._span_start = now()
                return super().__enter__()

            def __exit__(self, *exc):
                result = super().__exit__(*exc)
                end = now()
                tracer.spans.append(["cli.pool", self._span_start, end,
                                     tracer._stack[-1][0] if tracer._stack else -1,
                                     tracer.pid])
                tracer.calls["cli.pool"] += 1
                tracer.incl_ns["cli.pool"] += end - self._span_start
                return result

        return TimedPool

    def worker_entry(self, fn, name, dump_dir: Path):
        """Wrap a pool task: start clean in a forked worker, dump after each task."""
        traced = self.span(name, fn)
        tracer = self

        @functools.wraps(fn)
        def task(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer.reset()   # forget what the parent had recorded before the fork
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.dump(dump_dir / f"worker-{os.getpid()}.jsonl")
                tracer.reset()

        return task

    def dump(self, path: Path):
        record = {"calls": self.calls, "incl_ns": self.incl_ns, "self_ns": self.self_ns,
                  "counts": self.counts, "maxima": self.maxima, "spans": self.spans}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    def merge_dumps(self, dump_dir: Path):
        """Add every worker dump under `dump_dir` to this tracer and delete it."""
        for path in sorted(dump_dir.glob("worker-*.jsonl")):
            for line in path.read_text("utf-8").splitlines():
                record = json.loads(line)
                for key in ("calls", "incl_ns", "self_ns", "counts"):
                    getattr(self, key).update(record[key])
                for key, value in record["maxima"].items():
                    self.maxima[key] = max(self.maxima[key], value)
                base = len(self.spans)
                for name, start, end, parent, pid in record["spans"]:
                    self.spans.append([name, start, end,
                                       parent + base if parent >= 0 else -1, pid])
            path.unlink()

    def write_spans(self, path: Path):
        """Write every span as `index pid name start_ns end_ns parent` lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tpid\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent, pid) in enumerate(self.spans):
                fh.write(f"{i}\t{pid}\t{name}\t{start}\t{end}\t{parent}\n")
