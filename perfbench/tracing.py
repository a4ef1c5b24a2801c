"""Span tracing for the benchmark's traced run.

Nothing in the package is edited. Instead, the module attributes that
callers look up (``optimizer.total_loss``, ``inference.fit_posterior``, ...)
are replaced, for the duration of a ``Tracer.patched()`` block, by wrappers
that record one span per call: name, start, end, parent and thread. Spans
stay in memory until ``Tracer.dump`` writes them out.

A span's self time is its duration minus the part of it that child spans on
the same thread cover. Spans opened on a worker thread (the class thread
pool of ``--threads 2``) take as parent the span open on the thread that
owns the tracer, but they run alongside it, so they do not reduce its self
time. On the owning thread, self times sum to the root span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import threading
import time
from collections import defaultdict


def _entries(result, args, kwargs):
    """Kernel entries a kernel build computed: rows x cols of the matrix."""
    matrix = result[1] if isinstance(result, tuple) else result
    return int(matrix.shape[-2] * matrix.shape[-1])


def _escalations(result, args, kwargs):
    """How many times chol_jittered multiplied its base jitter by ten."""
    base = args[1] if len(args) > 1 else kwargs["base_jitter"]
    return int(round(math.log10(result.jitter_used / base)))


def _points(result, args, kwargs):
    return int(sum(r.t.size for r in result))


def _iterations(result, args, kwargs):
    return int(result.iterations)


# (module, attribute, span name, count taken from the call's result)
PATCH_POINTS = (
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_classify", "cli.classify", None),
    ("cli", "cmd_forecast", "cli.forecast", None),
    ("cli", "cmd_timestamps", "cli.timestamps", None),
    ("cli", "load_dataset", "dataio.load_dataset", None),
    ("cli", "dataset_from_records", "dataio.dataset_from_records", None),
    ("cli", "load_queries", "dataio.load_queries", None),
    ("cli", "forecast_split", "dataio.forecast_split", None),
    ("cli", "load_model", "dataio.load_model", None),
    ("cli", "save_model", "dataio.save_model", None),
    ("cli", "file_digest", "dataio.file_digest", None),
    # parse_records and load_dataset both reach the ragged parser
    ("dataio", "parse_ragged", "dataio.parse_records", _points),
    ("dataio", "dataset_from_records", "dataio.dataset_from_records", None),
    ("cli", "train_model", "optimizer.train_model", None),
    ("optimizer", "minimize", "optimizer.minimize", _iterations),
    ("optimizer", "total_loss", "objective.total_loss", None),
    ("optimizer", "loss_gradient", "objective.loss_gradient", None),
    ("objective", "kernel_matrix_components", "kernel.matrix", _entries),
    ("objective", "chol_jittered", "kernel.chol", _escalations),
    ("inference", "kernel_matrix", "kernel.matrix", _entries),
    ("inference", "chol_jittered", "kernel.chol", _escalations),
    ("cli", "classify_many", "inference.classify_many", None),
    ("cli", "forecast", "inference.forecast", None),
    ("bench", "forecast", "inference.forecast", None),
    ("inference", "class_posteriors", "inference.class_posteriors", None),
    ("inference", "fit_posterior", "inference.fit_posterior", None),
    ("inference", "predict", "inference.predict", None),
    ("bench", "class_forecast_errors", "bench.class_forecast_errors", None),
)


class Tracer:
    """Collects spans in memory. Create it on the thread that runs the
    traced commands; that thread's spans form one tree under the root."""

    def __init__(self):
        # span records: [id, name, start, end, parent id, thread ident, count]
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        # a worker thread's outermost span was caused by the owner's open span
        origin = stack or self._owner_stack
        parent = origin[-1] if origin else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, span_id, parent

    def _close(self, opened, name, start):
        end = time.perf_counter()
        stack, span_id, parent = opened
        stack.pop()
        record = [span_id, name, start, end, parent, threading.get_ident(), 0]
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block; yields the span's id."""
        opened = self._open()
        start = time.perf_counter()
        try:
            yield opened[1]
        finally:
            self._close(opened, name, start)

    def wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record = self._close(opened, name, start)
            if count:
                record[6] = count(result, args, kwargs)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, modules):
        """Replace every patch point's attribute with a traced wrapper and
        restore the originals on exit. modules maps short names to modules."""
        saved = []
        try:
            for mod_name, attr, name, count in PATCH_POINTS:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, name, count))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def dump(self, path):
        """Write the span records as JSON lines, one array per span:
        [id, name, start, end, parent id, thread, count]."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record))
                handle.write("\n")


def self_times(spans):
    """Self time of every span record, keyed by span id: its duration minus
    the union of the intervals its children on the same thread cover."""
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)
    out = {}
    for span_id, _, start, end, _, thread, _ in spans:
        covered = 0.0
        cursor = start
        for lo, hi in sorted((c[2], c[3]) for c in children[span_id] if c[5] == thread):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def summarize(spans, root_id):
    """Per span name: calls, inclusive seconds, summed counts and self
    seconds; plus the root span's duration."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    seconds = defaultdict(float)
    counts = defaultdict(int)
    self_by_name = defaultdict(float)
    root_s = None
    for span_id, name, start, end, _, _, n in spans:
        calls[name] += 1
        seconds[name] += end - start
        counts[name] += n
        self_by_name[name] += selfs[span_id]
        if span_id == root_id:
            root_s = end - start
    return {"calls": dict(calls), "s": dict(seconds), "count": dict(counts),
            "self_s": dict(self_by_name), "root_s": root_s}
