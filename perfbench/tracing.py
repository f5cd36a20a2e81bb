"""Spans around the calls into each layer of nodalic, recorded from outside.

The program has no tracing of its own, so the traced run replaces the
public functions of each module with wrappers that record a span per
call and restores the originals afterwards.  Each target is looked up by
name; a function that no longer exists marks its span "absent" and is
skipped, so the same benchmark runs on commits that remove or rename
functions.

A span is (name, start, end, parent, request).  A span's self time is
its duration minus the durations of its children; spans of one thread
never overlap, so that is exactly the time not covered by child spans.
"""

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import update_wrapper

# span name -> dotted paths under the nodalic package, first that resolves wins
TARGETS = (
    ("cli.run", ("cli.run",)),
    ("cli.load", ("cli._load_json",)),
    ("cli.render", ("cli._dumps",)),
    ("points.ingest", ("points.ProjectivePointSet.from_json",)),
    ("points.matrix", ("points.evaluation_matrix",)),
    ("points.checks", ("points.node_span_dim",)),
    ("points.checks", ("points.normal_crossing_check",)),
    ("linalg.check", ("linalg.check_matrix",)),
    ("linalg.to_int", ("linalg._int_rows",)),
    ("linalg.kernel", ("linalg._kernel.reduce_int_rows", "linalg.reduce_int_rows")),
    ("monodromy.ingest", ("monodromy.MonodromyData.from_json",)),
    ("monodromy.validate", ("monodromy.validate",)),
    ("monodromy.span", ("monodromy.span_dim",)),
    ("monodromy.span", ("monodromy.excision_rank",)),
    ("monodromy.complex", ("monodromy.build_stalk_complex",)),
    ("monodromy.cohomology", ("monodromy.complex_cohomology",)),
    ("bott.resolution", ("bott.koszul_resolution",)),
    ("bott.resolution", ("bott.eagon_northcott_resolution",)),
    ("bott.resolution", ("bott.Resolution.from_json",)),
    ("bott.chase", ("bott.h1_vanishing_chase",)),
)

COUNTER_SPAN = "trace.counters"

# per-layer metric -> span whose self time it sums, reported per request
SELF_TIME_METRICS = (
    ("cli.self_s", "cli.run"),
    ("cli.load_s", "cli.load"),
    ("cli.render_s", "cli.render"),
    ("points.ingest_s", "points.ingest"),
    ("points.matrix_s", "points.matrix"),
    ("points.checks_s", "points.checks"),
    ("linalg.check_s", "linalg.check"),
    ("linalg.to_int_s", "linalg.to_int"),
    ("linalg.kernel_s", "linalg.kernel"),
    ("monodromy.ingest_s", "monodromy.ingest"),
    ("monodromy.validate_s", "monodromy.validate"),
    ("monodromy.span_s", "monodromy.span"),
    ("monodromy.complex_s", "monodromy.complex"),
    ("monodromy.cohomology_s", "monodromy.cohomology"),
    ("bott.resolution_s", "bott.resolution"),
    ("bott.chase_s", "bott.chase"),
)


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []  # [name, start, end, parent index or None, request]
        self.stack = []
        self.request = None
        self.counts = Counter()
        self.max_bits = 0

    def open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self):
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, covered):
            totals[name] += end - start - children
        return totals

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                    "request": request,
                }) + "\n")


def _kernel_before(tracer, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    bits = max((abs(x).bit_length() for row in rows for x in row), default=0)
    tracer.max_bits = max(tracer.max_bits, bits)
    return len(rows)


def _kernel_after(tracer, nrows, args, kwargs, pivots):
    """Bareiss inner updates implied by the shape and the pivots.

    Forward pass: pivot r in column c updates the nrows-r-1 rows below it
    in columns c..ncols-1.  Backward pass (``reduced``): pivot k updates
    each row above it from that row's pivot column on, counted as if no
    row is skipped.
    """
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    reduced = args[2] if len(args) > 2 else kwargs.get("reduced", True)
    updates = sum((nrows - r - 1) * (ncols - c) for r, c in enumerate(pivots))
    if reduced:
        updates += sum(
            ncols - pivots[i] for k in range(1, len(pivots)) for i in range(k)
        )
    tracer.counts["linalg.kernel.updates"] += updates


def _matrix_after(tracer, _, args, kwargs, rows):
    tracer.counts["points.matrix.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _complex_after(tracer, _, args, kwargs, complex_):
    levels = getattr(complex_, "summands", ())
    for level in levels:
        for _, basis in level:
            tracer.counts["monodromy.complex.summands"] += 1
            if basis and len(basis[0]):
                tracer.counts["monodromy.complex.useful"] += 1


HOOKS = {
    "linalg.kernel": (_kernel_before, _kernel_after),
    "points.matrix": (None, _matrix_after),
    "monodromy.complex": (None, _complex_after),
}


def _wrap(tracer, name, fn):
    before, after = HOOKS.get(name, (None, None))

    def traced(*args, **kwargs):
        state = None
        if before is not None:
            index = tracer.open(COUNTER_SPAN)
            state = before(tracer, args, kwargs)
            tracer.close(index)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            index = tracer.open(COUNTER_SPAN)
            after(tracer, state, args, kwargs, result)
            tracer.close(index)
        return result

    return update_wrapper(traced, fn)


def _resolve(package, dotted):
    """(owner, attribute name, raw attribute) for a dotted path, or None."""
    *parents, attr = dotted.split(".")
    owner = package
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    if raw is None:
        return None
    return owner, attr, raw


@contextmanager
def instrumented(tracer, package):
    """Wrap every resolvable target; yields the names of absent spans."""
    patched = []
    absent = []
    try:
        for name, candidates in TARGETS:
            found = next(
                (r for r in (_resolve(package, c) for c in candidates) if r), None
            )
            if found is None:
                absent.append(name)
                continue
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(tracer, name, raw.__func__))
            else:
                replacement = _wrap(tracer, name, raw)
            setattr(owner, attr, replacement)
            patched.append((owner, attr, raw))
        yield sorted(set(absent))
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)


def layer_metrics(tracer, requests, stalk_reports):
    """Per-layer metrics of a traced pass over ``requests`` requests.

    Times are mean self seconds per request.  Counts are totals over the
    pass, except validations, which are per ``ic-stalk`` report.
    """
    totals = tracer.self_times()
    calls = Counter(span[0] for span in tracer.spans)
    metrics = {
        metric: (totals.get(span, 0.0) / requests, "s")
        for metric, span in SELF_TIME_METRICS
    }
    counts = tracer.counts
    enumerated = counts["monodromy.complex.summands"]
    metrics.update({
        "points.matrix.cells": (counts["points.matrix.cells"], "count"),
        "linalg.kernel.calls": (calls["linalg.kernel"], "count"),
        "linalg.kernel.updates": (counts["linalg.kernel.updates"], "count"),
        "linalg.kernel.max_bits": (tracer.max_bits, "bits"),
        "monodromy.validate.per_report": (
            calls["monodromy.validate"] / stalk_reports if stalk_reports else 0,
            "count",
        ),
        "monodromy.complex.summands": (enumerated, "count"),
        "monodromy.complex.useful_ratio": (
            counts["monodromy.complex.useful"] / enumerated if enumerated else 0,
            "ratio",
        ),
    })
    return metrics
