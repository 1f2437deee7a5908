"""Spans and counters around circnorm's public functions, installed from outside.

Each traced function is replaced, for the duration of ``installed``, by a
wrapper at every name other modules look it up by (``circulant.prefix``
is ``sequences.prefix`` as circulant sees it, ``spectral.to_dense`` is
``circulant.to_dense`` as spectral sees it). The library itself is not
modified. Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records nested spans (id, parent, job, name, start, end) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[int] = []
        self._job = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self._job, name, perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; every span opened inside carries job_id."""
        self._job = job_id
        sid = self.open("job")
        try:
            yield
        finally:
            self.close(sid)
            self._job = None

    def self_times(self) -> Counter:
        """Seconds per span name, each span minus the time its children cover.

        Calls are single-threaded and properly nested, so a span's children
        never overlap and their coverage is the sum of their durations.
        """
        covered: defaultdict = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Counter = Counter()
        for sid, _, _, name, start, end in self.spans:
            totals[name] += (end - start) - covered[sid]
        return totals

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, job, name, start, end in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                      "start": start - t0, "end": end - t0}) + "\n")


def _count_prefix(tracer, args, result):
    tracer.counts["sequences.prefix.terms"] += len(result)


def _count_dense(tracer, args, result):
    tracer.counts["circulant.to_dense.cells_computed"] += result.size


def _count_dft(tracer, args, result):
    tracer.counts["circulant.eigenvalues_dft.points"] += result.order


def _count_power(tracer, args, result):
    record = result[1]
    c = tracer.counts
    c["spectral.spectral_norm_power.iterations_sum"] += record.iterations
    c["spectral.spectral_norm_power.converged"] += record.converged
    if record.iterations:  # zero iterations: the all-zero row returns before any Gram
        c["spectral.gram_macs_computed"] += args[0].order ** 3
    key = "spectral.spectral_norm_power.iterations_max"
    tracer.maxima[key] = max(tracer.maxima[key], record.iterations)


def _count_compare(tracer, args, result):
    tracer.counts["spectral.compare_methods.requested"] += len(result.methods)
    tracer.counts["spectral.compare_methods.skipped"] += sum(
        1 for r in result.methods if r.note and r.note.startswith("skipped")
    )


def trace_points(circnorm):
    """(span name, owners whose attribute is replaced, counter) for each traced function."""
    seq, circ, spec, cli = circnorm.sequences, circnorm.circulant, circnorm.spectral, circnorm.cli
    return [
        ("sequences.term", [seq], None),
        ("sequences.prefix", [seq, circ], _count_prefix),
        ("sequences.closed_form_sum", [seq], None),
        ("sequences.audit_closed_form_identity", [seq], None),
        ("circulant.from_sequence", [circ], None),
        ("circulant.to_dense", [circ, spec], _count_dense),
        ("circulant.eigenvalues_dft", [circ, spec], _count_dft),
        ("spectral.spectral_norm_sum", [spec], None),
        ("spectral.spectral_norm_dft", [spec], None),
        ("spectral.spectral_radius", [spec], None),
        ("spectral.spectral_norm_power", [spec], _count_power),
        ("spectral.compare_methods", [spec], _count_compare),
        ("cli.main", [cli], None),
        ("cli.OutputRecord.to_json", [cli.OutputRecord], None),
    ]


def _wrap(tracer, name, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        tracer.counts[name + ".calls"] += 1
        if count is not None:
            count(tracer, args, result)
        return result

    return traced


def span_cost(reps=20000):
    """Seconds one traced call adds to a plain call, measured on a no-op."""

    def noop():
        return None

    traced = _wrap(Tracer(), "noop", noop, None)

    def best(fn):
        times = []
        for _ in range(3):
            start = perf_counter()
            for _ in range(reps):
                fn()
            times.append(perf_counter() - start)
        return min(times)

    return (best(traced) - best(noop)) / reps


@contextmanager
def installed(tracer, circnorm):
    """Replace every traced function by its wrapper; restore them on exit."""
    saved = []
    try:
        for name, owners, count in trace_points(circnorm):
            attr = name.rsplit(".", 1)[1]
            wrapper = _wrap(tracer, name, getattr(owners[0], attr), count)
            for owner in owners:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
