"""Per-layer spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's side only: each public function of
the package is replaced, for the duration of the traced phase, at the module
attribute its callers look it up through (``gaborwf.wavefront.stft_points``
is what ``estimate_gabor_wf`` calls, ``gaborwf.cli.estimate_gabor_wf`` is what
the CLI calls, and so on).  The untraced phases run with nothing replaced.

A span's self time is its duration minus the durations of its direct child
spans.  Counting done by the tracer itself (walking a returned report) is
recorded as a ``trace.bookkeeping`` child, so it is excluded from the self
time of the span that encloses it and from every reported layer.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter

import gaborwf.cli
import gaborwf.propagator
import gaborwf.signal
import gaborwf.wavefront
from gaborwf.stft import STFT_FLOOR

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Spans and counters of each traced op, kept in memory until the end."""

    def __init__(self):
        self.ops: list[dict] = []
        self.current: dict | None = None
        self._stack: list[int] = []

    def begin_op(self, key: str):
        self.current = {"key": key, "spans": [], "counts": Counter()}
        self._stack = []

    def end_op(self) -> dict:
        op, self.current = self.current, None
        self.ops.append(op)
        return op

    def open(self, name: str) -> int:
        spans = self.current["spans"]
        parent = self._stack[-1] if self._stack else None
        spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(spans) - 1)
        return len(spans) - 1

    def close(self, idx: int):
        self.current["spans"][idx][2] = time.perf_counter()
        self._stack.pop()


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_stft(counts, args, kwargs, result):
    u, pts = _arg(args, kwargs, 0, "u"), _arg(args, kwargs, 2, "points")
    counts["stft.stft_points.calls"] += 1
    counts["stft.stft_points.points"] += len(pts)
    counts["stft.point_samples"] += len(pts) * u.samples.size


def _count_nudft(counts, args, kwargs, result):
    counts["signal.nudft.points"] += len(_arg(args, kwargs, 1, "xi_points"))


def _count_report(counts, args, kwargs, report):
    counts["wavefront.directions"] += len(report.profiles)
    counts["wavefront.floor_hit_rays"] += sum(p.floor_hit for p in report.profiles)
    counts["wavefront.flagged"] += len(report.flagged_indices())
    counts["wavefront.singular"] += len(report.singular_dirs)
    counts["wavefront.isolated"] += len(report.isolated)


def _count_gabor(counts, args, kwargs, report):
    """Report counts plus the points the kernel evaluated after a ray's first
    sub-floor value inside its fit window (the top half of the ray), which an
    early exit could skip."""
    _count_report(counts, args, kwargs, report)
    for ray in report.rays:
        counts["wavefront.points_evaluated"] += len(ray)
        for j in range(len(ray) // 2, len(ray)):
            if ray[j][1] < STFT_FLOOR:
                counts["wavefront.points_after_floor"] += len(ray) - j - 1
                break


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.current is None:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            idx = tracer.open(BOOKKEEPING)
            count(tracer.current["counts"], args, kwargs, result)
            tracer.close(idx)
        return result

    return traced


# (module, attribute, span name, counter): every place a caller looks up a
# traced function.
_SITES = (
    (gaborwf.cli, "main", "cli.main", None),
    (gaborwf.signal, "catalog_entry", "signal.catalog_entry", None),
    (gaborwf.signal, "dump_samples", "signal.dump_samples", None),
    (gaborwf.wavefront, "nudft", "signal.nudft", _count_nudft),
    (gaborwf.wavefront, "stft_points", "stft.stft_points", _count_stft),
    (gaborwf.cli, "estimate_gabor_wf", "wavefront.estimate_gabor_wf", _count_gabor),
    (gaborwf.propagator, "estimate_gabor_wf", "wavefront.estimate_gabor_wf", _count_gabor),
    (gaborwf.cli, "estimate_sigma", "wavefront.estimate_sigma", _count_report),
    (gaborwf.cli, "report_to_json", "wavefront.report_to_json", None),
    (gaborwf.cli, "profiles_to_csv", "wavefront.profiles_to_csv", None),
    (gaborwf.cli, "phase_space_rays", "wavefront.phase_space_rays", None),
    (gaborwf.propagator, "phase_space_rays", "wavefront.phase_space_rays", None),
    (gaborwf.cli, "check_main_theorem", "wavefront.check_main_theorem", None),
    (gaborwf.cli, "verify_propagation", "propagator.verify_propagation", None),
    (gaborwf.propagator, "taper_expansion", "propagator.taper_expansion", None),
    (gaborwf.propagator, "harmonic_propagate", "propagator.harmonic_propagate", None),
    (gaborwf.propagator, "propagate_wf_set", "symplectic.propagate_wf_set", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every traced site with its wrapper; restore on exit."""
    saved = []
    try:
        for module, attr, name, count in _SITES:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, _wrap(tracer, name, getattr(module, attr), count))
        # a classmethod is looked up on the class every caller shares
        basis = gaborwf.propagator.HermiteBasis
        saved.append((basis, "build", basis.__dict__["build"]))
        basis.build = classmethod(_wrap(tracer, "propagator.HermiteBasis.build", basis.__dict__["build"].__func__))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def op_metrics(op: dict) -> dict:
    """Busy ms and self ms per span name, plus the op's counters."""
    spans = op["spans"]
    child_ms = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1e3
    out = Counter(op["counts"])
    for i, (name, start, end, _) in enumerate(spans):
        if name == BOOKKEEPING:
            continue
        ms = (end - start) * 1e3
        out[f"{name}.ms"] += ms
        out[f"{name}.self_ms"] += ms - child_ms[i]
    return out


def per_op_layers(ops: list[dict]) -> dict:
    """Per-op layer numbers: the median over repeats of each distinct op, then
    the mean over distinct ops, so an op mix cut short by the deadline does not
    shift the counts.  Counts repeat exactly because every distinct op is
    deterministic."""
    by_key: dict[str, list[Counter]] = {}
    for op in ops:
        by_key.setdefault(op["key"], []).append(op_metrics(op))
    names = sorted({n for runs in by_key.values() for m in runs for n in m})
    out = {}
    for n in names:
        out[n] = statistics.fmean(
            statistics.median(m.get(n, 0.0) for m in runs) for runs in by_key.values()
        )
    return out
