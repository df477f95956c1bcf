"""Spans around calls into polarspec's public functions, for the traced run.

The program itself is not instrumented. Instead, each public function
listed in LAYERS is wrapped, while a traced pass runs, in every
``polarspec`` module namespace that binds it: ``cli`` and ``oracle`` import
names directly, so wrapping only the defining module would miss their
calls. Each call records a span (id, parent, job, layer, function name,
start, end); spans stay in memory and the benchmark writes them out at
the end.
``dyadic`` and ``kernel`` have no boundary here; their work is counted in
their callers' spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import NamedTuple

from polarspec.pretransform import free_entry_count
from polarspec.report import SpectrumReport

# layer -> (defining module, public functions), and the end-to-end metric
# each layer should move, on which workload.
LAYERS = {
    "construct": ("polarspec.construct", ("construct_pw", "construct_rm"),
                  "wall_s, job_p50_s on rate-sweep; ~0 elsewhere"),
    "spectrum": ("polarspec.spectrum", ("avg_spectrum", "avg_nmin"),
                 "wall_s, peak_rss_mb on recursion-full; job_tail_s on rate-sweep; absent on sampling"),
    "scl": ("polarspec.scl", ("collect_low_weight",), "wall_s on sampling"),
    "oracle": ("polarspec.oracle", ("exact_spectrum", "ensemble_average_exact"),
               "wall_s on sampling"),
    "oracle.mc": ("polarspec.oracle", ("ensemble_average_mc",),
                  "wall_s on sampling (aggregation only)"),
    "pretransform": ("polarspec.pretransform",
                     ("identity_transform", "random_transform", "pac_transform",
                      "crc_transform", "derive_seeds"),
                     "minor share of wall_s on sampling"),
    "report": ("polarspec.report", ("report_from_average", "report_from_histogram"),
               "job_p50_s on rate-sweep; small share on recursion-full"),
    "cli": ("polarspec.cli", ("main",),
            "job_p50_s on rate-sweep (argument parsing, --verify, file write)"),
}
REPORT_METHODS = ("to_json", "to_csv")


class Span(NamedTuple):
    id: int
    parent: int | None
    job: int
    layer: str
    name: str
    start: float
    end: float


def _count_spectrum(counts, name, args, result):
    if name == "avg_nmin":
        nums = [result[1].num]
    else:
        nums = [v.num for v in result.entries.values()]
    counts["spectrum.entries"] += len(nums)
    counts["spectrum.max_num_bits"] = max(counts["spectrum.max_num_bits"],
                                          max(x.bit_length() for x in nums))


def _count_scl(counts, name, args, result):
    # final list = every counted codeword plus the zero word
    useful = 1 + sum(c for c, s in zip(result.counts, result.saturated) if not s)
    counts["scl.useful"] += useful
    counts["scl.list_entries"] += 1 + sum(result.counts)


def _count_oracle(counts, name, args, result):
    if name == "exact_spectrum":
        counts["oracle.messages"] += sum(result.counts)
    else:
        counts["oracle.messages"] += result.samples << args[0].k


def _count_pretransform(counts, name, args, result):
    if name == "random_transform":
        counts["pretransform.free_entries"] += free_entry_count(args[0])


def _count_report(counts, name, args, result):
    if name in REPORT_METHODS:
        counts["report.bytes"] += len(result.encode())


COUNTERS = {
    "spectrum": _count_spectrum,
    "scl": _count_scl,
    "oracle": _count_oracle,
    "pretransform": _count_pretransform,
    "report": _count_report,
}


class Tracer:
    """Records spans and counts for one traced pass.

    Spans are recorded only between ``begin_job`` and ``end_job``, so the
    benchmark's own checks never show up as program time.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.jobs: list[str] = []
        self._job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_job(self, key: str) -> None:
        self._job = len(self.jobs)
        self.jobs.append(key)

    def end_job(self) -> None:
        self._job = None

    def _wrap(self, layer: str, name: str, fn):
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id; filled when the call ends
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, parent, self._job, layer, name, start, end)
            if counter is not None:
                counter(self.counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every listed function in polarspec modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "polarspec" or n.startswith("polarspec."))]
        for layer, (home, names, _) in LAYERS.items():
            for name in names:
                original = getattr(sys.modules[home], name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for name in REPORT_METHODS:
            original = getattr(SpectrumReport, name)
            self._patches.append((SpectrumReport, name, original))
            setattr(SpectrumReport, name, self._wrap("report", name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer: span durations minus the time their child spans cover."""
    children: defaultdict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: defaultdict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += (s.end - s.start) - _covered(children[s.id], s.start, s.end)
    return dict(out)


def layer_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """calls and self seconds per layer for one traced pass."""
    calls: defaultdict[str, int] = defaultdict(int)
    for s in tracer.spans:
        calls[s.layer] += 1
    selfs = self_times(tracer.spans)
    return {layer: {"calls": calls[layer], "self_s": selfs.get(layer, 0.0)} for layer in LAYERS}


def layer_metrics(tracers: list[Tracer]) -> dict[str, float]:
    """The per-layer metrics: self times are the best over the traced passes;
    counts are those of the last pass (every pass runs the same jobs)."""
    tables = [layer_table(t) for t in tracers]
    last, counts = tables[-1], tracers[-1].counts

    def self_s(layer):
        return min(t[layer]["self_s"] for t in tables)

    return {
        "construct.calls": last["construct"]["calls"],
        "construct.self_s": self_s("construct"),
        "spectrum.calls": last["spectrum"]["calls"],
        "spectrum.self_s": self_s("spectrum"),
        "spectrum.entries": counts["spectrum.entries"],
        "spectrum.max_num_bits": counts["spectrum.max_num_bits"],
        "scl.calls": last["scl"]["calls"],
        "scl.self_s": self_s("scl"),
        "scl.useful_frac": (counts["scl.useful"] / counts["scl.list_entries"]
                            if counts["scl.list_entries"] else 0.0),
        "oracle.calls": last["oracle"]["calls"],
        "oracle.self_s": self_s("oracle"),
        "oracle.messages": counts["oracle.messages"],
        "oracle.mc_self_s": self_s("oracle.mc"),
        "pretransform.calls": last["pretransform"]["calls"],
        "pretransform.self_s": self_s("pretransform"),
        "pretransform.free_entries": counts["pretransform.free_entries"],
        "report.self_s": self_s("report"),
        "report.bytes": counts["report.bytes"],
        "cli.self_s": self_s("cli"),
    }
