"""Spans around the package's public functions, for the traced run only.

`install` wraps each public function of the four layers and patches the
wrapper into every `prime_gauge` module that imported the original, and
patches `PiTable.pi` and `PiTable.nth` at class level. Spans (name, start,
end, parent, op id) stay in memory; `layer_metrics` turns them into per-pass
figures after the run. Nothing inside the package is edited.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

# Public functions wrapped per layer: (module, function); the span is "module.function".
FUNCTIONS = (
    ("sieve", "build_basis"),
    ("sieve", "count_primes"),
    ("sieve", "pi_at_points"),
    ("conjectures", "leg_many"),
    ("conjectures", "threshold_search"),
    ("conjectures", "interval_count"),
    ("conjectures", "brocard_count"),
    ("conjectures", "nth_prime_bound"),
    ("conjectures", "evaluate_leg"),
    ("scan_report", "run_scan"),
    ("scan_report", "reproduce_table"),
    ("scan_report", "render"),
    ("cli", "main"),
    ("cli", "build_parser"),
)
PITABLE_METHODS = ("pi", "nth")  # spans "sieve.pitable.pi" and "sieve.pitable.nth"
SELF_TIMED = (
    "conjectures.leg_many",
    "conjectures.threshold_search",
    "conjectures.interval_count",
    "conjectures.brocard_count",
    "conjectures.nth_prime_bound",
    "conjectures.evaluate_leg",
    "scan_report.run_scan",
    "scan_report.reproduce_table",
)

# Every per-layer metric, in report order: (name, unit). All are per pass
# except the ratio, the allocation peak and the overhead.
PER_LAYER = (
    ("sieve.pi_at_points.s", "s"),
    ("sieve.pi_at_points.ints", "count"),
    ("sieve.pi_at_points.gather_s", "s"),
    ("sieve.count_primes.calls", "count"),
    ("sieve.count_primes.s", "s"),
    ("sieve.count_primes.ints", "count"),
    ("sieve.build_basis.calls", "count"),
    ("sieve.build_basis.s", "s"),
    ("sieve.pitable.grow.calls", "count"),
    ("sieve.pitable.grow.s", "s"),
    ("sieve.pitable.grow.ints", "count"),
    ("sieve.pitable.hit.calls", "count"),
    ("sieve.pitable.hit.s", "s"),
    ("sieve.pitable.hit_ratio", "ratio"),
    ("sieve.alloc_peak_mb", "MB"),
    *((f"{name}.self_s", "s") for name in SELF_TIMED),
    ("scan_report.render.s", "s"),
    ("scan_report.render.bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.build_parser.s", "s"),
    *((f"cli.exit.{code}", "count") for code in (0, 1, 2, 3)),
    ("trace.overhead_s", "s"),
)


class Span(NamedTuple):
    """A finished span. It holds plain values only, so the cyclic GC soon stops scanning it."""

    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    op: int
    ints: int = 0  # integers swept, or added to a PiTable
    nbytes: int = 0  # bytes rendered
    rc: int | None = None  # exit code of cli.main
    top: int = -1  # largest point of a pi_at_points call
    segment: int = 0  # its segment size


@dataclass(slots=True)
class _Open:
    id: int
    name: str
    parent: int
    op: int
    start: float = 0.0
    track: bool = False  # this span started tracemalloc


class Tracer:
    """Collects spans; a worker thread's first span hangs off the creating thread's open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1  # index of the benchmark call in progress
        self.alloc_peak = 0  # bytes, the largest tracemalloc peak inside one tracked span
        self.track_alloc = False  # tracemalloc slows every allocation, so it runs in its own pass
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> _Open | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._home[-1] if self._home else None

    def begin(self, name: str, alloc: bool = False) -> _Open:
        """Open a span; with `alloc`, record the tracemalloc peak inside it."""
        parent = self.current()
        rec = _Open(next(self._ids), name, parent.id if parent else -1, self.op)
        self._stack().append(rec)
        if alloc and self.track_alloc and not tracemalloc.is_tracing():
            rec.track = True
            tracemalloc.start()
        rec.start = time.perf_counter()
        return rec

    def finish(self, rec: _Open, end: float, **fields) -> None:
        """Close `rec`, which ended at `end`; tracemalloc's own cost falls outside the span."""
        if rec.track:
            self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        self._stack().pop()
        self.spans.append(Span(rec.id, rec.name, rec.start, end, rec.parent, rec.op, **fields))


def install(tracer: Tracer, lib) -> dict:
    """Patch wrappers in; returns the originals, which `uninstall` puts back."""
    modules = [
        m for n, m in list(sys.modules.items()) if n == "prime_gauge" or n.startswith("prime_gauge.")
    ]
    originals: dict = {}
    for home, fname in FUNCTIONS:
        orig = getattr(getattr(lib, home), fname)
        wrapper = _wrap(tracer, f"{home}.{fname}", orig)
        for mod in modules:
            if getattr(mod, fname, None) is orig:
                originals[(mod, fname)] = orig
                setattr(mod, fname, wrapper)
    cls = lib.sieve.PiTable
    for meth in PITABLE_METHODS:
        orig = cls.__dict__[meth]
        originals[(cls, meth)] = orig
        setattr(cls, meth, _wrap_pitable(tracer, f"sieve.pitable.{meth}", orig))
    return originals


def uninstall(originals: dict) -> None:
    for (owner, attr), orig in originals.items():
        setattr(owner, attr, orig)


def _fields(name: str, args, kwargs, result, seg_default) -> dict:
    """What a finished span records besides its times."""
    if name == "sieve.count_primes":
        a, b = (args[0] if args else kwargs["iv"]).bounds()
        return {"ints": max(0, b - a + 1)}
    if name == "sieve.pi_at_points" and result:
        top = max(result)
        return {"top": top, "ints": top + 1, "segment": kwargs.get("segment_size", seg_default)}
    if name == "scan_report.render":
        return {"nbytes": len(result.encode("utf-8"))}
    if name == "cli.main":
        return {"rc": result}
    return {}


def _wrap(tracer: Tracer, name: str, fn):
    seg_default = None
    if name == "sieve.pi_at_points":
        seg_default = inspect.signature(fn).parameters["segment_size"].default

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name, alloc=seg_default is not None)
        try:
            result = fn(*args, **kwargs)
        except BaseException:  # a call that raised records no work done
            tracer.finish(rec, time.perf_counter())
            raise
        end = time.perf_counter()
        tracer.finish(rec, end, **_fields(name, args, kwargs, result, seg_default))
        return result

    return wrapper


def _wrap_pitable(tracer: Tracer, name: str, method):
    """A top-level pi or nth call is a growth when it moved `sieved_limit`, else a hit.

    In a thread pool, a call that waited for another thread's growth also
    sees the limit move and counts as a growth.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        parent = tracer.current()
        if parent is not None and parent.name.startswith("sieve.pitable."):
            return method(self, *args, **kwargs)  # nth's own pi call is part of the nth query
        before = self.sieved_limit
        # Only a call that may grow the table allocates; hits skip tracemalloc.
        rec = tracer.begin(name, alloc=name.endswith(".nth") or args[0] > before)
        try:
            return method(self, *args, **kwargs)
        finally:
            end = time.perf_counter()
            tracer.finish(rec, end, ints=self.sieved_limit - before)

    return wrapper


def gather_baseline(lib, top: int, segment_size: int) -> float:
    """Seconds to build the basis and count [0, top] with the same segment size.

    `pi_at_points` does the same marking plus the cumulative sum and point
    gathering, so its time minus this one is the gathering cost.
    """
    sieve = lib.sieve
    t0 = time.perf_counter()
    basis = sieve.build_basis(max(2, math.isqrt(top) + 1))
    sieve.count_primes(sieve.Interval.closed(0, top), basis, segment_size=segment_size, budget=max(top, 2))
    return time.perf_counter() - t0


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            kids[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, lo_run, hi_run = 0.0, None, None
        for lo, hi in sorted(kids.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(
    spans: list[Span], passes: int, alloc_peak: int, baselines: dict, overhead_s: float
) -> dict[str, float]:
    """Per-layer figures, per traced pass; `baselines` maps (top, segment) to seconds."""
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    selfs = self_times(spans)

    def total(name: str, key: str | None = None) -> float:
        if key is None:
            return sum(s.end - s.start for s in by[name]) / passes
        return sum(getattr(s, key) for s in by[name]) / passes

    pitable = by["sieve.pitable.pi"] + by["sieve.pitable.nth"]
    grows = [s for s in pitable if s.ints]
    hits = [s for s in pitable if not s.ints]
    gathered = [s for s in by["sieve.pi_at_points"] if s.top >= 0]
    m = {
        "sieve.pi_at_points.s": total("sieve.pi_at_points"),
        "sieve.pi_at_points.ints": total("sieve.pi_at_points", "ints"),
        "sieve.pi_at_points.gather_s": sum(
            s.end - s.start - baselines[(s.top, s.segment)] for s in gathered
        ) / passes,
        "sieve.count_primes.calls": len(by["sieve.count_primes"]) / passes,
        "sieve.count_primes.s": total("sieve.count_primes"),
        "sieve.count_primes.ints": total("sieve.count_primes", "ints"),
        "sieve.build_basis.calls": len(by["sieve.build_basis"]) / passes,
        "sieve.build_basis.s": total("sieve.build_basis"),
        "sieve.pitable.grow.calls": len(grows) / passes,
        "sieve.pitable.grow.s": sum(s.end - s.start for s in grows) / passes,
        "sieve.pitable.grow.ints": sum(s.ints for s in grows) / passes,
        "sieve.pitable.hit.calls": len(hits) / passes,
        "sieve.pitable.hit.s": sum(s.end - s.start for s in hits) / passes,
        "sieve.pitable.hit_ratio": len(hits) / len(pitable) if pitable else 0.0,
        "sieve.alloc_peak_mb": alloc_peak / 2**20,
    }
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = sum(selfs[s.id] for s in by[name]) / passes
    m["scan_report.render.s"] = total("scan_report.render")
    m["scan_report.render.bytes"] = total("scan_report.render", "nbytes")
    m["cli.main.calls"] = len(by["cli.main"]) / passes
    m["cli.main.self_s"] = sum(selfs[s.id] for s in by["cli.main"]) / passes
    m["cli.build_parser.s"] = total("cli.build_parser")
    for code in (0, 1, 2, 3):
        m[f"cli.exit.{code}"] = sum(1 for s in by["cli.main"] if s.rc == code) / passes
    m["trace.overhead_s"] = overhead_s
    return m
