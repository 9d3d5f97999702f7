"""Child process of the benchmark: imports the package, then runs one workload.

Protocol on stdout, one JSON object per line: {"ready": true} as soon as
`prime_gauge` and `prime_gauge.cli` are imported, then after the run one
object with every call, the pass times, peak RSS and, when traced, the
per-layer figures. Anything the package prints goes to stderr or is captured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

UNTRACED_SHARE = 0.4  # of a traced run's time, spent on untraced passes for the overhead


def import_package(root: Path) -> SimpleNamespace:
    """Import the package from `root/src` only, never from an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import prime_gauge
    import prime_gauge.cli
    from prime_gauge import conjectures, scan_report, sieve

    if src not in Path(prime_gauge.__file__).resolve().parents:
        raise ImportError(f"prime_gauge was imported from {prime_gauge.__file__}, not from {src}")
    return SimpleNamespace(sieve=sieve, conjectures=conjectures, scan_report=scan_report, cli=prime_gauge.cli)


def run_passes(wl, lib, plan, first_pass: int, until: float, calls: list, tracer=None) -> list[float]:
    """Run whole passes, at least one, until the clock passes `until`; returns pass times."""

    def call(kind, args, thunk):
        if tracer is not None:
            tracer.op = len(calls)
        t0 = time.perf_counter()
        out, error = None, None
        try:
            out = thunk()
        except Exception as exc:  # a failed call is counted by the checker, not fatal
            error = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000
        calls.append({"idx": len(calls), "kind": kind, "args": args, "out": out, "ms": ms, "error": error})

    times = []
    pass_no = first_pass
    while True:
        t0 = time.perf_counter()
        wl.run_pass(lib, plan, pass_no, call)
        times.append(time.perf_counter() - t0)
        pass_no += 1
        if time.perf_counter() >= until:
            return times


def run(args, lib, proto) -> None:
    # Imported after the ready line, so setup time covers the package alone.
    from tracing import Tracer, gather_baseline, install, layer_metrics, uninstall
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    plan = wl.plan(args.seed, args.size)
    calls: list[dict] = []
    start = time.perf_counter()
    share = UNTRACED_SHARE if args.trace else 1.0
    passes = run_passes(wl, lib, plan, args.first_pass, start + share * args.seconds, calls)
    result = {"passes": passes, "untraced_calls": len(calls)}
    if args.trace:
        tracer = Tracer()
        originals = install(tracer, lib)
        try:
            # One pass with tracemalloc for the allocation peak; its spans are
            # dropped, so the timed traced passes carry span overhead only.
            tracer.track_alloc = True
            run_passes(wl, lib, plan, args.first_pass + len(passes), 0.0, calls, tracer)
            tracer.track_alloc = False
            tracer.spans.clear()
            traced = run_passes(
                wl, lib, plan, args.first_pass + len(passes) + 1, start + args.seconds, calls, tracer
            )
        finally:
            uninstall(originals)
        baselines = {}
        for s in tracer.spans:
            if s.top >= 0 and (s.top, s.segment) not in baselines:
                baselines[(s.top, s.segment)] = gather_baseline(lib, s.top, s.segment)
        overhead = statistics.median(traced) - statistics.median(passes)
        result["traced_passes"] = traced
        result["layers"] = layer_metrics(tracer.spans, len(traced), tracer.alloc_peak, baselines, overhead)
        result["spans"] = len(tracer.spans)
    result["calls"] = calls
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["cli_threads"] = os.cpu_count() or 1
    proto.write(json.dumps(result) + "\n")
    proto.flush()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout holding src/prime_gauge")
    p.add_argument("--probe", action="store_true", help="only import, report ready and exit")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--first-pass", type=int, default=0, help="number of the first pass")
    p.add_argument("--size", default="full")
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args(argv)

    proto = sys.stdout
    sys.stdout = sys.stderr  # stray prints must not reach the protocol stream
    try:
        lib = import_package(Path(args.root))
    except ImportError as exc:
        print(f"child: cannot import the package: {exc}", file=sys.stderr)
        return 2
    proto.write('{"ready": true}\n')
    proto.flush()
    if not args.probe:
        run(args, lib, proto)
    return 0


if __name__ == "__main__":
    sys.exit(main())
