"""prime-gauge benchmark: run one workload in fresh child processes and report.

    python3 bench/run.py --workload leg_scan --seed 1 --seconds 15 --trace 0

The parent times a few child start-ups (setup), runs the workload in one more
child for --seconds, then checks every call's output against references that
do not use the sieve under test (reference.py). It prints a readable report
with the host and provenance, then, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones from a traced
run (tracing.py). Run from the root of a checkout; the package is imported
from its src/ directory only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import RefPrimes
from tracing import PER_LAYER
from workloads import WORKLOADS, Call

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_SAMPLES = 9  # child start-ups timed per run, the workload children included
WARMUP_PROBES = 1  # untimed start-ups first, so bytecode and the file cache are warm
WORKLOAD_CHILDREN = 3  # processes an untraced run splits its time over
PASS_NUMBER_STRIDE = 10_000  # child k numbers its passes from k * stride
P95_MIN_TAIL = 10  # a p95 is reported only with this many samples beyond it
TIME_LIMIT_S = 170  # a run that is not done by then is stopped, so it exits within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(args: list[str], timeout: float) -> tuple[subprocess.Popen, float]:
    """Start a child and wait for its ready line; returns it with the setup time."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--root", str(ROOT), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != '{"ready": true}':
            proc.wait(timeout=timeout)
            raise BenchError(f"child did not start (exit {proc.returncode})")
    except BaseException:
        stop(proc)
        raise
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


def run_child(args: argparse.Namespace, deadline: float) -> tuple[list[float], dict]:
    """Time the probes, then run the workload in fresh children and merge their results.

    An untraced run splits its time over WORKLOAD_CHILDREN processes, so one
    process's memory layout cannot set the run's figures; a traced run uses one.
    """
    children = 1 if args.trace else WORKLOAD_CHILDREN
    setups = []
    for i in range(WARMUP_PROBES + SETUP_SAMPLES - children):
        proc, setup = spawn(["--probe"], timeout=_left(deadline))
        try:
            proc.communicate(timeout=_left(deadline))
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"probe child exited {proc.returncode}")
        if i >= WARMUP_PROBES:
            setups.append(setup)
    merged: dict = {"passes": [], "calls": [], "untraced_calls": 0, "maxrss_mb": 0.0}
    for k in range(children):
        child_args = [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / children), "--first-pass", str(k * PASS_NUMBER_STRIDE),
            "--size", args.size, "--trace", str(args.trace),
        ]
        proc, setup = spawn(child_args, timeout=_left(deadline))
        setups.append(setup)
        try:
            out, _ = proc.communicate(timeout=_left(deadline))
        except subprocess.TimeoutExpired:
            raise BenchError("workload child ran past its time limit") from None
        finally:
            stop(proc)
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"workload child exited {proc.returncode} without a result")
        result = json.loads(out.strip().splitlines()[-1])
        for c in result.pop("calls"):
            c["idx"] = len(merged["calls"])
            merged["calls"].append(c)
        merged["passes"] += result.pop("passes")
        merged["untraced_calls"] += result.pop("untraced_calls")
        merged["maxrss_mb"] = max(merged["maxrss_mb"], result.pop("maxrss_mb"))
        merged.update(result)
    return setups, merged


def _left(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return None


def host_info() -> dict:
    """nproc, CPU model, cache sizes, interpreter and library versions, git state."""
    import numpy

    info = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            info["cpu_model"] = line.split(":", 1)[1].strip()
            break
    for level in ("2", "3"):
        info[f"l{level}"] = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")) if cache.is_dir() else ():
        level, size = _read(index / "level"), _read(index / "size")
        if level and size and level.strip() in ("2", "3"):
            info[f"l{level.strip()}"] = size.strip()
    info.update(git_state())
    return info


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or "unknown" outside a git work tree."""
    # Stop git from searching above the checkout or reading user and system config.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_CONFIG_NOSYSTEM="1",
               GIT_CONFIG_GLOBAL=os.devnull)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        if sha.returncode != 0:
            return {"git_sha": "unknown", "git_dirty": "unknown"}
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": "unknown", "git_dirty": "unknown"}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def percentile(values: list[float], q: float) -> tuple[float | None, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return (ordered[rank - 1] if rank else None), len(ordered) - rank


def end_to_end(result: dict, setups: list[float], ints: int | None) -> tuple[dict, dict]:
    """The contract's end-to-end metrics, and the extra figures shown in the report."""
    calls = result["calls"][: result["untraced_calls"]]
    latencies = [c["ms"] for c in calls]
    wall = statistics.median(result["passes"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": len(calls) / len(result["passes"]) / wall,
        "op_p50_ms": statistics.median(latencies),
        "peak_rss_mb": result["maxrss_mb"],
    }
    p95, tail = percentile(latencies, 0.95)
    extras = {
        "passes": len(result["passes"]),
        "calls": len(calls),
        "op_p95_ms": p95 if tail >= P95_MIN_TAIL else None,
        "op_p95_tail": tail,
    }
    if ints is not None:
        extras["ints_per_s"] = ints / metrics["wall_s"]
    return metrics, extras


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one prime-gauge benchmark workload.")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the benchmark's own smoke tests")
    args = p.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    if not (ROOT / "src" / "prime_gauge" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'prime_gauge'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    plan = wl.plan(args.seed, args.size)
    try:
        setups, result = run_child(args, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    limit = wl.ref_limit(plan)
    ref = RefPrimes(limit) if limit else None
    calls = [Call(**c) for c in result["calls"]]
    failures = wl.check(plan, calls, ref)

    e2e, extras = end_to_end(result, setups, wl.ints(plan))
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    host = host_info()
    host["cli_threads"] = result["cli_threads"]
    extras["fail_ratio"] = len(failures) / len(calls)

    print(f"prime-gauge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("host: " + json.dumps(host))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    for name, value in extras.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {shown:>16s}")
    if args.trace:
        print(f"  traced passes {len(result['traced_passes'])}, spans {result['spans']}")
    for line in failures[:10]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
