"""Run the benchmark repeatedly with different seeds and report each metric's spread.

    python3 bench/spread.py --runs 10 --seconds 15 --out spread.json

For every workload and end-to-end metric it prints the median, the quartiles
from statistics.quantiles(values, n=4), and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json. A spread above a third of
its bound is flagged; `setup_s` is flagged too, though only its median is
gated. Use it to set bounds and to record a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import host_info

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary as JSON to this file")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: dict = {"runs": args.runs, "seconds": args.seconds, "seed0": args.seed0,
                     "trace": args.trace, "host": host_info(), "workloads": {}}
    ok = True
    for workload in args.workloads:
        results = [run_once(workload, args.seed0 + i, args.seconds, args.trace) for i in range(args.runs)]
        ok &= all(r["correct"] for r in results)
        per_metric = {}
        for name in results[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in results])
            per_metric[name] = s
            bound = bounds.get(name)
            flag = ""
            if bound and s["spread"] is not None and s["spread"] > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"{workload:9s} {name:28s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread'] if s['spread'] is not None else float('nan'):7.4f}"
                  f"  bound {bound if bound else '-'}{flag}", flush=True)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": per_metric,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
