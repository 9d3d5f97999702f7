"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from reference import PUBLISHED_PI, RefPrimes, count_primes_mr, is_prime, table_anchor
from run import END_TO_END
from tracing import PER_LAYER, Span, layer_metrics, self_times
from workloads import WORKLOADS, Call

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def child_calls(workload: str) -> tuple[dict, list[Call]]:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    result = last_json(proc.stdout)
    return WORKLOADS[workload].plan(3, "tiny"), [Call(**c) for c in result["calls"]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_runs_and_passes(workload):
    proc = bench(workload)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [name for name in result["metrics"]] == [name for name, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("tables", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in PER_LAYER]
    for name in ("sieve.pitable.hit.calls", "sieve.count_primes.calls", "cli.main.calls",
                 "conjectures.threshold_search.self_s", "scan_report.render.bytes"):
        assert metrics[name]["value"] > 0, name


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, 0),
        Span(1, "a", 1.0, 3.0, 0, 0),
        Span(2, "b", 2.0, 5.0, 0, 0),  # overlaps a, as threads do
        Span(3, "c", 8.0, 12.0, 0, 0),  # runs past its parent: clipped to 10
        Span(4, "grandchild", 1.5, 2.5, 1, 0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_metrics_are_per_pass():
    spans = [
        Span(0, "cli.main", 0.0, 4.0, -1, 0, rc=0),
        Span(1, "cli.build_parser", 0.0, 1.0, 0, 0),
        Span(2, "sieve.pitable.pi", 1.0, 3.0, 0, 0, ints=100),
        Span(3, "sieve.pitable.pi", 3.0, 3.5, 0, 0),
    ]
    m = layer_metrics(spans, passes=2, alloc_peak=2**20, baselines={}, overhead_s=0.25)
    assert m["cli.main.self_s"] == pytest.approx(0.5 / 2)
    assert m["cli.build_parser.s"] == pytest.approx(0.5)
    assert m["sieve.pitable.grow.calls"] == 0.5 and m["sieve.pitable.grow.ints"] == 50
    assert m["sieve.pitable.hit_ratio"] == 0.5
    assert m["cli.exit.0"] == 0.5 and m["sieve.alloc_peak_mb"] == 1.0
    assert set(m) == {name for name, _ in PER_LAYER}


@pytest.mark.parametrize("workload, corrupt", [
    ("tables", lambda c: c.kind == "interval_count"),
    ("cli_mix", lambda c: c.kind == "count"),
    ("pi_large", lambda c: True),
    ("leg_scan", lambda c: True),
])
def test_one_corrupted_count_is_flagged(workload, corrupt):
    plan, calls = child_calls(workload)
    wl = WORKLOADS[workload]
    limit = wl.ref_limit(plan)
    ref = RefPrimes(limit) if limit else None
    assert wl.check(plan, calls, ref) == []
    victim = next(c for c in calls if corrupt(c))
    if workload == "tables":
        victim.out += 1
    elif workload == "cli_mix":
        victim.out["stdout"] = victim.out["stdout"].replace(",true\n", "1,true\n", 1)
    elif workload == "pi_large":
        victim.out[0] -= 1
    else:
        victim.out["sha"] = "0" * 64
    failures = wl.check(plan, calls, ref)
    assert len(failures) == 1 and f"call {victim.idx} " in failures[0]
    assert len(failures) / len(calls) > 0  # the run's fail_ratio


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("leg_scan", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_reference_agrees_with_miller_rabin_and_published_values():
    ref = RefPrimes(10**6)
    assert ref.pi(10**6) == PUBLISHED_PI[10**6]
    for lo, hi in ((0, 1), (0, 2), (2, 3), (90, 130), (999_000, 10**6)):
        assert ref.count(lo, hi) == count_primes_mr(lo, hi)
    assert [ref.nth(i) for i in (1, 2, 3, 1000)] == [2, 3, 5, 7919]
    assert is_prime(2**61 - 1) and not is_prime(3215031751)


def test_table_anchors_hold_the_published_counts():
    ref = RefPrimes(10**6)
    table1 = [line.split(",") for line in table_anchor(1).splitlines()[1:]]
    assert [int(leg) for _, leg in table1] == [2, 2, 2, 3, 2, 4, 3, 4, 3, 5]
    for line in table_anchor(5).splitlines()[1:]:
        n, k, actual = (int(x) for x in line.split(",")[:3])
        assert actual == ref.count(n + 1, k * n - 1)
