"""Smoke tests of tools/ab.py, the pair runner: a tiny workload pair, a CLI pair, usage errors."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_names_every_end_to_end_metric(tmp_path):
    out = tmp_path / "ab.json"
    cmd = [sys.executable, "tools/ab.py", "--base", "HEAD", "--workload", "pi_large",
           "--pairs", "1", "--seeds", "3-3", "--seconds", "1", "--size", "tiny", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result == json.loads(proc.stdout.strip().splitlines()[-1])
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(result["metrics"]) == names
    assert [(r["pair"], r["seed"], r["side"], r["first"]) for r in result["runs"]] == [
        (0, 3, "parent", True), (0, 3, "change", False)
    ]
    assert all(r["correct"] and not r["failed"] and list(r["metrics"]) == names
               for r in result["runs"])
    for m in result["metrics"].values():
        assert m["pairs"] == 1 and m["beyond_iqr"] is None
        assert [len(m[side]["values"]) for side in ("parent", "change")] == [1, 1]


def test_one_cli_pair_names_both_metrics(tmp_path):
    out = tmp_path / "ab.json"
    cmd = [sys.executable, "tools/ab.py", "--base", "HEAD", "--pairs", "1", "--out", str(out),
           "--cli", "rosser", "--n", "100000"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result == json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["cli"] == ["rosser", "--n", "100000"]
    assert list(result["metrics"]) == ["wall_s", "peak_rss_mb"]
    assert [(r["pair"], r["side"], r["first"]) for r in result["runs"]] == [
        (0, "parent", True), (0, "change", False)
    ]
    assert len({(r["exit"], r["stdout_sha256"]) for r in result["runs"]}) == 1
    assert result["runs"][0]["exit"] == 0
    for m in result["metrics"].values():
        assert m["pairs"] == 1 and m["beyond_iqr"] is None
        assert [len(m[side]["values"]) for side in ("parent", "change")] == [1, 1]


def test_cli_run_that_fails_stops_the_comparison():
    # c7cf606 predates the refusal of a scan limit below formula_a: there the command
    # prints a verdict and exits 0, on every later commit it exits 2 with no stdout.
    cmd = [sys.executable, "tools/ab.py", "--base", "c7cf606", "--pairs", "1",
           "--cli", "threshold", "--k", "22", "--scan-limit", "3"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert "change pair 0 differs from the first run: exit 0 -> 2, stdout_sha256" in proc.stderr
    assert "stderr_sha256" in proc.stderr and proc.stdout == ""


def test_cli_runs_that_fail_alike_are_compared(tmp_path):
    # A mistyped flag exits 2 with one stderr on both trees: its pairs are compared.
    out = tmp_path / "ab.json"
    cmd = [sys.executable, "tools/ab.py", "--base", "HEAD", "--pairs", "2", "--out", str(out),
           "--cli", "rosser", "--no-such-flag", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    outcomes = {(r["exit"], r["stdout_sha256"], r["stderr_sha256"]) for r in result["runs"]}
    assert len(result["runs"]) == 4 and len(outcomes) == 1
    assert next(iter(outcomes))[0] == 2
    empty = hashlib.sha256(b"").hexdigest()
    assert result["runs"][0]["stdout_sha256"] == empty != result["runs"][0]["stderr_sha256"]
    assert "every run: exit 2, stdout sha256" in proc.stdout


def test_unknown_revision_or_no_checkout_is_a_usage_error(tmp_path):
    # Refused with git's message and exit 2, before any tree is extracted and no pair is run.
    cases = [
        (["--base", "nosuchrev"], {}, "--base nosuchrev names no commit: fatal:"),
        (["--base", "HEAD", "--change", "nosuchrev"], {}, "--change nosuchrev names no commit"),
        (["--base", "HEAD"], {"GIT_DIR": str(tmp_path / "none")}, "not a git repository"),
    ]
    trees = tmp_path / "tmp"
    trees.mkdir()
    for flags, env, message in cases:
        cmd = [sys.executable, "tools/ab.py", *flags, "--pairs", "1", "--cli", "rosser", "--n", "100"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60,
                              env={**os.environ, "TMPDIR": str(trees), **env})
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == "" and not any(trees.iterdir())
