#!/usr/bin/env python3
"""Record the north-star end-to-end runs in a new BENCH_<k>.json at the repository root.

    python3 tools/record_bench.py

Seven runs, one after another, each in its own child process: the Tier-1
test suite, `leg-scan --from 1 --to 45000` (acceptance 7a), `table --id 3
--budget 100000000`, `rosser --n 2000000000`, `leg-scan --from 1 --to
100000 --budget 10000200000`, whose last interval ends at 100001^2 - 1,
`rosser --n 100000`, a single-shot PiTable command far below one stride,
and `nth-bound --n 101000000 --budget 10000000000000000000`, whose prime
lies just below the PiTable cap while the budget lies far above it.
For each it stores the exit code, the wall time and the peak RSS of the
child and its descendants (the rusage that wait4 returns, the figure
RUSAGE_CHILDREN reports), plus a digest of the CLI's stdout or the suite's
summary line. The file also names the
host, the Python and numpy versions, the git sha and whether tracked files
differ from it. k is one more than the largest k already recorded.
Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = [sys.executable, "-m", "prime_gauge.cli"]
RUNS = {
    "tier1": [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
    "leg_scan_1_45000": CLI + ["leg-scan", "--from", "1", "--to", "45000"],
    "table3_budget_1e8": CLI + ["table", "--id", "3", "--budget", "100000000"],
    "rosser_2e9": CLI + ["rosser", "--n", "2000000000"],
    "leg_scan_1_100000": CLI
    + ["leg-scan", "--from", "1", "--to", "100000", "--budget", "10000200000"],
    "rosser_1e5": CLI + ["rosser", "--n", "100000"],
    "nth_bound_101e6_budget_1e19": CLI
    + ["nth-bound", "--n", "101000000", "--budget", "10000000000000000000"],
}


def _git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return proc.stdout


def _cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor()
    match = re.search(r"^model name\s*:\s*(.+)$", text, re.MULTILINE)
    return match.group(1).strip() if match else platform.processor()


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def measure(argv: list[str]) -> dict:
    """Run `argv` from the repository root with `src` on the path; its figures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        # wait4 reports this child's own rusage, so each run's peak stands alone.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    result = {
        "argv": [Path(a).name if a == sys.executable else a for a in argv],
        "exit": proc.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
    }
    if argv[:3] == CLI:
        result["stdout_bytes"] = len(stdout)
        result["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
    else:
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        result["summary"] = lines[-1] if lines else ""
    return result


def main() -> int:
    names = (re.fullmatch(r"BENCH_(\d+)\.json", p.name) for p in ROOT.glob("BENCH_*.json"))
    taken = [int(m.group(1)) for m in names if m]
    path = ROOT / f"BENCH_{max(taken, default=0) + 1}.json"
    record = {
        "recorded_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": host(),
        "git": {
            "sha": _git("rev-parse", "HEAD").strip(),
            "dirty": bool(_git("status", "--porcelain", "--untracked-files=no").strip()),
        },
        "runs": {},
    }
    for name, argv in RUNS.items():
        print(f"{name}: {' '.join(argv[1:])}", file=sys.stderr, flush=True)
        record["runs"][name] = measure(argv)
        print(f"  {record['runs'][name]}", file=sys.stderr, flush=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
