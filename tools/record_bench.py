#!/usr/bin/env python3
"""Record the north-star end-to-end runs in a new BENCH_<k>.json at the repository root.

    python3 tools/record_bench.py

Each run is its own child process: the Tier-1 test suite, `leg-scan --from
1 --to 45000` (acceptance 7a), `table --id 3 --budget 100000000`, `rosser
--n 2000000000`, `leg-scan --from 1 --to 100000 --budget 10000200000`,
whose last interval ends at 100001^2 - 1, `rosser --n 100000`, a
single-shot PiTable command far below one stride, and `nth-bound --n
101000000 --budget 10000000000000000000`, whose prime lies just below the
PiTable cap while the budget lies far above it. The suite runs once. Each
CLI command runs 3 times, in rounds that take the commands in turn, so the
host's drift over the recording falls on every command alike.

For each run the file stores the exit code, the wall time and the peak RSS
of the child and its descendants, plus digests of the CLI's stdout and
stderr or the suite's summary line. The child reports its peak itself,
through a small launcher that runs its `python -m` or `python -c` command
in the same process and at exit writes to a side file, never to stdout,
the larger of its own `VmHWM` and the largest `ru_maxrss` of the
descendants it waited for: the largest single process, not their sum.
The `ru_maxrss` that wait4 returns would not do: Linux carries the
spawner's RSS across fork and exec into it, so it grows with whatever the
spawner holds. Only where there is no `/proc` does the launcher write its
own `ru_maxrss`, which has the same fault. A child that leaves the side
file empty (killed by a signal, or ended by `os._exit`) gets `peak_rss_mb`
null. For a CLI command, `wall_s` and `peak_rss_mb`
are the medians of its 3 runs (null if any run's is), `wall_s_min` and `wall_s_max` their range,
and `repeats` the count; the 3 runs must agree on the exit code and the
stdout digest, or nothing is written. A host canary runs first in every round, in a child
that imports nothing from prime_gauge: a pure-Python loop and a numpy loop
of strided byte strikes, each timed inside the child. Its `canary` entry
holds the median, min and max of each, so a reader can tell the program's
drift between two files from the host's. The file also names the host, the
Python and numpy versions, the git sha and whether tracked files differ
from it. k is one more than the largest k already recorded. Standard
library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = [sys.executable, "-m", "prime_gauge.cli"]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
REPEATS = 3
COMMANDS = {
    "leg_scan_1_45000": CLI + ["leg-scan", "--from", "1", "--to", "45000"],
    "table3_budget_1e8": CLI + ["table", "--id", "3", "--budget", "100000000"],
    "rosser_2e9": CLI + ["rosser", "--n", "2000000000"],
    "leg_scan_1_100000": CLI
    + ["leg-scan", "--from", "1", "--to", "100000", "--budget", "10000200000"],
    "rosser_1e5": CLI + ["rosser", "--n", "100000"],
    "nth_bound_101e6_budget_1e19": CLI
    + ["nth-bound", "--n", "101000000", "--budget", "10000000000000000000"],
}
# About 0.2-0.5 s each on a 2-core host; prints the two timings as JSON.
CANARY_SOURCE = """
import json, time
import numpy as np

t0 = time.perf_counter()
total = 0
for i in range(1_500_000):
    total += i * i % 7
t1 = time.perf_counter()
flags = np.ones(1 << 20, dtype=bool)
for _ in range(48):
    flags[:] = True
    for p in range(3, 2048, 2):
        flags[p // 2 :: p] = False  # flag i stands for 2i + 1
t2 = time.perf_counter()
print(json.dumps({"python_loop_s": t1 - t0, "numpy_strike_s": t2 - t1, "check": total + int(flags.sum())}))
"""
CANARY = [sys.executable, "-c", CANARY_SOURCE]
# Run as `python -c LAUNCHER_SOURCE SIDE_FILE -m MODULE ARGS...` (or `-c SOURCE
# ARGS...`): runs the command as the interpreter would, and at exit writes its
# peak RSS in KiB (on Linux) to SIDE_FILE.
LAUNCHER_SOURCE = """
import atexit, resource, runpy, sys

def peak(path=sys.argv[1]):
    try:
        with open("/proc/self/status") as status:
            own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):  # no /proc: this holds the spawner's RSS too
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(path, "w") as side:
        side.write(str(max(own, kids)))

atexit.register(peak)
flag, target = sys.argv[2:4]
sys.argv = [flag, *sys.argv[4:]]
if flag == "-m":
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
"""


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


def measure(argv: list[str], root: Path = ROOT) -> tuple[dict, bytes]:
    """Run `argv`, a `python -m MODULE ...` or `python -c SOURCE ...` command, from a tree's
    root (this repository's by default) with its `src` on the path.

    Returns the run's figures and its stdout.
    """
    if len(argv) < 3 or argv[0] != sys.executable or argv[1] not in ("-m", "-c"):
        raise ValueError(f"measure runs only `{sys.executable} -m|-c TARGET ...`, not {argv}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, \
            tempfile.NamedTemporaryFile("r") as side:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCHER_SOURCE, side.name, *argv[1:]],
                                cwd=root, env=env, stdout=out, stderr=err)
        proc.wait()
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
        peak_kib = side.read()
    result = {
        "argv": [Path(a).name if a == sys.executable else a for a in argv],
        "exit": proc.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(int(peak_kib) / 1024, 1) if peak_kib else None,
    }
    if argv[:3] == CLI:
        result["stdout_bytes"] = len(stdout)
        result["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
        result["stderr_sha256"] = hashlib.sha256(stderr).hexdigest()
    elif argv == TIER1:
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        result["summary"] = lines[-1] if lines else ""
    return result, stdout


def spread(values: list[float], key: str, digits: int) -> dict:
    """The median of `values` under `key`, and their min and max under key_min and key_max."""
    return {
        key: round(statistics.median(values), digits),
        f"{key}_min": round(min(values), digits),
        f"{key}_max": round(max(values), digits),
    }


def summarize(runs: list[dict]) -> dict:
    """One record for repeated runs of a CLI command: medians and the wall-time range."""
    record = dict(runs[0])
    record.update(spread([r["wall_s"] for r in runs], "wall_s", 3))
    peaks = [r["peak_rss_mb"] for r in runs]
    record["peak_rss_mb"] = None if None in peaks else statistics.median(peaks)
    record["repeats"] = len(runs)
    return record


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
    print("tier1", file=sys.stderr, flush=True)
    record["runs"]["tier1"] = measure(TIER1)[0]
    print(f"  {record['runs']['tier1']}", file=sys.stderr, flush=True)
    canary: list[dict] = []
    runs: dict[str, list[dict]] = {name: [] for name in COMMANDS}
    for round_no in range(1, REPEATS + 1):
        figures, stdout = measure(CANARY)
        if figures["exit"] != 0:
            print(f"the canary exited {figures['exit']}", file=sys.stderr)
            return 1
        canary.append(json.loads(stdout))
        print(f"round {round_no} canary: {canary[-1]}", file=sys.stderr, flush=True)
        for name, argv in COMMANDS.items():
            runs[name].append(measure(argv)[0])
            print(f"round {round_no} {name}: {runs[name][-1]}", file=sys.stderr, flush=True)
    for name, repeated in runs.items():
        if len({(r["exit"], r["stdout_sha256"]) for r in repeated}) > 1:
            print(f"{name}: the {REPEATS} runs disagree on exit or stdout", file=sys.stderr)
            return 1
        record["runs"][name] = summarize(repeated)
    record["canary"] = {"repeats": REPEATS}
    for key in ("python_loop_s", "numpy_strike_s"):
        record["canary"].update(spread([c[key] for c in canary], key, 4))
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
