"""tools/record_bench.py's `measure`: the child's own peak RSS, its exit code and its output."""

import hashlib
import os
import subprocess

import pytest
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from record_bench import CLI, measure, summarize  # noqa: E402

PROBE = [sys.executable, "-c", "import numpy"]


def test_peak_leaves_out_the_spawner():
    # Linux carries the spawner's RSS into the child's wait4 ru_maxrss; the probe's own peak
    # must not move when the spawner holds 50 MB more.
    bare = measure(PROBE)[0]["peak_rss_mb"]
    ballast = b"\x01" * (50 << 20)  # written, so resident
    held = measure(PROBE)[0]["peak_rss_mb"]
    del ballast
    assert abs(held - bare) <= 1, (bare, held)


def test_launched_command_keeps_its_exit_and_stdout():
    argv = CLI + ["nth-bound", "--n", "3"]
    figures, stdout = measure(argv)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    direct = subprocess.run(argv, cwd=ROOT, capture_output=True, env=env)
    assert (figures["exit"], stdout) == (direct.returncode, direct.stdout)
    assert figures["stderr_sha256"] == hashlib.sha256(direct.stderr).hexdigest()
    assert figures["exit"] == 1 and b"violation" in direct.stderr
    assert stdout == b"rule,n,actual,bound_upper,pass\nnth_prime_bound,3,5,4.0,false\n"
    assert figures["argv"][1:] == argv[1:] and figures["peak_rss_mb"] > 0


def test_a_child_that_leaves_no_peak_reads_null():
    # os._exit skips the launcher's atexit hook, as a signal would; no spawner-inflated figure
    # may stand in for it.
    figures = measure([sys.executable, "-c", "import os; os._exit(0)"])[0]
    assert (figures["exit"], figures["peak_rss_mb"]) == (0, None)
    assert summarize([figures, {**figures, "peak_rss_mb": 12.0}])["peak_rss_mb"] is None


@pytest.mark.parametrize("argv", [["true"], [sys.executable], [sys.executable, "-c"],
                                  [sys.executable, "script.py"]])
def test_only_python_m_or_c_commands_are_measured(argv):
    with pytest.raises(ValueError, match="measure runs only"):
        measure(argv)
