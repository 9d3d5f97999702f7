#!/usr/bin/env python3
"""Run one benchmark workload or one CLI command in alternating pairs on two commits and compare them.

    python3 tools/ab.py --base REV --workload W --pairs N --seeds A-B [--change REV]
                        [--seconds S] [--size full|tiny] [--out ab.json]
    python3 tools/ab.py --base REV --pairs N [--change REV] [--out ab.json] --cli ARGV...

Both commits are extracted with `git archive` into fresh directories, so
the two sides share no file. In workload mode each runs its own
`bench/run.py --trace 0`, and pair i runs seed A + i on both sides. In CLI
mode each runs `python -m prime_gauge.cli ARGV...` with its own `src` on
the path, through `tools/record_bench.py`'s `measure`: wall time and peak
RSS from `wait4`, and the stdout's sha256. The parent (--base) runs first in
even pairs and the change (--change, HEAD by default) first in odd ones, so
the host's drift falls on both alike. For every end-to-end metric (in CLI
mode `wall_s` and `peak_rss_mb`, both lower is better) it prints the
parent's median and quartiles, the change's median, the pairs the change won
(a tie counts for neither side, and "better" is the metric's direction in
BENCHMARK.json), and whether the change's median is better than the parent's
by more than the parent's interquartile range. The quartiles come from
`bench/spread.py`'s `summarize`; a side with one run reports its median only.
The per-run values and the summary are printed as JSON on the last line and
written to --out when given. A revision that names no commit, or a tree
that is not a git checkout, is a usage error (exit 2) before any tree is
extracted. A run that exits non-zero stops the comparison, and so does a
CLI run whose stdout digest differs from the first run's. Standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tools"))
from record_bench import CLI, measure  # noqa: E402
from spread import summarize  # noqa: E402

SIDES = ("parent", "change")
CLI_METRICS = {"wall_s": "s", "peak_rss_mb": "MB"}  # both lower is better


def resolve(rev: str) -> str:
    """The full sha of the commit `rev` names; CalledProcessError, with git's message, if none."""
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def extract(sha: str, dest: Path) -> None:
    """Write the tree of commit `sha` under dest with `git archive`."""
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float, size: str | None) -> dict:
    """One `bench/run.py` run in `tree`; returns its last-line JSON result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    if size:
        cmd += ["--size", size]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(tree: Path, argv: list[str]) -> dict:
    """One CLI run in `tree`: its exit code, stdout digest and the CLI metrics."""
    figures, _ = measure(CLI + argv, root=tree)
    return {"exit": figures["exit"], "stdout_sha256": figures["stdout_sha256"],
            "metrics": {name: figures[name] for name in CLI_METRICS}}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def compare(runs: list[dict], name: str, better: str) -> dict:
    """The parent's and change's spread of one metric, the change's wins and the IQR test."""
    values = {side: [r["metrics"][name] for r in runs if r["side"] == side] for side in SIDES}
    sign = -1 if better == "lower" else 1  # sign * (change - parent) > 0: the change is better
    pairs = list(zip(values["parent"], values["change"]))
    out = {"better": better, "pairs": len(pairs),
           "wins": sum(sign * (c - p) > 0 for p, c in pairs)}
    for side in SIDES:
        vals = values[side]
        out[side] = summarize(vals) if len(vals) > 1 else {"median": statistics.median(vals),
                                                           "values": vals}
    parent, change = out["parent"], out["change"]
    gap = sign * (change["median"] - parent["median"])
    out["beyond_iqr"] = gap > parent["q3"] - parent["q1"] if "q1" in parent else None
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the parent commit")
    p.add_argument("--change", default="HEAD", help="the changed commit (default HEAD)")
    p.add_argument("--workload")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seeds", type=seed_range, help="A-B: pair i runs seed A + i")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--size", choices=("full", "tiny"), help="passed on to bench/run.py")
    p.add_argument("--out", help="also write the JSON result to this file")
    p.add_argument("--cli", nargs=argparse.REMAINDER,
                   help="compare this CLI command (everything after --cli) in place of a workload")
    args = p.parse_args(argv)
    if args.cli is not None:
        if not args.cli or args.workload:
            p.error("--cli needs a command after it, and no --workload")
        if args.pairs < 1:
            p.error("--pairs must be positive")
    elif not args.workload or not args.seeds:
        p.error("a workload comparison needs --workload and --seeds")
    elif not 1 <= args.pairs <= len(args.seeds):
        p.error(f"--pairs {args.pairs} needs 1 to {len(args.seeds)} seeds, one per pair")

    shas = {}
    for side, flag, rev in zip(SIDES, ("--base", "--change"), (args.base, args.change)):
        try:
            shas[side] = resolve(rev)
        except subprocess.CalledProcessError as exc:
            p.error(f"{flag} {rev} names no commit: {exc.stderr.strip()}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: list[dict] = []
    units = dict(CLI_METRICS)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            extract(shas[side], trees[side])
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                entry = {"pair": i, "side": side, "first": side == order[0]}
                if args.cli is not None:
                    entry.update(run_cli(trees[side], args.cli))
                    runs.append(entry)
                    print(f"pair {i} {side:6s} exit={entry['exit']} "
                          f"sha256={entry['stdout_sha256'][:12]}", file=sys.stderr, flush=True)
                    if entry["exit"] != 0:
                        raise RuntimeError(f"{side} pair {i} exited {entry['exit']}")
                    if entry["stdout_sha256"] != runs[0]["stdout_sha256"]:
                        raise RuntimeError(f"{side} pair {i} differs from the first run: "
                                           f"stdout sha256 {entry['stdout_sha256']}")
                    continue
                seed = args.seeds[i]
                result = run(trees[side], args.workload, seed, args.seconds, args.size)
                entry.update({"seed": seed, "correct": result["correct"],
                              "attempted": result["attempted"], "failed": result["failed"],
                              "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
                runs.append(entry)
                units = {k: m["unit"] for k, m in result["metrics"].items()}
                print(f"pair {i} seed {seed} {side:6s} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)

    subject = {"cli": args.cli} if args.cli is not None else {
        "workload": args.workload, "seconds": args.seconds, "size": args.size or "full",
        "seeds": args.seeds[: args.pairs]}
    summary = {"base": shas["parent"], "change": shas["change"], **subject, "runs": runs,
               "metrics": {}}
    title = " ".join(args.cli) if args.cli is not None else args.workload
    print(f"{title}: {args.pairs} pairs, parent {shas['parent'][:7]} -> change "
          f"{shas['change'][:7]}; median [parent Q1, Q3] -> change")
    metrics = spec["end_to_end"] if args.cli is None else [
        {"name": name, "better": "lower"} for name in CLI_METRICS]
    for metric in metrics:
        name = metric["name"]
        if name not in units:
            continue
        s = summary["metrics"][name] = {"unit": units[name], **compare(runs, name, metric["better"])}
        parent, change = s["parent"], s["change"]
        quartiles = f" [{parent['q1']:.5g}, {parent['q3']:.5g}]" if "q1" in parent else ""
        rel = (change["median"] / parent["median"] - 1) * 100 if parent["median"] else float("nan")
        beyond = {True: "yes", False: "no", None: "n/a"}[s["beyond_iqr"]]
        print(f"  {name:12s} {parent['median']:.5g}{quartiles} -> {change['median']:.5g} "
              f"{units[name]} ({rel:+.1f} %), change better in {s['wins']}/{s['pairs']}, "
              f"better by more than the parent's IQR: {beyond}")
    if args.cli is not None:
        print(f"  every run: exit 0, stdout sha256 {runs[0]['stdout_sha256']}")
        bad = []
    else:
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        print(f"  runs with a failed call: {len(bad)} of {len(runs)}")
    text = json.dumps(summary)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
