"""Command-line entry point.

Exit codes: 0 all checks passed, 1 a conjecture violation was found,
2 usage or domain error, 3 budget or overflow error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import BudgetError, DomainError, RangeOverflowError, UsageError
from .scan_report import THRESHOLD_COLUMNS, TableSpec, emit, reproduce_table, run_scan
from .sieve import DEFAULT_BUDGET

BUDGET_ENV_VAR = "PRIME_GAUGE_BUDGET"
MIN_BUDGET = 10_000

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class Config:
    budget: int
    threads: int
    fmt: str
    out: str | None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=int, default=None, help="sieve budget (max reachable integer)")
    sub.add_argument("--threads", type=int, default=None, help="accepted but has no effect")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prime-gauge",
        description="Exact prime counts in intervals and empirical checks of their conjectured bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, help_text: str) -> argparse.ArgumentParser:
        s = subs.add_parser(name, help=help_text)
        _add_common(s)
        return s

    s = sub("leg", "count primes strictly between n^2 and (n+1)^2")
    s.add_argument("--n", type=int, required=True)

    s = sub("leg-scan", "scan a range of n for the at-least-2-primes property")
    s.add_argument("--from", dest="start", type=int, required=True)
    s.add_argument("--to", dest="stop", type=int, required=True)

    s = sub("bounds", "leg(n) with its derived and conjectured bounds")
    s.add_argument("--n", type=int, required=True)

    s = sub("count", "count primes strictly between n and kn")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)

    s = sub("threshold", "search the smallest n from which (n, kn) holds k-1 primes")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--scan-limit", type=int, default=10000)

    s = sub("brocard", "count primes between squares of consecutive primes")
    s.add_argument("--i", type=int, required=True)
    s.add_argument("--decompose", action="store_true")

    s = sub("nth-bound", "upper bound 2^a (n-a) on the n-th prime")
    s.add_argument("--n", type=int, required=True)

    s = sub("ubcount", "check the kn/9 + k^2 bound for one (n, k)")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)

    s = sub("crossover", "where kn/9 + k^2 drops below the interval size")
    s.add_argument("--k", type=int, required=True)

    s = sub("rosser", "check n/ln n <= pi(n) <= 1.25 n/ln n")
    s.add_argument("--n", type=int, required=True)

    s = sub("nagura", "check for a prime in [n, 6n/5]")
    s.add_argument("--n", type=int, required=True)

    s = sub("pnt-ratio", "count in (n, 2n) relative to n/ln n")
    s.add_argument("--n", type=int, required=True)

    s = sub("table", "reproduce one of the five published tables")
    s.add_argument("--id", type=int, required=True, choices=range(1, 6))

    return parser


def _resolve_config(args: argparse.Namespace) -> Config:
    budget = args.budget
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is not None:
            try:
                budget = int(env)
            except ValueError:
                raise UsageError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}")
    if budget is None:
        budget = DEFAULT_BUDGET
    if budget < MIN_BUDGET:
        raise UsageError(f"budget must be at least {MIN_BUDGET}, got {budget}")
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    if threads < 1:
        raise UsageError(f"threads must be positive, got {threads}")
    return Config(budget=budget, threads=threads, fmt=args.fmt, out=args.out)


def _scan(rule: str, grid: Callable[[argparse.Namespace], list[dict[str, int]]]):
    """A subcommand that prints one registry rule's records over a grid built from its arguments."""

    def run(args: argparse.Namespace, cfg: Config):
        points = grid(args)
        if not points:
            raise UsageError(f"the {rule} scan has an empty grid; a scan of nothing cannot pass")
        records = run_scan(rule, points, budget=cfg.budget, threads=cfg.threads)
        return records, all(rec.passed for rec in records)

    return run


def _threshold(args: argparse.Namespace, cfg: Config):
    grid = [{"k": args.k, "scan_limit": args.scan_limit}]
    records = run_scan("threshold", grid, budget=cfg.budget, threads=cfg.threads)
    return TableSpec(0, "threshold", grid, THRESHOLD_COLUMNS).tabulate(records), records[0].passed


# Subcommand -> how it builds its payload and verdict, (payload, all_passed).
COMMANDS: dict[str, Callable[[argparse.Namespace, Config], tuple]] = {
    "leg": _scan("improved_legendre", lambda a: [{"n": a.n}]),
    "leg-scan": _scan(
        "improved_legendre", lambda a: [{"n": n} for n in range(a.start, a.stop + 1)]
    ),
    "bounds": _scan("conj_bounds", lambda a: [{"n": a.n}]),
    "count": _scan("count", lambda a: [{"n": a.n, "k": a.k}]),
    "threshold": _threshold,
    "brocard": _scan("brocard", lambda a: [{"i": a.i, "decompose": int(a.decompose)}]),
    "nth-bound": _scan("nth_prime_bound", lambda a: [{"n": a.n}]),
    "ubcount": _scan("conj4", lambda a: [{"n": a.n, "k": a.k}]),
    "crossover": _scan("conj4_crossover", lambda a: [{"k": a.k}]),
    "rosser": _scan("rosser", lambda a: [{"n": a.n}]),
    "nagura": _scan("nagura", lambda a: [{"n": a.n}]),
    "pnt-ratio": _scan("pnt_ratio", lambda a: [{"n": a.n}]),
    # A reproduced table is not a check, so it always passes.
    "table": lambda a, cfg: (reproduce_table(a.id, budget=cfg.budget, threads=cfg.threads), True),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        payload, all_passed = COMMANDS[args.command](args, cfg)
        emit(payload, cfg.fmt, cfg.out if cfg.out is not None else sys.stdout)
        if not all_passed:
            failing = []
            if isinstance(payload, list):
                failing = [rec.to_flat() for rec in payload if not rec.passed]
            for row in failing:
                print(f"violation: {row}", file=sys.stderr)
            return EXIT_VIOLATION
        return EXIT_OK
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetError, RangeOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
