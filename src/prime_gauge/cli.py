"""Command-line entry point.

Exit codes: 0 all checks passed, 1 a conjecture violation was found,
2 usage or domain error, 3 budget or overflow error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .conjectures import leg_range_top
from .errors import BudgetError, DomainError, RangeOverflowError, UsageError
from .scan_report import THRESHOLD_COLUMNS, TableSpec, emit, reproduce_table, run_scan
from .sieve import DEFAULT_BUDGET

BUDGET_ENV_VAR = "PRIME_GAUGE_BUDGET"
MIN_BUDGET = 10_000
# The most n one leg-scan may take: a scan holds about 0.9 KB per n (its grid,
# records and CSV), so 2^18 n peak near 0.26 GB.
LEG_SCAN_CAP = 1 << 18

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# Each single-point subcommand: name -> (help, `RULES` rule, option names).
# Every option is a required `--<name>` integer and a key of the one grid
# point, except the flags, which enter the point as 0 or 1.
POINT_COMMANDS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "leg": ("count primes strictly between n^2 and (n+1)^2", "improved_legendre", ("n",)),
    "bounds": ("leg(n) with its derived and conjectured bounds", "conj_bounds", ("n",)),
    "count": ("count primes strictly between n and kn", "count", ("n", "k")),
    "brocard": ("count primes between squares of consecutive primes", "brocard", ("i", "decompose")),
    "nth-bound": ("upper bound 2^a (n-a) on the n-th prime", "nth_prime_bound", ("n",)),
    "ubcount": ("check the kn/9 + k^2 bound for one (n, k)", "conj4", ("n", "k")),
    "crossover": ("where kn/9 + k^2 drops below the interval size", "conj4_crossover", ("k",)),
    "rosser": ("check n/ln n <= pi(n) <= 1.25 n/ln n", "rosser", ("n",)),
    "nagura": ("check for a prime in [n, 6n/5]", "nagura", ("n",)),
    "pnt-ratio": ("count in (n, 2n) relative to n/ln n", "pnt_ratio", ("n",)),
}
FLAGS = frozenset({"decompose"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prime-gauge",
        description="Exact prime counts in intervals and empirical checks of their conjectured bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, help_text: str) -> argparse.ArgumentParser:
        s = subs.add_parser(name, help=help_text)
        s.add_argument("--budget", type=int, default=None, help="sieve budget (max reachable integer)")
        s.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        s.add_argument("--out", default=None, help="output path (default: stdout)")
        return s

    for name, (help_text, _, options) in POINT_COMMANDS.items():
        s = sub(name, help_text)
        for option in options:
            if option in FLAGS:
                s.add_argument(f"--{option}", action="store_true")
            else:
                s.add_argument(f"--{option}", type=int, required=True)

    s = sub("leg-scan", "scan a range of n for the at-least-2-primes property")
    s.add_argument("--from", dest="start", type=int, required=True)
    s.add_argument("--to", dest="stop", type=int, required=True)

    s = sub("threshold", "search the smallest n from which (n, kn) holds k-1 primes")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--scan-limit", type=int, default=10000)

    s = sub("table", "reproduce one of the five published tables")
    s.add_argument("--id", type=int, required=True, choices=range(1, 6))

    return parser


def _resolve_budget(args: argparse.Namespace) -> int:
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
    return budget


def _dispatch(args: argparse.Namespace, budget: int) -> tuple:
    """The subcommand's payload and the records that carry its verdict, (payload, records).

    A reproduced table is not a check, so it has no records and always passes.
    """
    if args.command == "table":
        return reproduce_table(args.id, budget=budget), []
    if args.command == "threshold":
        grid = [{"k": args.k, "scan_limit": args.scan_limit}]
        records = run_scan("threshold", grid, budget=budget)
        return TableSpec(0, "threshold", grid, THRESHOLD_COLUMNS).tabulate(records), records
    if args.command == "leg-scan":
        if args.start > args.stop:
            raise UsageError("the improved_legendre scan has an empty grid; a scan of nothing cannot pass")
        leg_range_top(args.start, args.stop, budget=budget)  # refused before the grid is built
        if args.stop - args.start + 1 > LEG_SCAN_CAP:
            raise BudgetError(
                f"leg-scan --from {args.start} --to {args.stop} takes "
                f"{args.stop - args.start + 1} n, above the cap {LEG_SCAN_CAP}"
            )
        grid = [{"n": n} for n in range(args.start, args.stop + 1)]
        records = run_scan("improved_legendre", grid, budget=budget)
        return records, records
    _, rule, options = POINT_COMMANDS[args.command]
    records = run_scan(rule, [{o: int(getattr(args, o)) for o in options}], budget=budget)
    return records, records


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, records = _dispatch(args, _resolve_budget(args))
        emit(payload, args.fmt, args.out if args.out is not None else sys.stdout)
        failing = [rec.to_flat() for rec in records if not rec.passed]
        for row in failing:
            print(f"violation: {row}", file=sys.stderr)
        return EXIT_VIOLATION if failing else EXIT_OK
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
