"""The four workloads: seeded inputs, the calls one pass makes, and their checks.

Each workload is a closed loop: one client in one process, each call waiting
for the previous one. A *pass* is the workload's fixed unit of work; the child
process repeats passes until its time is up. Inputs depend only on the seed
and the size, so the parent regenerates them to check the child's outputs.

This module never imports `prime_gauge`. The child hands `run_pass` a
namespace of the package's modules and every call goes through a module or
class attribute at call time, so the tracer's patches see it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

from reference import (
    PUBLISHED_LEG,
    PUBLISHED_PI,
    RefPrimes,
    count_primes_mr,
    is_prime,
    table_anchor,
)

SIZES = {
    "full": {
        "leg_scan_n": 8000,
        "pi_large_x": 2 * 10**7,
        "tables_ids": (1, 2, 3, 4, 5),
        "tables_budget": 10**8,
        "tables_reach": 1 << 25,
        "tables_queries": 400,
    },
    "tiny": {
        "leg_scan_n": 200,
        "pi_large_x": 10**6,
        "tables_ids": (1, 2, 4, 5),
        "tables_budget": 10**6,
        "tables_reach": 1 << 18,
        "tables_queries": 40,
    },
}

TABLE3_BUDGET = 10**8
STRIDE_SAFE = 10**7  # single-shot PiTable commands stay within one 2^24 stride
CLI_LEG_MAX, CLI_BOUNDS_MAX, CLI_BROCARD_MAX = 9000, 5000, 400


@dataclass
class Call:
    """One call the child made: its index, kind, arguments and output."""

    idx: int
    kind: str
    args: list
    out: object
    ms: float
    error: str | None = None


def capture_cli(cli, argv: list[str]) -> dict:
    """Run `cli.main(argv)` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    name = ""
    why = ""

    def plan(self, seed: int, size: str) -> dict:
        raise NotImplementedError

    def run_pass(self, lib, plan: dict, pass_no: int, call: Callable) -> None:
        """Make one pass of calls; `call(kind, args, thunk)` times each one."""
        raise NotImplementedError

    def ref_limit(self, plan: dict) -> int:
        """Largest x the parent's reference sieve must cover (0: none)."""
        return 0

    def ints(self, plan: dict) -> int | None:
        """Integers swept per pass, where that is the workload's measure."""
        return None

    def check(self, plan: dict, calls: list[Call], ref: RefPrimes | None) -> list[str]:
        """One message per failed call; an empty list means every call passed."""
        raise NotImplementedError


class LegScan(Workload):
    name = "leg_scan"
    why = "streaming leg(n) scan over n = 1..N plus CSV rendering; almost all time in pi_at_points"

    def plan(self, seed, size):
        rng = random.Random(f"{self.name}:{seed}")
        n = SIZES[size]["leg_scan_n"] + rng.randrange(64)
        spots = sorted(rng.sample(range(2, n + 1), 3))
        return {"n": n, "spots": spots}

    def run_pass(self, lib, plan, pass_no, call):
        sr = lib.scan_report
        grid = [{"n": n} for n in range(1, plan["n"] + 1)]

        def scan():
            text = sr.render(sr.run_scan("improved_legendre", grid), "csv")
            out = {"sha": _sha(text), "bytes": len(text)}
            if pass_no == 0:
                out["csv"] = text
            return out

        call("leg_scan", [plan["n"]], scan)

    def ref_limit(self, plan):
        return (plan["n"] + 1) ** 2

    def ints(self, plan):
        return (plan["n"] + 1) ** 2

    def expected_csv(self, n_max: int, ref: RefPrimes) -> str:
        lines = ["rule,n,actual,bound_lower,pass"]
        for n in range(1, n_max + 1):
            value = ref.count(n * n + 1, (n + 1) ** 2 - 1)
            lines.append(f"improved_legendre,{n},{value},2.0,{'true' if value >= 2 else 'false'}")
        return "\n".join(lines) + "\n"

    def check(self, plan, calls, ref):
        n_max = plan["n"]
        for n in plan["spots"]:  # the reference itself against Miller-Rabin
            if ref.count(n * n + 1, (n + 1) ** 2 - 1) != count_primes_mr(n * n + 1, (n + 1) ** 2 - 1):
                raise RuntimeError(f"reference sieve disagrees with Miller-Rabin at leg({n})")
        expected = self.expected_csv(n_max, ref)
        for n, value in PUBLISHED_LEG.items():
            if n <= n_max and f"\nimproved_legendre,{n},{value}," not in expected:
                raise RuntimeError(f"reference sieve disagrees with the published leg({n}) = {value}")
        want = _sha(expected)
        failures = []
        for c in calls:
            if c.error or c.out["sha"] != want:
                detail = c.error or "CSV differs from the reference"
                if c.out and "csv" in c.out:
                    got = c.out["csv"].splitlines()
                    ref_lines = expected.splitlines()
                    diff = next((i for i, (a, b) in enumerate(zip(got, ref_lines)) if a != b), None)
                    if diff is not None:
                        detail += f"; first differing row: {got[diff]!r}, want {ref_lines[diff]!r}"
                failures.append(f"call {c.idx} leg_scan n=1..{n_max}: {detail}")
        return failures


class PiLarge(Workload):
    name = "pi_large"
    why = "one-shot PiTable growth to X = 2e7 then nth(pi(X)); the path behind rosser --n X"

    def plan(self, seed, size):
        rng = random.Random(f"{self.name}:{seed}")
        base = SIZES[size]["pi_large_x"]
        return {"base": base, "x": base + rng.randrange(4096)}

    def run_pass(self, lib, plan, pass_no, call):
        x = plan["x"]

        def one_shot():
            table = lib.sieve.PiTable(budget=x)
            count = table.pi(x)
            return [count, table.nth(count)]

        call("pi_nth", [x], one_shot)

    def ints(self, plan):
        return plan["x"]

    def check(self, plan, calls, ref):
        base, x = plan["base"], plan["x"]
        want_pi = PUBLISHED_PI[base] + count_primes_mr(base + 1, x)
        want_p = x
        while not is_prime(want_p):
            want_p -= 1
        failures = []
        for c in calls:
            if c.error or c.out != [want_pi, want_p]:
                failures.append(
                    f"call {c.idx} pi/nth at X={x}: got {c.error or c.out}, want {[want_pi, want_p]}"
                )
        return failures


class Tables(Workload):
    name = "tables"
    why = "the five published tables via cli.main, then many small queries on one shared PiTable"

    # Per cycle of ten queries: five interval counts, two Brocard counts,
    # two n-th-prime bounds and one threshold search.
    CYCLE = ("interval_count",) * 5 + ("brocard_count",) * 2 + ("nth_prime_bound",) * 2 + (
        "threshold_search",
    )

    # Result records as plain lists, so they travel as JSON.
    SHAPE = {
        "nth_prime_bound": lambda r: [r.alpha, r.a, r.bound, r.actual],
        "threshold_search": lambda r: [
            r.formula_a, r.observed_threshold, r.last_failing_n, r.scan_limit
        ],
    }

    def plan(self, seed, size):
        cfg = SIZES[size]
        rng = random.Random(f"{self.name}:{seed}")
        count, reach = cfg["tables_queries"], cfg["tables_reach"]
        queries = []
        for j in range(count):
            # The reach climbs over the pass, so the table grows stride by stride.
            top = max(4096, reach * (j + 1) // count)
            target = rng.randrange(top // 2, top + 1)
            kind = self.CYCLE[j % len(self.CYCLE)]
            if kind == "interval_count":
                k = rng.randint(2, 100)
                args = [max(1, target // k), k]
            elif kind == "brocard_count":
                s = math.isqrt(target)
                args = [max(1, int(0.8 * s / math.log(s)))]
            elif kind == "nth_prime_bound":
                args = [max(3, int(0.7 * target / math.log(target)))]
            else:
                args = [rng.randint(2, 60), rng.randint(100, 400)]
            queries.append((kind, args))
        return {"ids": list(cfg["tables_ids"]), "budget": cfg["tables_budget"], "queries": queries}

    def run_pass(self, lib, plan, pass_no, call):
        cli, cj = lib.cli, lib.conjectures
        for table_id in plan["ids"]:
            argv = ["table", "--id", str(table_id)]
            if table_id == 3:
                argv += ["--budget", str(TABLE3_BUDGET)]
            call("table", [table_id], lambda argv=argv: capture_cli(cli, argv))
        table = lib.sieve.PiTable(budget=plan["budget"])
        for kind, args in plan["queries"]:
            fn, shape = getattr(cj, kind), self.SHAPE.get(kind, lambda r: r)
            call(kind, args, lambda fn=fn, args=args, shape=shape: shape(fn(*args, table)))

    def ref_limit(self, plan):
        return plan["budget"]

    def _expect(self, kind: str, args: list, ref: RefPrimes):
        if kind == "table":
            return {"rc": 0, "stdout": table_anchor(args[0])}
        if kind == "interval_count":
            n, k = args
            return ref.count(n + 1, k * n - 1)
        if kind == "brocard_count":
            p, q = ref.nth(args[0]), ref.nth(args[0] + 1)
            return ref.count(p * p + 1, q * q - 1)
        if kind == "nth_prime_bound":
            return ref.nth(args[0])
        k, limit = args
        last = max((n for n in range(1, limit + 1) if ref.count(n, k * n) < k), default=0)
        return [max(1, last + 1), last, limit]

    @staticmethod
    def _actual(kind: str, out):
        if kind == "nth_prime_bound":
            return out[3]
        if kind == "threshold_search":
            return out[1:]
        return out

    def check(self, plan, calls, ref):
        expected: dict = {}
        failures = []
        for c in calls:
            key = (c.kind, tuple(c.args))
            if key not in expected:
                expected[key] = self._expect(c.kind, c.args, ref)
            if c.error:
                failures.append(f"call {c.idx} {c.kind}{c.args}: raised {c.error}")
            elif self._actual(c.kind, c.out) != expected[key]:
                failures.append(
                    f"call {c.idx} {c.kind}{c.args}: got {self._actual(c.kind, c.out)!r}, "
                    f"want {expected[key]!r}"
                )
        return failures


def _rand_log(rng: random.Random, lo: int, hi: int) -> int:
    """An integer spread evenly in log scale over [lo, hi]."""
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# One block of 50 commands, the same mix in every block: 34 cheap ones, 12
# that build a 2^24-stride PiTable, and one over-budget request of each kind
# (8 %), which do work before they exit 3. Cheap commands are over half of
# the block, so the median call is always a cheap one.
CLI_MIX = (
    ("leg", 10), ("bounds", 8), ("nagura", 8), ("crossover", 6), ("nth3", 2),
    ("count", 4), ("rosser", 4), ("nth-bound", 2), ("brocard", 2),
    ("over_brocard", 1), ("over_nagura", 1), ("over_bounds", 1), ("over_leg", 1),
)


def cli_command(kind: str, rng: random.Random) -> tuple[list[str], dict]:
    """argv and the parameters the checker needs, for one command of a kind."""
    if kind == "leg":
        n = _rand_log(rng, 10, CLI_LEG_MAX)
        return ["leg", "--n", str(n)], {"n": n}
    if kind == "bounds":
        n = _rand_log(rng, 5, CLI_BOUNDS_MAX)
        return ["bounds", "--n", str(n)], {"n": n}
    if kind == "nagura":
        n = _rand_log(rng, 26, STRIDE_SAFE)
        return ["nagura", "--n", str(n)], {"n": n}
    if kind == "crossover":
        k = rng.randint(2, 1000)
        return ["crossover", "--k", str(k)], {"k": k}
    if kind == "nth3":
        return ["nth-bound", "--n", "3"], {"n": 3}
    if kind == "count":
        k = rng.randint(2, 100)
        n = _rand_log(rng, 10, STRIDE_SAFE // k)
        return ["count", "--n", str(n), "--k", str(k)], {"n": n, "k": k}
    if kind == "rosser":
        n = _rand_log(rng, 1000, STRIDE_SAFE)
        return ["rosser", "--n", str(n)], {"n": n}
    if kind == "nth-bound":
        n = _rand_log(rng, 10, 600_000)
        return ["nth-bound", "--n", str(n)], {"n": n}
    if kind == "brocard":
        i = rng.randint(2, CLI_BROCARD_MAX)
        return ["brocard", "--i", str(i), "--decompose"], {"i": i}
    # Over budget: each does some work first (a 2^25 sieve or a basis build),
    # then exits 3; ROADMAP item 4 moves the check ahead of that work.
    if kind == "over_brocard":
        i = rng.randint(2_200_000, 2_600_000)
        return ["brocard", "--i", str(i), "--budget", str(1 << 25)], {}
    if kind == "over_nagura":
        return ["nagura", "--n", str(rng.randint(10**14, 2 * 10**14))], {}
    if kind == "over_bounds":
        return ["bounds", "--n", str(rng.randint(5 * 10**6, 10**7))], {}
    if kind == "over_leg":
        return ["leg", "--n", str(rng.randint(5 * 10**6, 10**7))], {}
    raise ValueError(f"unknown command kind {kind!r}")


def cli_block(seed: int, block: int) -> list[tuple[str, list[str], dict]]:
    """The seeded, shuffled commands of one block."""
    rng = random.Random(f"cli_mix:{seed}:{block}")
    kinds = [kind for kind, count in CLI_MIX for _ in range(count)]
    rng.shuffle(kinds)
    return [(kind, *cli_command(kind, rng)) for kind in kinds]


class CliMix(Workload):
    name = "cli_mix"
    why = "seeded single-shot CLI commands (8 kinds, 8 % over budget); argparse, dispatch, small sieves"

    def plan(self, seed, size):
        return {"seed": seed}

    def run_pass(self, lib, plan, pass_no, call):
        for pos, (kind, argv, _) in enumerate(cli_block(plan["seed"], pass_no)):
            call(kind, [pass_no, pos, argv], lambda argv=argv: capture_cli(lib.cli, argv))

    def ref_limit(self, plan):
        # leg and bounds reach (n+1)^2, nagura 6n/5, brocard p_{i+1}^2 < 3000^2.
        return max((CLI_LEG_MAX + 1) ** 2, (CLI_BOUNDS_MAX + 1) ** 2, 12 * STRIDE_SAFE // 10, 3000**2)

    def _check_one(self, kind: str, params: dict, out: dict, ref: RefPrimes) -> str | None:
        rc, text = out["rc"], out["stdout"]
        if kind.startswith("over_"):
            return None if rc == 3 and text == "" else f"want exit 3 and no output, got exit {rc}"
        rows = _rows(text)
        if kind == "crossover":
            return None if rc == 0 and len(rows) == 1 else f"got exit {rc}, {len(rows)} rows"
        wants = []  # (rule, count, passed) per expected row
        if kind in ("leg", "bounds"):
            n = params["n"]
            value = ref.count(n * n + 1, (n + 1) ** 2 - 1)
            if kind == "leg":
                wants.append(("improved_legendre", value, value >= 2))
            else:
                q = n * n + 10 * n + 5
                wants.append(("conj_bounds", value, q / (3 * n * math.log(n)) <= value <= q / (3 * n)))
        elif kind == "nagura":
            n = params["n"]
            value = 1 if ref.count(n, 6 * n // 5) >= 1 else 0
            wants.append(("nagura", value, value == 1))
        elif kind in ("nth3", "nth-bound"):
            value = ref.nth(params["n"])
            bound = float(rows[0]["bound_upper"]) if rows else math.inf
            wants.append(("nth_prime_bound", value, value < bound))
        elif kind == "count":
            n, k = params["n"], params["k"]
            wants.append(("count", ref.count(n + 1, k * n - 1), True))
        elif kind == "rosser":
            n = params["n"]
            value, base = ref.pi(n), n / math.log(n)
            wants.append(("rosser", value, base <= value <= 1.25 * base))
        elif kind == "brocard":
            p, q = ref.nth(params["i"]), ref.nth(params["i"] + 1)
            total = ref.count(p * p + 1, q * q - 1)
            left = ref.count(p * p + 1, (p + 1) ** 2 - 1)
            right = ref.count((q - 1) ** 2 + 1, q * q - 1)
            wants += [("brocard", total, total >= 4), ("brocard_left", left, left >= 2),
                      ("brocard_right", right, right >= 2)]
        got = [(r["rule"], int(r["actual"]), r["pass"] == "true") for r in rows]
        want_rc = 0 if all(w[2] for w in wants) else 1
        if got != wants or rc != want_rc:
            return f"got exit {rc} rows {got}, want exit {want_rc} rows {wants}"
        return None

    def check(self, plan, calls, ref):
        blocks: dict[int, list] = {}
        failures = []
        for c in calls:
            block, pos, argv = c.args
            if block not in blocks:
                blocks[block] = cli_block(plan["seed"], block)
            kind, want_argv, params = blocks[block][pos]
            if argv != want_argv:
                problem = f"ran {argv}, but the seed gives {want_argv}"
            elif c.error:
                problem = f"raised {c.error}"
            else:
                try:
                    problem = self._check_one(kind, params, c.out, ref)
                except (KeyError, ValueError) as exc:
                    problem = f"unparseable output {c.out['stdout']!r}: {exc}"
            if problem:
                failures.append(f"call {c.idx} {' '.join(argv)}: {problem}")
        return failures


WORKLOADS: dict[str, Workload] = {w.name: w for w in (LegScan(), PiLarge(), Tables(), CliMix())}
