"""Range-scan drivers, table reproduction, and CSV/JSON serialization."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, ROUND_HALF_UP, Context, Decimal
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TextIO, Union

from .errors import BudgetError, DomainError, RangeOverflowError, UsageError
from .sieve import DEFAULT_BUDGET, Interval, PiTable, PrimeBasis, build_basis, count_primes
from .conjectures import (
    brocard_count,
    brocard_decomposition,
    conj4_bound,
    conj4_crossover,
    evaluate_leg,
    interval_count,
    leg_many,
    nagura_check,
    nth_prime_bound,
    pnt_ratio,
    rosser_check,
    threshold_search,
)


# Enough digits to write any finite float (309 before the point) with 2 after it.
_FLOAT_DIGITS = Context(prec=311)


def round1(x: float) -> str:
    """Format to 1 decimal, rounding half away from zero."""
    return str(Decimal(repr(x)).quantize(Decimal("0.1"), ROUND_HALF_UP, _FLOAT_DIGITS))


def trunc2(x: float) -> str:
    """Format to 2 decimals, truncating toward zero."""
    return str(Decimal(repr(x)).quantize(Decimal("0.01"), ROUND_DOWN, _FLOAT_DIGITS))


class ScanRecord(NamedTuple):
    """One grid point of a conjecture scan: inputs, value, bounds, verdict.

    A named tuple: immutable, and cheap to build by the thousand in a scan.
    Its dict fields leave it unhashable.
    """

    rule: str
    inputs: dict[str, int]
    actual: Union[int, float]
    bounds: dict[str, float]
    passed: bool

    def to_flat(self) -> dict:
        row: dict = {"rule": self.rule}
        row.update(self.inputs)
        row["actual"] = self.actual
        for name, value in self.bounds.items():
            row[f"bound_{name}"] = value
        row["pass"] = self.passed
        return row

    @classmethod
    def from_flat(cls, row: Mapping) -> "ScanRecord":
        inputs = {}
        bounds = {}
        for key, value in row.items():
            if key in ("rule", "actual", "pass"):
                continue
            if key.startswith("bound_"):
                bounds[key[len("bound_") :]] = value
            else:
                inputs[key] = value
        return cls(
            rule=row["rule"],
            inputs=inputs,
            actual=row["actual"],
            bounds=bounds,
            passed=row["pass"],
        )


class ScanContext:
    """Shared sieve structures for one scan over `points`, built lazily per budget."""

    def __init__(self, budget: int = DEFAULT_BUDGET, points: Sequence[Mapping[str, int]] = ()):
        self.budget = budget
        self.points = points
        self._table: PiTable | None = None
        self._legs: dict[int, int] | None = None

    @property
    def table(self) -> PiTable:
        if self._table is None:
            self._table = PiTable(budget=self.budget)
        return self._table

    def basis_for(self, top: int) -> PrimeBasis:
        """A basis that can sieve every integer up to `top`, the largest one a rule counts.

        A `top` beyond the budget is rejected before any basis is built.
        Each call builds its own: the n of the published tables ascend, so
        a kept basis would be too small for every later call anyway.
        """
        if top > self.budget:
            raise BudgetError(f"interval end {top} exceeds the sieve budget {self.budget}")
        return build_basis(max(2, math.isqrt(max(top, 0)) + 1))

    def leg(self, n: int) -> int:
        """leg(n), counted for every n of the scan's points in one `leg_many` on first use."""
        if self._legs is None:
            self._legs = leg_many([p["n"] for p in self.points], budget=self.budget)
        return self._legs[n]


# Each rule evaluates one grid point into its records. Library functions are
# called through this module's globals at call time, so patching a module
# attribute reaches every rule.


def _rule_improved_legendre(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    n = point["n"]
    value = ctx.leg(n)
    return [ScanRecord("improved_legendre", {"n": n}, value, {"lower": 2.0}, value >= 2)]


def _rule_conj_bounds(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    n = point["n"]
    ev = evaluate_leg(n, ctx.basis_for((max(n, 0) + 1) ** 2 - 1), budget=ctx.budget)
    bounds = {"lower": ev.conj_lb, "upper": ev.conj_ub, "rosser_upper": ev.rosser_ub}
    return [ScanRecord("conj_bounds", {"n": n}, ev.leg, bounds, ev.within_conj_bounds)]


def _rule_conj3(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    n, k = point["n"], point["k"]
    value = interval_count(n, k, ctx.table)
    bounds = {"min_required": float(k - 1)}
    return [ScanRecord("conj3", {"n": n, "k": k}, value, bounds, value >= k - 1)]


def _rule_conj4(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    n, k = point["n"], point["k"]
    value = interval_count(n, k, ctx.table)
    bound = conj4_bound(n, k)
    return [ScanRecord("conj4", {"n": n, "k": k}, value, {"upper": bound}, value <= bound)]


def _rule_nth_prime_bound(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    n = point["n"]
    res = nth_prime_bound(n, ctx.table)
    if res.actual is None:
        # A bound that cannot be compared with p_n is unverified, not a pass.
        raise BudgetError(f"{res.unverified}; bound unverified")
    bounds = {"upper": float(res.bound)}
    return [ScanRecord("nth_prime_bound", {"n": n}, res.actual, bounds, res.actual < res.bound)]


def _rule_rosser(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    n = point["n"]
    ok = rosser_check(n, ctx.table)
    base = n / math.log(n)
    bounds = {"lower": base, "upper": 1.25 * base}
    return [ScanRecord("rosser", {"n": n}, ctx.table.pi(n), bounds, ok)]


def _rule_bertrand(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    n = point["n"]
    if n < 2:
        # Below 2 the postulate does not apply, so an empty [n, 2n) is no violation.
        raise DomainError(f"the postulate needs n >= 2, got {n}")
    iv = Interval(n, 2 * n, lo_open=False, hi_open=True)
    value = count_primes(iv, ctx.basis_for(2 * n - 1), budget=ctx.budget)
    return [ScanRecord("bertrand", {"n": n}, value, {"min_required": 1.0}, value >= 1)]


def _rule_nagura(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    n = point["n"]
    ok = nagura_check(n, ctx.basis_for(6 * n // 5), budget=ctx.budget)
    return [ScanRecord("nagura", {"n": n}, 1 if ok else 0, {"min_required": 1.0}, ok)]


def _rule_count(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    n, k = point["n"], point["k"]
    value = interval_count(n, k, ctx.table)
    return [ScanRecord("count", {"n": n, "k": k}, value, {}, True)]


def _rule_pnt_ratio(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    n = point["n"]
    return [ScanRecord("pnt_ratio", {"n": n}, pnt_ratio(n, ctx.table), {}, True)]


def _rule_threshold(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    k, limit = point["k"], point["scan_limit"]
    res = threshold_search(k, limit, ctx.table)
    # The formula bounds the threshold: the scan holds iff observed <= formula_a.
    bounds = {"upper": float(res.formula_a)}
    inputs = {"k": k, "scan_limit": limit}
    holds = res.conjecture_holds_on_scan
    return [ScanRecord("threshold", inputs, res.observed_threshold, bounds, holds)]


def _rule_brocard(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    """Brocard's count; a nonzero `decompose` adds its two end subintervals."""
    i = point["i"]
    if i < 2:
        # The at-least-4 claim relies on consecutive odd primes, so (2, 3) is no violation.
        raise DomainError(f"the at-least-4 claim needs i >= 2, got {i}")
    value = brocard_count(i, ctx.table)
    records = [ScanRecord("brocard", {"i": i}, value, {"min_required": 4.0}, value >= 4)]
    if point.get("decompose"):
        first, second = brocard_decomposition(i, ctx.table)
        for rule, part in (("brocard_left", first), ("brocard_right", second)):
            records.append(ScanRecord(rule, {"i": i}, part, {"min_required": 2.0}, part >= 2))
    return records


def _rule_conj4_crossover(ctx: ScanContext, point: Mapping[str, int]) -> list[ScanRecord]:
    k = point["k"]
    value = conj4_crossover(k)
    if 2 * k > sys.float_info.max:
        raise RangeOverflowError(f"2k = {2 * k} exceeds the float range")
    return [ScanRecord("conj4_crossover", {"k": k}, value, {"two_k": float(2 * k)}, True)]


RULES: dict[str, Callable[[ScanContext, Mapping[str, int]], list[ScanRecord]]] = {
    "improved_legendre": _rule_improved_legendre,
    "conj_bounds": _rule_conj_bounds,
    "conj3": _rule_conj3,
    "conj4": _rule_conj4,
    "nth_prime_bound": _rule_nth_prime_bound,
    "rosser": _rule_rosser,
    "bertrand": _rule_bertrand,
    "nagura": _rule_nagura,
    "count": _rule_count,
    "pnt_ratio": _rule_pnt_ratio,
    "threshold": _rule_threshold,
    "brocard": _rule_brocard,
    "conj4_crossover": _rule_conj4_crossover,
}


def _evaluate(
    rule: str, points: Sequence[Mapping[str, int]], budget: int, where: str = ""
) -> list[ScanRecord]:
    """The records of `rule` over `points`, in order.

    With `where`, a template naming one point, a budget error names the point
    that raised it.
    """
    ctx = ScanContext(budget, points)
    fn = RULES[rule]
    records: list[ScanRecord] = []
    for point in points:
        try:
            records += fn(ctx, point)
        except BudgetError as exc:
            if not where:
                raise
            raise BudgetError(f"{where.format(**point)}: {exc}") from exc
    return records


def run_scan(
    rule: str, input_grid: Iterable[Mapping[str, int]], *, budget: int = DEFAULT_BUDGET
) -> list[ScanRecord]:
    """Records for every grid point, in input order; failures are collected."""
    if rule not in RULES:
        raise UsageError(f"unknown scan rule {rule!r}; known: {', '.join(sorted(RULES))}")
    return _evaluate(rule, list(input_grid), budget)


@dataclass(frozen=True)
class ColumnSpec:
    """A rendered column: its name, where its value comes from, and how it is printed.

    The value is `row[source]`, or `source(row)` when it is callable, where
    the row is a record's flat form plus its `paper_value`. Without a
    source the column reads the row key of its own name.
    """

    name: str
    kind: str  # "int" | "real1" | "real2dn" | "text"
    source: Union[str, Callable[[dict], object]] = ""

    def render(self, row: dict) -> Union[int, str]:
        source = self.source or self.name
        value = source(row) if callable(source) else row[source]
        if self.kind == "int":
            return int(value)
        if self.kind == "real1":
            return round1(float(value))
        if self.kind == "real2dn":
            return trunc2(float(value))
        return _format_cell(value)


@dataclass(frozen=True)
class TableSpec:
    """A table as data: one registry rule over a grid, and a column map from its records.

    `cell` names one grid point (`str.format` over the point), both in budget
    errors and as the key of `disputed`: published cells that disagree with
    the formulas they claim to tabulate, emitted in the `paper_value` column
    next to our computed values.
    """

    table_id: int
    rule: str
    grid: list[dict[str, int]]
    columns: list[ColumnSpec]
    cell: str = ""
    disputed: Mapping[str, str] = field(default_factory=dict)

    def tabulate(self, records: list[ScanRecord]) -> "RenderedTable":
        """One rendered row per record."""
        rows = []
        for rec in records:
            row = rec.to_flat()
            row["paper_value"] = self.disputed.get(self.cell.format(**rec.inputs), "")
            rows.append([c.render(row) for c in self.columns])
        return RenderedTable(self.table_id, [c.name for c in self.columns], rows)


@dataclass(frozen=True)
class RenderedTable:
    """Rows of already-formatted cells; ints stay ints, reals become strings."""

    table_id: int
    header: list[str]
    rows: list[list[Union[int, str]]]

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.header, row)) for row in self.rows]


TABLE2_NS = [10, 20, 50, 100, 500, 1000, 2000, 5000, 20000, 45000]
TABLE3_KS = [2, 5, 22, 65, 160, 427, 1020, 200000, 1000000]
TABLE3_DEFAULT_SCAN_LIMIT = 10000
# The published verification horizon is unstated for the two largest k;
# these scans use 100 and record the horizon in the output.
TABLE3_LARGE_K_SCAN_LIMIT = 100
TABLE3_LARGE_KS = frozenset({200000, 1000000})
TABLE5_NS = [10, 50, 100, 500, 1000, 5000]
TABLE5_KS = [2, 5, 10, 50, 100]
TABLE4_NS = [32, 987, 2000]


def _pow2_cell(n: int) -> str:
    value = 1 << n
    if n <= 64:
        return str(value)
    return f"{len(str(value))}-digit"


TABLE_SPECS: dict[int, TableSpec] = {
    1: TableSpec(
        1,
        "improved_legendre",
        [{"n": n} for n in range(1, 11)],
        [ColumnSpec("n", "int"), ColumnSpec("leg", "int", "actual")],
    ),
    2: TableSpec(
        2,
        "conj_bounds",
        [{"n": n} for n in TABLE2_NS],
        [
            ColumnSpec("n", "int"),
            ColumnSpec("leg", "int", "actual"),
            ColumnSpec("rosser_upper", "real1", "bound_rosser_upper"),
            ColumnSpec("conj_lower", "real1", "bound_lower"),
            ColumnSpec("conj_upper", "real1", "bound_upper"),
            ColumnSpec("paper_value", "text"),
        ],
        cell="row n={n}",
        disputed={"row n=500": "27.3", "row n=2000": "88.2"},  # conj_lower
    ),
    3: TableSpec(
        3,
        "threshold",
        [
            {"k": k, "scan_limit": TABLE3_LARGE_K_SCAN_LIMIT}
            if k in TABLE3_LARGE_KS
            else {"k": k, "scan_limit": TABLE3_DEFAULT_SCAN_LIMIT}
            for k in TABLE3_KS
        ],
        [
            ColumnSpec("k", "int"),
            ColumnSpec("actual_threshold", "int", "actual"),
            ColumnSpec("formula_value", "real2dn", lambda row: 1.1 * math.log(2.5 * row["k"])),
            ColumnSpec("estimate_a", "int", "bound_upper"),
            ColumnSpec("scan_limit", "int"),
            ColumnSpec("paper_value", "text"),
        ],
        cell="column k={k}",
        disputed={"column k=5": "2.21", "column k=160": "6.27"},  # formula_value
    ),
    4: TableSpec(
        4,
        "nth_prime_bound",
        [{"n": n} for n in TABLE4_NS],
        [
            ColumnSpec("n", "int"),
            ColumnSpec("nth_prime", "int", "actual"),
            ColumnSpec("pow2_upper", "text", lambda row: _pow2_cell(row["n"])),
            ColumnSpec("our_upper", "int", "bound_upper"),
        ],
        cell="row n={n}",
    ),
    5: TableSpec(
        5,
        "conj4",
        [{"n": n, "k": k} for n in TABLE5_NS for k in TABLE5_KS],
        [
            ColumnSpec("n", "int"),
            ColumnSpec("k", "int"),
            ColumnSpec("actual", "int"),
            ColumnSpec("bound", "real1", "bound_upper"),
            ColumnSpec("paper_value", "text"),
        ],
        cell="cell (n={n}, k={k})",
        # 4999 is prime; the published 2094 only results from closing the
        # interval at it, contradicting the open count used everywhere else.
        disputed={"cell (n=5000, k=5)": "2094"},  # actual
    ),
}

# The `threshold` subcommand's one-row table. The threshold is one past the
# last failing n, so last_failing_n = actual - 1.
THRESHOLD_COLUMNS = [
    ColumnSpec("k", "int"),
    ColumnSpec("formula_a", "int", "bound_upper"),
    ColumnSpec("observed_threshold", "int", "actual"),
    ColumnSpec("last_failing_n", "int", lambda row: row["actual"] - 1),
    ColumnSpec("scan_limit", "int"),
    ColumnSpec("holds", "text", "pass"),
]


def reproduce_table(table_id: int, *, budget: int = DEFAULT_BUDGET) -> RenderedTable:
    """Recompute one of the five published tables from scratch."""
    spec = TABLE_SPECS.get(table_id)
    if spec is None:
        raise UsageError(f"unknown table id {table_id}; expected 1..5")
    where = f"table {table_id}, {spec.cell}" if spec.cell else ""
    return spec.tabulate(_evaluate(spec.rule, spec.grid, budget, where))


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return round1(value)
    return str(value)


def _records_header(records: list[ScanRecord]) -> list[str]:
    header: list[str] = ["rule"]
    for rec in records:
        for key in rec.inputs:
            if key not in header:
                header.append(key)
    header.append("actual")
    for rec in records:
        for key in rec.bounds:
            name = f"bound_{key}"
            if name not in header:
                header.append(name)
    header.append("pass")
    return header


def _records_csv(records: list[ScanRecord]) -> str:
    """One row per record, its cells read straight from the record's fields in header order.

    Each column is built as a list and the rows zip them. A cell is
    formatted by its exact type: an int by `str`, a float by `round1`, once
    per distinct float per render, and anything else, such as a bool, a
    missing cell's "" or a numpy scalar, by `_format_cell`. The float memo
    is keyed by value, except that a zero is keyed by `repr`, which keeps
    0.0 apart from -0.0.
    """
    header = _records_header(records)
    input_keys = header[1 : header.index("actual")]
    bound_keys = [name[len("bound_") :] for name in header[len(input_keys) + 2 : -1]]
    reals: dict[float | str, str] = {}

    def real(x: float) -> str:
        key = x if x else repr(x)
        text = reals.get(key)
        if text is None:
            text = reals[key] = round1(x)
        return text

    by_type = {int: str, float: real}

    def cells(values: Iterable) -> list[str]:
        return [by_type.get(type(v), _format_cell)(v) for v in values]

    rules, inputs, actuals, bounds, passes = zip(*records) if records else ((),) * 5
    columns = [
        rules,
        *(cells(d.get(key, "") for d in inputs) for key in input_keys),
        cells(actuals),
        *(cells(d.get(key, "") for d in bounds) for key in bound_keys),
        cells(passes),
    ]
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def _records_json(records: list[ScanRecord]) -> str:
    return json.dumps([rec.to_flat() for rec in records], indent=2) + "\n"


def _table_csv(table: RenderedTable) -> str:
    lines = [",".join(table.header)]
    for row in table.rows:
        lines.append(",".join(str(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _table_json(table: RenderedTable) -> str:
    return json.dumps(table.as_dicts(), indent=2) + "\n"


def records_from_json(text: str) -> list[ScanRecord]:
    return [ScanRecord.from_flat(row) for row in json.loads(text)]


def render(payload: Union[list[ScanRecord], RenderedTable], fmt: str) -> str:
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}; expected csv or json")
    if isinstance(payload, RenderedTable):
        return _table_csv(payload) if fmt == "csv" else _table_json(payload)
    return _records_csv(payload) if fmt == "csv" else _records_json(payload)


def emit(
    payload: Union[list[ScanRecord], RenderedTable],
    fmt: str,
    destination: Union[str, TextIO],
) -> None:
    """Serialize scan records or a rendered table to CSV or JSON."""
    text = render(payload, fmt)
    if isinstance(destination, (str, bytes)):
        with open(destination, "w", encoding="utf-8") as sink:
            sink.write(text)
    else:
        destination.write(text)
