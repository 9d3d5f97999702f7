import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prime_gauge import (
    BudgetError,
    DomainError,
    UsageError,
    build_basis,
    emit,
    leg,
    records_from_json,
    reproduce_table,
    run_scan,
)
from prime_gauge.scan_report import ScanRecord, _format_cell, _records_header, render

from oracles import TrialPrefix


class TestRunScan:
    def test_improved_legendre_range(self):
        records = run_scan("improved_legendre", [{"n": n} for n in range(1, 101)])
        assert len(records) == 100
        assert all(r.passed for r in records)
        oracle = TrialPrefix(101 * 101)
        for rec in records:
            n = rec.inputs["n"]
            assert rec.actual == oracle.count(n * n, (n + 1) ** 2, True, True)

    def test_improved_legendre_unsorted_grid_in_two_runs(self):
        # n = 3, 4 and n = 5000, 5001 lie far more than a segment apart.
        ns = [5001, 3, 4, 5000, 3]
        records = run_scan("improved_legendre", [{"n": n} for n in ns])
        basis = build_basis(5003)
        assert [r.inputs["n"] for r in records] == ns
        assert [r.actual for r in records] == [leg(n, basis) for n in ns]

    @pytest.mark.parametrize(
        "rule,grid",
        [
            ("improved_legendre", [{"n": n} for n in (7, 1, 300, 7)]),
            ("conj4", [{"n": n, "k": k} for n in (10, 50) for k in (2, 5)]),
        ],
    )
    def test_generator_grid_matches_list_grid(self, rule, grid):
        # The grid is read once, and no record shares its inputs with a grid point.
        listed = run_scan(rule, grid, budget=10**6)
        assert run_scan(rule, (dict(p) for p in grid), budget=10**6) == listed
        assert all(r.inputs is not p for r, p in zip(listed, grid))

    def test_empty_grid(self):
        assert run_scan("improved_legendre", []) == []

    def test_unknown_rule(self):
        with pytest.raises(UsageError):
            run_scan("no_such_rule", [{"n": 1}])

    def test_conj4_table5_grid(self):
        grid = [{"n": n, "k": k} for n in (10, 50, 100) for k in (2, 5, 10)]
        records = run_scan("conj4", grid, budget=10**5)
        assert len(records) == 9
        assert all(r.passed for r in records)
        assert [r.inputs for r in records] == grid  # input order preserved

    def test_single_point_rules(self):
        assert run_scan("rosser", [{"n": 100}], budget=10**5)[0].passed
        assert run_scan("bertrand", [{"n": 10}], budget=10**5)[0].passed
        rec = run_scan("count", [{"n": 10, "k": 50}], budget=10**5)[0]
        assert rec.actual == 91
        rec = run_scan("nth_prime_bound", [{"n": 32}], budget=10**5)[0]
        assert rec.bounds["upper"] == 448.0 and rec.actual == 131

    def test_nagura_negative_n_is_domain_error(self):
        with pytest.raises(DomainError):
            run_scan("nagura", [{"n": -5}])

    @pytest.mark.parametrize("n", [0, 1])
    def test_bertrand_outside_domain_raises(self, n):
        # The postulate needs n >= 2; an empty [n, 2n) below that is no violation.
        with pytest.raises(DomainError):
            run_scan("bertrand", [{"n": n}], budget=10**5)

    def test_bertrand_smallest_n_passes(self):
        rec = run_scan("bertrand", [{"n": 2}], budget=10**5)[0]
        assert rec.passed and rec.actual == 2

    @pytest.mark.parametrize("rule,n", [("nagura", 6 * 10**16), ("conj_bounds", 2 * 10**8)])
    def test_over_budget_rejected_before_basis(self, rule, n):
        # The basis for either point would take hundreds of megabytes.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="exceeds the sieve budget"):
                run_scan(rule, [{"n": n}])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bertrand_budget_edge(self):
        # [n, 2n) ends at 2n - 1, so n = 5000 fits a budget of 10000.
        assert run_scan("bertrand", [{"n": 5000}], budget=10_000)[0].passed
        with pytest.raises(BudgetError):
            run_scan("bertrand", [{"n": 5001}], budget=10_000)

    def test_unverified_nth_bound_raises(self):
        with pytest.raises(BudgetError):
            run_scan("nth_prime_bound", [{"n": 32}, {"n": 100_000}], budget=10**4)

    def test_failures_are_collected_not_raised(self):
        records = run_scan("nth_prime_bound", [{"n": n} for n in (3, 4, 5)], budget=10**5)
        assert [r.passed for r in records] == [False, True, True]


class TestEmit:
    def test_csv_structure(self):
        records = run_scan("conj4", [{"n": 10, "k": 2}, {"n": 50, "k": 2}], budget=10**4)
        sink = io.StringIO()
        emit(records, "csv", sink)
        lines = sink.getvalue().strip().split("\n")
        assert len(lines) == 3
        assert lines[0] == "rule,n,k,actual,bound_upper,pass"

    def test_csv_empty(self):
        sink = io.StringIO()
        emit([], "csv", sink)
        assert sink.getvalue().strip() == "rule,actual,pass"

    def test_json_round_trip(self):
        records = run_scan("conj4", [{"n": n, "k": 5} for n in (10, 50)], budget=10**4)
        sink = io.StringIO()
        emit(records, "json", sink)
        assert records_from_json(sink.getvalue()) == records

    def test_table_json_keys(self):
        table = reproduce_table(1)
        rows = json.loads(render(table, "json"))
        assert len(rows) == 10
        assert list(rows[0].keys()) == ["n", "leg"]

    def test_unknown_format(self):
        with pytest.raises(UsageError):
            emit([], "xml", io.StringIO())

    def test_emit_to_path(self, tmp_path):
        target = tmp_path / "out.csv"
        emit(reproduce_table(1), "csv", str(target))
        assert target.read_text().startswith("n,leg\n")

    def test_byte_identical_runs(self):
        a = render(reproduce_table(5), "csv")
        b = render(reproduce_table(5), "csv")
        assert a == b


NAN = float("nan")
BIG = "1" + "0" * 300 + ".0"  # 1e300 to one decimal
# Two rules with different input and bound keys, so some cells are empty; 0.0
# and -0.0 in both orders; the halves 0.05, 0.15 and 2.25 rounded away from
# zero; 1e300; nan; ints and bools.
GOLDEN_RECORDS = [
    ScanRecord("alpha", {"n": 1, "k": 2}, 0.0, {"lower": -0.0, "upper": 0.05}, True),
    ScanRecord("alpha", {"n": 3, "k": 0}, -0.0, {"lower": 0.0, "upper": 0.15}, False),
    ScanRecord("beta", {"i": 7}, 1e300, {"mid": 2.25, "lower": 0.05}, True),
    ScanRecord("beta", {"i": True}, 12, {"mid": -2.25}, False),
    ScanRecord("alpha", {"n": 10**20, "k": False}, 2.25, {"upper": -0.15}, True),
    ScanRecord("beta", {"i": -4}, NAN, {"mid": NAN, "lower": 1e300}, False),
]
GOLDEN_CSV = (
    "rule,n,k,i,actual,bound_lower,bound_upper,bound_mid,pass\n"
    "alpha,1,2,,0.0,-0.0,0.1,,true\n"
    "alpha,3,0,,-0.0,0.0,0.2,,false\n"
    f"beta,,,7,{BIG},0.1,,2.3,true\n"
    "beta,,,true,12,,,-2.3,false\n"
    "alpha,100000000000000000000,false,,2.3,,-0.2,,true\n"
    f"beta,,,-4,NaN,{BIG},,NaN,false\n"
)


def flat_csv(records):
    """The records' CSV the plain way: a flat dict per record, every cell formatted on its own."""
    header = _records_header(records)
    lines = [",".join(header)]
    for rec in records:
        flat = rec.to_flat()
        lines.append(",".join(_format_cell(flat[c]) if c in flat else "" for c in header))
    return "\n".join(lines) + "\n"


CELL = st.integers(-(10**20), 10**20) | st.booleans() | st.floats(allow_infinity=False)
RECORD = st.builds(
    ScanRecord,
    st.sampled_from(["alpha", "beta"]),
    st.dictionaries(st.sampled_from(["n", "k", "i"]), CELL, max_size=3),
    CELL,
    st.dictionaries(st.sampled_from(["lower", "upper", "mid"]), CELL, max_size=3),
    st.booleans(),
)


class TestRecordsCsv:
    def test_golden(self):
        assert render(GOLDEN_RECORDS, "csv") == GOLDEN_CSV

    @settings(max_examples=100, deadline=None)
    @given(st.lists(RECORD, max_size=8))
    def test_matches_flat_rows(self, records):
        assert render(records, "csv") == flat_csv(records)


class TestTables:
    def test_table1(self):
        table = reproduce_table(1)
        assert [row[1] for row in table.rows] == [2, 2, 2, 3, 2, 4, 3, 4, 3, 5]

    def test_table2_row(self):
        table = reproduce_table(2)
        by_n = {row[0]: row for row in table.rows}
        assert by_n[1000][1:5] == [152, "18276.6", "48.7", "336.7"]
        assert by_n[45000][1] == 4218
        # Cells where the published number contradicts the published formula
        # carry the printed value as an annotation.
        assert by_n[500][3:6] == ["27.4", "170.0", "27.3"]
        assert by_n[2000][3:6] == ["88.1", "670.0", "88.2"]

    def test_table4(self):
        table = reproduce_table(4)
        assert table.rows[0] == [32, 131, "4294967296", 448]
        assert table.rows[1] == [987, 7793, "298-digit", 31424]
        assert table.rows[2] == [2000, 17389, "603-digit", 63840]

    def test_table5_cells(self):
        table = reproduce_table(5)
        cells = {(row[0], row[1]): row for row in table.rows}
        assert cells[(10, 100)][2:4] == [164, "10111.1"]
        assert cells[(5000, 100)][2:4] == [40869, "65555.6"]
        # 4999 is prime: the published 2094 only arises by closing the
        # interval at it; the open count is 2093 and is annotated.
        assert cells[(5000, 5)][2:] == [2093, "2802.8", "2094"]

    def test_table3_disputed_annotations(self):
        table = reproduce_table(3, budget=10**8)
        by_k = {row[0]: row for row in table.rows}
        assert by_k[5][2:] == ["2.77", 3, 10000, "2.21"]
        assert by_k[160][2:] == ["6.59", 7, 10000, "6.27"]

    def test_unknown_table(self):
        with pytest.raises(UsageError):
            reproduce_table(6)

    def test_budget_error_names_cell(self):
        from prime_gauge import BudgetError

        with pytest.raises(BudgetError, match=r"n=500, k=50"):
            reproduce_table(5, budget=10**4)


class TestScanRecordFlat:
    def test_round_trip(self):
        rec = ScanRecord("conj4", {"n": 10, "k": 2}, 4, {"upper": 6.2}, True)
        assert ScanRecord.from_flat(rec.to_flat()) == rec

    def test_keyword_construction(self):
        rec = ScanRecord(rule="conj4", inputs={"n": 10, "k": 2}, actual=4, bounds={}, passed=True)
        assert rec == ScanRecord("conj4", {"n": 10, "k": 2}, 4, {}, True)
        assert (rec.rule, rec.inputs, rec.actual, rec.bounds, rec.passed) == (
            "conj4",
            {"n": 10, "k": 2},
            4,
            {},
            True,
        )

    @pytest.mark.parametrize("name", ["rule", "inputs", "actual", "bounds", "passed", "extra"])
    def test_immutable(self, name):
        rec = ScanRecord("conj4", {"n": 10, "k": 2}, 4, {"upper": 6.2}, True)
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        assert rec == ScanRecord("conj4", {"n": 10, "k": 2}, 4, {"upper": 6.2}, True)

    def test_unhashable(self):
        # Its inputs and bounds are dicts.
        with pytest.raises(TypeError):
            hash(ScanRecord("conj4", {"n": 10, "k": 2}, 4, {"upper": 6.2}, True))

    def test_golden_records_round_trip(self):
        # The last record holds nan, which equals nothing, so all are also compared as bytes.
        back = [ScanRecord.from_flat(rec.to_flat()) for rec in GOLDEN_RECORDS]
        loaded = records_from_json(render(GOLDEN_RECORDS, "json"))
        assert back[:-1] == loaded[:-1] == GOLDEN_RECORDS[:-1]
        assert render(back, "csv") == render(loaded, "csv") == GOLDEN_CSV
