import json
import time

import pytest

from prime_gauge import BudgetError, DomainError, cli, sieve
from prime_gauge.cli import main
from prime_gauge.conjectures import leg_many
from prime_gauge.sieve import _TABLE_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_table1(self, capsys):
        code, out, _ = run(capsys, "table", "--id", "1")
        assert code == 0
        assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] == [
            "2", "2", "2", "3", "2", "4", "3", "4", "3", "5",
        ]

    def test_nth_bound(self, capsys):
        code, out, _ = run(capsys, "nth-bound", "--n", "32")
        assert code == 0
        assert "448" in out and "131" in out

    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "10", "--k", "50")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[3] == "91"

    def test_leg(self, capsys):
        code, out, _ = run(capsys, "leg", "--n", "10")
        assert code == 0
        assert ",5," in out

    def test_leg_scan(self, capsys):
        code, out, _ = run(capsys, "leg-scan", "--from", "1", "--to", "50")
        assert code == 0
        assert len(out.strip().split("\n")) == 51

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "10")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[2] == "5"  # leg(10)

    def test_threshold(self, capsys):
        code, out, _ = run(capsys, "threshold", "--k", "5", "--scan-limit", "1000")
        assert code == 0
        row = dict(zip(*[line.split(",") for line in out.strip().split("\n")]))
        assert row["observed_threshold"] == "3"
        assert row["holds"] == "true"

    def test_brocard_decompose(self, capsys):
        code, out, _ = run(capsys, "brocard", "--i", "2", "--decompose")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[1].split(",")[2] == "5"

    def test_crossover(self, capsys):
        code, out, _ = run(capsys, "crossover", "--k", "2")
        assert code == 0
        assert "3.9" in out  # 27/7 rounded to one decimal

    def test_crossover_past_decimal_precision(self, capsys):
        # The CSV cell has more digits than the default decimal context holds.
        code, out, _ = run(capsys, "crossover", "--k", str(10**30))
        assert code == 0
        assert f",{9 * 10**30 // 8}.0,{2 * 10**30}.0,true" in out

    def test_rosser_nagura_pnt(self, capsys):
        assert run(capsys, "rosser", "--n", "100")[0] == 0
        assert run(capsys, "nagura", "--n", "26")[0] == 0
        code, out, _ = run(capsys, "pnt-ratio", "--n", "10")
        assert code == 0
        assert "0.9" in out

    def test_ubcount(self, capsys):
        code, out, _ = run(capsys, "ubcount", "--n", "10", "--k", "2")
        assert code == 0
        assert ",4,6.2," in out


class TestExitCodes:
    def test_violation_exit_one(self, capsys):
        # The published n-th-prime bound genuinely fails at n = 3.
        code, out, err = run(capsys, "nth-bound", "--n", "3")
        assert code == 1
        assert "violation" in err

    def test_usage_error_unknown_flag(self, capsys):
        assert run(capsys, "leg", "--bogus", "1")[0] == 2

    def test_usage_error_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_threads_flag_is_gone(self, capsys):
        assert run(capsys, "leg", "--n", "10", "--threads", "2")[0] == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "rosser", "--n", "10")
        assert code == 2
        assert "error" in err

    def test_nagura_negative_n(self, capsys):
        code, out, err = run(capsys, "nagura", "--n", "-5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_empty_leg_scan(self, capsys):
        # A scan that checks nothing must not read as all passed.
        code, out, err = run(capsys, "leg-scan", "--from", "5", "--to", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_budget_error(self, capsys):
        code, _, err = run(capsys, "count", "--n", "5000", "--k", "3", "--budget", "10000")
        assert code == 3

    @pytest.mark.parametrize(
        "argv", [("nagura", "--n", "60000000000000000"), ("bounds", "--n", "200000000")]
    )
    def test_over_budget_before_basis(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "exceeds the sieve budget 2147483648" in err

    def test_nagura_budget_edge(self, capsys):
        # [n, 6n/5] ends at 12000 for n = 10000 and at 12001 for n = 10001.
        assert run(capsys, "nagura", "--n", "10000", "--budget", "12000")[0] == 0
        assert run(capsys, "nagura", "--n", "10001", "--budget", "12000")[0] == 3

    @pytest.mark.parametrize(
        "argv,row",
        [
            (("count", "--n", "1", "--k", "10001", "--budget", "10000"), "count,1,10001,1229,true"),
            (("pnt-ratio", "--n", "5001", "--budget", "10001"), "pnt_ratio,5001,"),
            (("brocard", "--i", "25", "--budget", "10200"), "brocard,25,89,"),
        ],
    )
    def test_budget_edge_is_largest_counted_integer(self, capsys, argv, row):
        # Each command reads pi at most at its budget, so it fits.
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.split("\n")[1].startswith(row)

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "1", "--k", "10002", "--budget", "10000"),
            ("pnt-ratio", "--n", "5002", "--budget", "10001"),
            ("brocard", "--i", "25", "--budget", "10199"),
        ],
    )
    def test_one_past_budget_edge(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "10", "--k", str(10**17), "--budget", str(10**19)),
            ("rosser", "--n", str(10**18), "--budget", str(10**19)),
            ("brocard", "--i", "100000000"),
            ("threshold", "--k", "10", "--scan-limit", str(10**17), "--budget", str(10**19)),
            ("threshold", "--k", "1000", "--scan-limit", str(10**7)),
            ("pnt-ratio", "--n", str(10**18), "--budget", str(10**19)),
            ("ubcount", "--n", str(10**17), "--k", "10", "--budget", str(10**19)),
            ("nth-bound", "--n", "105097566", "--budget", str(10**19)),
            ("leg-scan", "--from", "1", "--to", str(10**7)),
            ("leg-scan", "--from", "1", "--to", str(10**7), "--budget", str(10**19)),
        ],
    )
    def test_far_beyond_memory_fails_fast(self, capsys, argv):
        # Each would need gigabytes of flags; it is refused before any is allocated.
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 0.1
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        if argv[0] == "nth-bound":
            # p_n is about 2.15 * 10^9, far inside the budget: the table cap refuses it.
            assert f"above the cap {_TABLE_CAP}" in err
        if "--budget" in argv and argv[0] == "leg-scan":
            # (10^7 + 1)^2 is inside the budget: the cap on the n of one scan refuses it.
            assert f"--to {10**7} takes {10**7} n, above the cap {cli.LEG_SCAN_CAP}" in err

    @pytest.mark.parametrize("stop", [150, 151])
    def test_leg_scan_cap_edge(self, capsys, monkeypatch, stop):
        # With a cap of 100, 51..150 is scanned and 51..151 refused before its grid.
        monkeypatch.setattr(cli, "LEG_SCAN_CAP", 100)
        code, out, err = run(capsys, "leg-scan", "--from", "51", "--to", str(stop))
        if stop == 150:
            assert (code, err) == (0, "")
            assert len(out.splitlines()) == 101  # the header and one row per n
        else:
            assert (code, out) == (3, "")
            assert err == "error: leg-scan --from 51 --to 151 takes 101 n, above the cap 100\n"

    @pytest.mark.parametrize(
        "start,stop,budget,cap,error,code",
        [
            (1, 200, 40_000, None, BudgetError, 3),
            (0, 10**7, 10**19, None, DomainError, 2),
            # Base primes past the basis cap. At the real cap of 2^28 that takes
            # a grid of 2.7 * 10^8 points, so the cap is lowered to 1000 here.
            (1, 2000, 10**19, 1000, BudgetError, 3),
        ],
    )
    def test_leg_scan_refused_before_its_grid(
        self, capsys, monkeypatch, start, stop, budget, cap, error, code
    ):
        # A grid of 10^7 points would take gigabytes before leg_many saw it;
        # the range is refused before the scan starts, in leg_many's own words.
        if cap is not None:
            monkeypatch.setattr(sieve, "_BASIS_CAP", cap)
        with pytest.raises(error) as refused:
            leg_many([start, stop], budget=budget)

        def no_scan(*args, **kwargs):
            raise AssertionError("leg-scan reached its scan")

        monkeypatch.setattr(cli, "run_scan", no_scan)
        t0 = time.perf_counter()
        got = run(capsys, "leg-scan", "--from", str(start), "--to", str(stop), "--budget", str(budget))
        assert time.perf_counter() - t0 < 0.1
        assert got == (code, "", f"error: {refused.value}\n")

    def test_unverified_nth_bound_is_budget_error(self, capsys):
        # p_100000 = 1299709 lies beyond the budget, so the bound cannot be checked.
        code, out, err = run(capsys, "nth-bound", "--n", "100000", "--budget", "10000")
        assert code == 3
        assert out == ""
        assert "error" in err

    def test_table_beyond_budget(self, capsys):
        # Table 4 needs p_2000 = 17389.
        code, out, _ = run(capsys, "table", "--id", "4", "--budget", "10000")
        assert code == 3
        assert out == ""

    def test_overflow_error(self, capsys):
        code, _, _ = run(capsys, "count", "--n", str(2**61), "--k", "5")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("crossover", "--k", str(10**400)),
            ("crossover", "--k", str(10**308)),  # the crossover fits a float, 2k does not
            ("nth-bound", "--n", str(10**400)),
            ("brocard", "--i", str(10**400)),
        ],
    )
    def test_past_float_range(self, capsys, argv):
        # Past the float range; an OverflowError would exit 1, which reads as a violation.
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_budget_floor(self, capsys):
        assert run(capsys, "leg", "--n", "5", "--budget", "100")[0] == 2


class TestConfig:
    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("PRIME_GAUGE_BUDGET", "10000")
        assert run(capsys, "count", "--n", "5000", "--k", "3")[0] == 3
        monkeypatch.setenv("PRIME_GAUGE_BUDGET", "100000")
        assert run(capsys, "count", "--n", "5000", "--k", "3")[0] == 0

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PRIME_GAUGE_BUDGET", "10000")
        assert run(capsys, "count", "--n", "5000", "--k", "3", "--budget", "100000")[0] == 0

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("PRIME_GAUGE_BUDGET", "lots")
        assert run(capsys, "leg", "--n", "5")[0] == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t1.csv"
        code, out, _ = run(capsys, "table", "--id", "1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,leg\n")

    def test_formats_carry_identical_data(self, capsys):
        _, csv_out, _ = run(capsys, "count", "--n", "10", "--k", "50")
        _, json_out, _ = run(capsys, "count", "--n", "10", "--k", "50", "--format", "json")
        header = csv_out.strip().split("\n")[0].split(",")
        row = csv_out.strip().split("\n")[1].split(",")
        obj = json.loads(json_out)[0]
        assert obj["n"] == int(row[header.index("n")])
        assert obj["actual"] == int(row[header.index("actual")])
        assert obj["pass"] == (row[header.index("pass")] == "true")
