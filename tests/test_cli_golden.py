"""Golden CLI outputs: the exact stdout bytes and exit code of every subcommand.

The five tables are compared with the published anchors in `bench/anchors/`,
which the benchmark checks against too.
"""

from pathlib import Path

import pytest

from prime_gauge.cli import main

ANCHORS = Path(__file__).resolve().parent.parent / "bench" / "anchors"

GOLDEN = [
    (["leg", "--n", "10"], 0, "rule,n,actual,bound_lower,pass\nimproved_legendre,10,5,2.0,true\n"),
    (
        ["leg-scan", "--from", "1", "--to", "12"],
        0,
        "rule,n,actual,bound_lower,pass\n"
        + "".join(
            f"improved_legendre,{n},{v},2.0,true\n"
            for n, v in enumerate([2, 2, 2, 3, 2, 4, 3, 4, 3, 5, 4, 5], start=1)
        ),
    ),
    (
        ["bounds", "--n", "10"],
        0,
        "rule,n,actual,bound_lower,bound_upper,bound_rosser_upper,pass\n"
        "conj_bounds,10,5,3.0,6.8,11.1,true\n",
    ),
    (["count", "--n", "10", "--k", "50"], 0, "rule,n,k,actual,pass\ncount,10,50,91,true\n"),
    (
        ["count", "--n", "10", "--k", "50", "--format", "json"],
        0,
        '[\n  {\n    "rule": "count",\n    "n": 10,\n    "k": 50,\n    "actual": 91,\n'
        '    "pass": true\n  }\n]\n',
    ),
    (
        ["threshold", "--k", "5", "--scan-limit", "1000"],
        0,
        "k,formula_a,observed_threshold,last_failing_n,scan_limit,holds\n5,3,3,2,1000,true\n",
    ),
    (
        ["threshold", "--k", "5", "--scan-limit", "1000", "--format", "json"],
        0,
        '[\n  {\n    "k": 5,\n    "formula_a": 3,\n    "observed_threshold": 3,\n'
        '    "last_failing_n": 2,\n    "scan_limit": 1000,\n    "holds": "true"\n  }\n]\n',
    ),
    (["brocard", "--i", "4"], 0, "rule,i,actual,bound_min_required,pass\nbrocard,4,15,4.0,true\n"),
    (
        ["brocard", "--i", "2", "--decompose"],
        0,
        "rule,i,actual,bound_min_required,pass\nbrocard,2,5,4.0,true\n"
        "brocard_left,2,2,2.0,true\nbrocard_right,2,3,2.0,true\n",
    ),
    (["brocard", "--i", "1", "--decompose"], 2, ""),
    (["brocard", "--i", "1"], 2, ""),
    (["nth-bound", "--n", "32"], 0, "rule,n,actual,bound_upper,pass\nnth_prime_bound,32,131,448.0,true\n"),
    (["nth-bound", "--n", "3"], 1, "rule,n,actual,bound_upper,pass\nnth_prime_bound,3,5,4.0,false\n"),
    (
        ["ubcount", "--n", "10", "--k", "2"],
        0,
        "rule,n,k,actual,bound_upper,pass\nconj4,10,2,4,6.2,true\n",
    ),
    (
        ["crossover", "--k", "2"],
        0,
        "rule,k,actual,bound_two_k,pass\nconj4_crossover,2,3.9,4.0,true\n",
    ),
    (
        ["rosser", "--n", "100"],
        0,
        "rule,n,actual,bound_lower,bound_upper,pass\nrosser,100,25,21.7,27.1,true\n",
    ),
    (["nagura", "--n", "26"], 0, "rule,n,actual,bound_min_required,pass\nnagura,26,1,1.0,true\n"),
    (["pnt-ratio", "--n", "10"], 0, "rule,n,actual,pass\npnt_ratio,10,0.9,true\n"),
]

# Errors the scan layer raises: a domain error exits 2, a budget error exits 3,
# and either prints one line on stderr and nothing on stdout.
GOLDEN_ERRORS = [
    (["bounds", "--n", "3"], 2, "evaluate_leg needs n >= 5, got 3"),
    (
        ["bounds", "--n", "46340"],
        3,
        "interval end 2147488280 exceeds the sieve budget 2147483648",
    ),
    (["nagura", "--n", "25"], 2, "the 6n/5 result needs n > 25, got 25"),
    (
        ["nagura", "--n", "10001", "--budget", "12000"],
        3,
        "interval end 12001 exceeds the sieve budget 12000",
    ),
    (["leg", "--n", "0"], 2, "leg expects a positive integer, got 0"),
    (
        ["leg-scan", "--from", "1", "--to", "46341"],
        3,
        "interval end 2147580963 exceeds the sieve budget 2147483648",
    ),
    (
        ["table", "--id", "2", "--budget", "10000"],
        3,
        "table 2, row n=100: interval end 10200 exceeds the sieve budget 10000",
    ),
    (
        ["table", "--id", "3", "--budget", "10000"],
        3,
        "table 3, column k=2: k * scan_limit = 20000 exceeds the budget 10000",
    ),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_subcommand_output(capsys, argv, code, stdout):
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("table_id", [1, 2, 3, 4, 5])
def test_table_matches_anchor(capsys, table_id):
    argv = ["table", "--id", str(table_id)]
    if table_id == 3:
        argv += ["--budget", str(10**8)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (ANCHORS / f"table{table_id}.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv,code,message", GOLDEN_ERRORS, ids=[" ".join(g[0]) for g in GOLDEN_ERRORS]
)
def test_error_output(capsys, argv, code, message):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
