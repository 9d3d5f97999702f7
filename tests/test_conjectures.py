import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prime_gauge import (
    BudgetError,
    DomainError,
    PiTable,
    ThresholdResult,
    bertrand_check,
    brocard_count,
    brocard_decomposition,
    closed_interval_count,
    conj4_bound,
    conj4_crossover,
    conj_bounds_leg,
    evaluate_leg,
    interval_count,
    leg,
    leg_many,
    nagura_check,
    nth_prime_bound,
    pi,
    pnt_ratio,
    rosser_check,
    rosser_ub_leg,
    threshold_formula,
    threshold_search,
    build_basis,
)

from prime_gauge import conjectures, sieve

from oracles import trial_count, trial_is_prime


def round1(x: float) -> float:
    from decimal import Decimal, ROUND_HALF_UP

    return float(Decimal(repr(x)).quantize(Decimal("0.1"), ROUND_HALF_UP))


class TestLeg:
    def test_published_values(self, basis_2k):
        assert leg(1, basis_2k) == 2
        assert leg(4, basis_2k) == 3
        assert leg(1000, basis_2k) == 152

    def test_matches_trial_division(self, basis_2k, oracle_100k):
        for n in range(1, 200):
            assert leg(n, basis_2k) == oracle_100k.count(n * n, (n + 1) ** 2, True, True)

    def test_two_code_paths_agree(self, basis_2k, table_2m):
        # Segmented interval count vs pi-table difference.
        for n in range(1, 300):
            assert leg(n, basis_2k) == pi((n + 1) ** 2 - 1, table_2m) - pi(n * n, table_2m)

    def test_leg_many_matches_leg(self, basis_2k):
        ns = [1, 2, 3, 10, 50, 317, 999]
        assert leg_many(ns) == {n: leg(n, basis_2k) for n in ns}

    @settings(max_examples=50, deadline=None)
    @given(ns=st.lists(st.integers(1, 1999), min_size=1, max_size=12))
    def test_leg_many_on_scattered_n(self, basis_2k, ns):
        # Unsorted, repeated and scattered n, some of their intervals more than
        # a segment apart, so they fall into separate runs.
        assert leg_many(ns) == {n: leg(n, basis_2k) for n in ns}

    def test_invalid(self, basis_2k):
        with pytest.raises(DomainError):
            leg(0, basis_2k)

    def test_leg_many_sieves_only_its_own_interval(self):
        # Sweeping [0, 40001^2] instead of the 80000 integers of leg(40000) takes seconds.
        basis = build_basis(40_002)
        t0 = time.perf_counter()
        result = leg_many([40_000])
        assert time.perf_counter() - t0 < 1
        assert result == {40_000: leg(40_000, basis)}

    def test_leg_many_memory_holds_about_one_segment(self):
        tracemalloc.start()
        try:
            result = leg_many(range(1, 8001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        basis = build_basis(8002)
        assert len(result) == 8000
        assert all(result[n] == leg(n, basis) for n in (1, 2, 1000, 4096, 7999, 8000))


class TestLegBounds:
    def test_rosser_ub_values(self):
        assert round1(rosser_ub_leg(10)) == 11.1
        assert round1(rosser_ub_leg(100)) == 298.7
        assert round1(rosser_ub_leg(45000)) == 23629958.8

    def test_rosser_ub_domain(self):
        with pytest.raises(DomainError):
            rosser_ub_leg(4)

    def test_conj_bounds_values(self):
        assert tuple(map(round1, conj_bounds_leg(10))) == (3.0, 6.8)
        assert tuple(map(round1, conj_bounds_leg(500))) == (27.4, 170.0)
        assert tuple(map(round1, conj_bounds_leg(20))) == (3.4, 10.1)

    def test_conj_bounds_domain(self):
        with pytest.raises(DomainError):
            conj_bounds_leg(1)

    def test_evaluate_leg(self, basis_2k):
        ev = evaluate_leg(10, basis_2k)
        assert ev.leg == 5
        assert ev.satisfies_legendre and ev.satisfies_improved and ev.within_conj_bounds
        assert ev.conj_lb <= ev.leg <= ev.conj_ub <= ev.rosser_ub


class TestRosserCheck:
    def test_values(self, table_2m):
        assert rosser_check(100, table_2m)
        assert rosser_check(18, table_2m)
        assert rosser_check(10**6, table_2m)

    def test_domain(self, table_2m):
        with pytest.raises(DomainError):
            rosser_check(17, table_2m)


class TestIntervalCount:
    def test_published_values(self, table_2m):
        assert interval_count(10, 10, table_2m) == 21
        assert interval_count(2, 2, table_2m) == 1

    def test_table5_heavy_cell(self):
        table = PiTable(budget=600_000)
        assert interval_count(5000, 100, table) == 40869

    def test_matches_trial_division(self, table_2m, oracle_100k):
        for n, k in [(1, 2), (2, 3), (7, 11), (100, 13), (999, 97), (4999, 20)]:
            assert interval_count(n, k, table_2m) == oracle_100k.count(n, n * k, True, True)

    def test_closed_variant(self, table_2m, oracle_100k):
        for n, k in [(1, 2), (2, 3), (5, 5), (7, 11), (4999, 5)]:
            assert closed_interval_count(n, k, table_2m) == oracle_100k.count(n, n * k)

    def test_budget(self):
        table = PiTable(budget=10**5)
        with pytest.raises(BudgetError):
            interval_count(10**4, 11, table)

    def test_budget_edge(self):
        # (1, 10001) and [1, 10000] hold no integer above 10000; one more k does.
        for count, k in ((interval_count, 10_001), (closed_interval_count, 10_000)):
            assert count(1, k, PiTable(budget=10_000)) == 1229
            with pytest.raises(BudgetError, match=f"k\\*n = {k + 1} exceeds the budget 10000"):
                count(1, k + 1, PiTable(budget=10_000))

    def test_fresh_table_grows_plainly(self, monkeypatch):
        # From 2^21 on, a fresh table's first pi at the top end would anchor a
        # window that pi at n, below it, throws away; the counts grow the
        # table plainly to the top end first and make no window.
        n, k = 2**21 + 3, 2
        cases = [(interval_count, n * k - 1), (closed_interval_count, n * k)]
        plain = PiTable(budget=n * k)
        plain.pi(2)  # a small first query: the table grows plainly, with no window
        want = [count(n, k, plain) for count, _ in cases]

        def refuse(*args, **kwargs):
            raise AssertionError(f"_lucy_pi{args} ran for an interval count")

        monkeypatch.setattr(sieve, "_lucy_pi", refuse)
        for (count, top), answer in zip(cases, want):
            table = PiTable(budget=n * k)
            assert count(n, k, table) == answer
            assert table._state[0] == 0 and table.sieved_limit == top

    def test_overflow(self, table_2m):
        from prime_gauge import RangeOverflowError

        with pytest.raises(RangeOverflowError):
            interval_count(2**62, 4, table_2m)


class TestBertrandNagura:
    def test_bertrand(self, basis_2k):
        assert bertrand_check(2, basis_2k)
        assert bertrand_check(10, basis_2k)
        assert bertrand_check(25, basis_2k)

    def test_bertrand_closed_at_lower_end(self, basis_2k, oracle_100k):
        for n in range(2, 500):
            expected = oracle_100k.count(n, 2 * n, False, True) >= 1
            assert bertrand_check(n, basis_2k) == expected

    def test_nagura(self, basis_2k):
        assert nagura_check(26, basis_2k)
        assert nagura_check(100, basis_2k)

    def test_nagura_large(self):
        basis = build_basis(1100)
        assert nagura_check(10**6, basis)
        # Independent witness: 1000003 is prime and lies inside [10^6, 1.2*10^6].
        assert trial_is_prime(1000003)

    def test_nagura_domain(self, basis_2k):
        with pytest.raises(DomainError):
            nagura_check(25, basis_2k)


class TestThresholdFormula:
    def test_published_estimates(self):
        expected = {2: 2, 5: 3, 22: 5, 65: 6, 160: 7, 427: 8, 1020: 9, 200000: 15, 1000000: 17}
        for k, a in expected.items():
            assert threshold_formula(k) == a

    def test_monotone(self):
        values = [threshold_formula(k) for k in range(2, 5000)]
        assert values == sorted(values)

    def test_near_integer_guard(self):
        # 1.1*ln(2.5k) never lands exactly on an integer for these k, but the
        # guard must leave ordinary values untouched.
        assert threshold_formula(2) == math.ceil(1.1 * math.log(5.0))


class TestThresholdSearch:
    def test_small_k(self, table_2m):
        res = threshold_search(2, 10000, table_2m)
        assert res.observed_threshold == 2
        assert res.formula_a == 2
        assert res.conjecture_holds_on_scan

        res = threshold_search(5, 10000, table_2m)
        assert res.observed_threshold == 3

    def test_k22_includes_endpoints(self, table_2m):
        assert threshold_search(22, 10000, table_2m).observed_threshold == 5

    def test_consistency_at_threshold(self, table_2m):
        for k in (2, 5, 22, 65):
            res = threshold_search(k, 10000, table_2m)
            if res.last_failing_n > 0:
                n = res.observed_threshold - 1
                assert closed_interval_count(n, k, table_2m) < k
            for n in range(res.observed_threshold, 200):
                assert closed_interval_count(n, k, table_2m) >= k

    def test_budget(self):
        table = PiTable(budget=10**5)
        with pytest.raises(BudgetError):
            threshold_search(1000, 10**4, table)

    def test_grows_plainly_with_no_window(self, monkeypatch):
        # The batched counts read a plain table, so a scan past the window
        # threshold makes no window that they would sieve again from 0; a
        # scan past the cap is refused before any work.
        def refuse(x):
            raise AssertionError(f"_lucy_pi({x}) ran for a threshold scan")

        monkeypatch.setattr(sieve, "_lucy_pi", refuse)
        table = PiTable(budget=4 * 2**19 + 4)
        res = threshold_search(4, 2**19 + 1, table)
        assert (res.observed_threshold, res.last_failing_n) == (2, 1)
        assert table.sieved_limit == 4 * 2**19 + 4 >= sieve._ANCHOR_MIN
        with pytest.raises(BudgetError, match="above the cap"):
            threshold_search(22, 10**17, PiTable(budget=10**19))

    def test_matches_trial_division_scan(self, oracle_100k):
        # Every k in 2..60 and scan limit in 1..400, against the per-n
        # predicate: [n, kn] holds fewer than k primes.
        table = PiTable(budget=60 * 400)
        for k in range(2, 61):
            last_failing = 0
            for limit in range(1, 401):
                if oracle_100k.count(limit, k * limit) < k:
                    last_failing = limit
                expected = ThresholdResult(
                    k=k,
                    formula_a=threshold_formula(k),
                    observed_threshold=last_failing + 1,
                    last_failing_n=last_failing,
                    scan_limit=limit,
                    conjecture_holds_on_scan=last_failing < threshold_formula(k),
                )
                assert threshold_search(k, limit, table) == expected

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64])
    def test_chunk_size_invariance(self, oracle_100k, monkeypatch, chunk):
        # Small chunks put the failing n in a later chunk than the first.
        table = PiTable(budget=65 * 300)
        expected = {k: threshold_search(k, 300, table) for k in (2, 5, 22, 65)}
        monkeypatch.setattr(conjectures, "_SCAN_CHUNK", chunk)
        for k, res in expected.items():
            assert threshold_search(k, 300, table) == res
            last = max(n for n in range(301) if n == 0 or oracle_100k.count(n, k * n) < k)
            assert res.last_failing_n == last

    def test_long_scan_time_and_memory(self):
        # 4 * 10^6 n in chunks: a few MB of points at a time, not 4 * 10^6 of them.
        table = PiTable(budget=8 * 10**6)
        table.pi(2)  # a small first query: the table grows plainly, with no window
        table.pi(8 * 10**6)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            res = threshold_search(2, 4 * 10**6, table)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.observed_threshold, res.last_failing_n) == (2, 1)
        assert elapsed < 5
        assert peak < 16 * 2**20


class TestBrocard:
    def test_counts(self, table_2m):
        assert brocard_count(1, table_2m) == 2
        assert brocard_count(2, table_2m) == 5
        assert brocard_count(4, table_2m) == 15  # 15 primes between 49 and 121

    def test_matches_trial_division(self, table_2m, oracle_100k):
        from oracles import trial_nth

        for i in range(1, 30):
            p, q = trial_nth(i), trial_nth(i + 1)
            assert brocard_count(i, table_2m) == oracle_100k.count(p * p, q * q, True, True)

    def test_decomposition(self, table_2m):
        assert brocard_decomposition(2, table_2m) == (2, 3)
        assert brocard_decomposition(3, table_2m) == (2, 4)
        assert brocard_decomposition(4, table_2m) == (3, 5)

    def test_decomposition_rejects_first_index(self, table_2m):
        with pytest.raises(DomainError):
            brocard_decomposition(1, table_2m)

    def test_budget_edge(self, oracle_100k):
        # p_25 = 97 and p_26 = 101: both counts read pi up to 101^2 - 1 = 10200.
        table = PiTable(budget=10_200)
        assert brocard_count(25, table) == 89 == oracle_100k.count(97**2, 101**2, True, True)
        assert brocard_decomposition(25, table) == (
            oracle_100k.count(97**2, 98**2, True, True),
            oracle_100k.count(100**2, 101**2, True, True),
        )
        with pytest.raises(BudgetError):
            brocard_count(25, PiTable(budget=10_199))
        with pytest.raises(BudgetError):
            brocard_decomposition(25, PiTable(budget=10_199))

    def test_far_index_rejected_before_sieving(self):
        # p_100000001 is about 2 * 10^9, so its square is far beyond the default
        # budget; finding p_i first would sieve 2 GB.
        table = PiTable()
        for fn in (brocard_count, brocard_decomposition):
            tracemalloc.start()
            try:
                t0 = time.perf_counter()
                with pytest.raises(BudgetError):
                    fn(10**8, table)
                elapsed = time.perf_counter() - t0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20 and elapsed < 0.1
        assert table.sieved_limit == 0

    def test_at_least_four_from_second_index(self, table_2m):
        for i in range(2, 120):
            assert brocard_count(i, table_2m) >= 4, i


class TestNthPrimeBound:
    def test_published_rows(self, table_2m):
        res = nth_prime_bound(32, table_2m)
        assert (res.a, res.bound, res.actual) == (4, 448, 131)
        assert nth_prime_bound(987, table_2m).bound == 31424
        assert nth_prime_bound(2000, table_2m).bound == 63840

    def test_smallest_n_is_a_counterexample(self, table_2m):
        # The published bound is falsified at n = 3: the solver yields
        # a = 2, bound = 4, yet the third prime is 5.
        res = nth_prime_bound(3, table_2m)
        assert (res.alpha, res.a, res.bound, res.actual) == (1, 2, 4, 5)
        assert res.bound < res.actual

    def test_alpha_is_least_solution(self, table_2m):
        for n in (10, 100, 987, 2000):
            res = nth_prime_bound(n, table_2m)
            assert (1 << res.alpha) > 1.1 * math.log(2.5 * (n - res.alpha))
            for x in range(1, res.alpha):
                assert (1 << x) <= 1.1 * math.log(2.5 * (n - x))

    def test_actual_absent_beyond_budget(self):
        table = PiTable(budget=10**4)
        res = nth_prime_bound(100_000, table)
        assert res.actual is None
        assert res.bound > 0

    def test_domain(self, table_2m):
        with pytest.raises(DomainError):
            nth_prime_bound(2, table_2m)


class TestConj4:
    def test_bound_values(self):
        assert round1(conj4_bound(10, 2)) == 6.2
        assert round1(conj4_bound(5000, 100)) == 65555.6
        assert round1(conj4_bound(50, 10)) == 155.6

    def test_crossover_values(self):
        assert conj4_crossover(2) == pytest.approx(27 / 7)
        assert conj4_crossover(10) == pytest.approx(891 / 71)
        assert conj4_crossover(100) == pytest.approx(89991 / 791)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=1, max_value=2000), k=st.integers(min_value=2, max_value=40))
    def test_bound_holds_on_random_points(self, n, k, table_2m):
        if n * k <= 2_000_000:
            assert interval_count(n, k, table_2m) <= conj4_bound(n, k)


class TestPntRatio:
    def test_values(self, table_2m):
        assert pnt_ratio(10, table_2m) == pytest.approx(0.921, abs=1e-3)
        assert pnt_ratio(100, table_2m) == pytest.approx(0.967, abs=1e-3)
        assert pnt_ratio(2, table_2m) == pytest.approx(0.347, abs=1e-3)

    def test_matches_direct_formula(self, table_2m, oracle_100k):
        for n in (10, 100, 1000):
            expected = oracle_100k.count(n, 2 * n, True, True) / (n / math.log(n))
            assert pnt_ratio(n, table_2m) == pytest.approx(expected)

    def test_budget_edge(self, oracle_100k):
        # (5001, 10002) holds no integer above 10001.
        expected = oracle_100k.count(5001, 10_002, True, True) / (5001 / math.log(5001))
        assert pnt_ratio(5001, PiTable(budget=10_001)) == pytest.approx(expected)
        with pytest.raises(BudgetError):
            pnt_ratio(5002, PiTable(budget=10_001))
