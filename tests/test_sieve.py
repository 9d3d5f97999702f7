import math
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prime_gauge import (
    BudgetError,
    DomainError,
    Interval,
    PiTable,
    build_basis,
    count_primes,
    is_prime,
    nth_prime,
    pi,
    pi_at_points,
)

from oracles import trial_count, trial_is_prime, trial_nth, trial_pi


class TestBuildBasis:
    def test_small(self):
        assert build_basis(10).primes.tolist() == [2, 3, 5, 7]

    def test_smallest_valid(self):
        assert build_basis(2).primes.tolist() == [2]

    def test_against_trial_division(self):
        basis = build_basis(45001)
        assert int(basis.primes[-1]) == 44987
        assert len(basis) == 4675  # == trial-division count of primes <= 45001

    def test_matches_trial_division_exhaustively(self):
        primes = build_basis(2000).primes.tolist()
        assert primes == [n for n in range(2001) if trial_is_prime(n)]

    def test_every_small_limit(self):
        # Limits below 4 are the recursion's base case: no seed primes at all.
        for limit in range(2, 201):
            assert build_basis(limit).primes.tolist() == [
                n for n in range(limit + 1) if trial_is_prime(n)
            ]

    def test_limit_below_two(self):
        with pytest.raises(DomainError):
            build_basis(1)

    def test_limit_above_cap(self):
        with pytest.raises(BudgetError):
            build_basis(1 << 40)


class TestIsPrime:
    def test_examples(self):
        assert is_prime(131)
        assert not is_prime(1)
        assert is_prime(17389)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 6601):
            assert not is_prime(n)

    def test_large_64bit(self):
        assert is_prime(2**61 - 1)
        assert is_prime(9223372036854775783)  # largest prime below 2^63
        assert not is_prime(9223372036854775781)
        assert not is_prime(2**62)

    def test_exhaustive_small(self):
        for n in range(5000):
            assert is_prime(n) == trial_is_prime(n), n

    @given(st.integers(min_value=0, max_value=10**6))
    def test_agrees_with_trial_division(self, n):
        assert is_prime(n) == trial_is_prime(n)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            is_prime(-1)


class TestInterval:
    def test_endpoint_semantics(self):
        assert Interval.closed(10, 20).bounds() == (10, 20)
        assert Interval.open(10, 20).bounds() == (11, 19)
        assert Interval(10, 20, lo_open=True).bounds() == (11, 20)
        assert Interval(10, 20, hi_open=True).bounds() == (10, 19)

    def test_empty(self):
        assert Interval.open(2, 3).is_empty()
        assert not Interval.closed(2, 2).is_empty()

    def test_contains(self):
        iv = Interval.open(4, 9)
        assert iv.contains(5) and iv.contains(8)
        assert not iv.contains(4) and not iv.contains(9)

    def test_invalid(self):
        with pytest.raises(DomainError):
            Interval(5, 4)
        with pytest.raises(DomainError):
            Interval(-1, 4)


class TestCountPrimes:
    def test_examples(self, basis_2k):
        assert count_primes(Interval.open(100, 121), basis_2k) == 5
        assert count_primes(Interval.open(2, 3), basis_2k) == 0
        assert count_primes(Interval.closed(2, 100), basis_2k) == 25

    def test_insufficient_basis(self):
        basis = build_basis(10)
        with pytest.raises(DomainError):
            count_primes(Interval.closed(2, 1000), basis)

    def test_budget(self, basis_2k):
        with pytest.raises(BudgetError):
            count_primes(Interval.closed(2, 10**6), basis_2k, budget=10**5)

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.integers(min_value=0, max_value=99_000),
        width=st.integers(min_value=0, max_value=500),
        lo_open=st.booleans(),
        hi_open=st.booleans(),
    )
    def test_matches_trial_division(self, lo, width, lo_open, hi_open):
        hi = lo + width
        basis = build_basis(400)
        iv = Interval(lo, hi, lo_open=lo_open, hi_open=hi_open)
        assert count_primes(iv, basis) == trial_count(lo, hi, lo_open, hi_open)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=5000),
        b=st.integers(min_value=0, max_value=5000),
        c=st.integers(min_value=1, max_value=5000),
    )
    def test_additivity(self, a, b, c, basis_2k):
        a, b = sorted((a, b))
        c = b + c
        whole = count_primes(Interval.closed(a, c), basis_2k)
        left = count_primes(Interval.closed(a, b), basis_2k)
        right = count_primes(Interval.closed(b + 1, c), basis_2k)
        assert left + right == whole

    @pytest.mark.parametrize("seg", [0, -4])
    def test_bad_segment_size(self, basis_2k, seg):
        with pytest.raises(DomainError):
            count_primes(Interval.closed(0, 100), basis_2k, segment_size=seg)

    def test_segment_size_invariance(self, basis_2k):
        iv = Interval.closed(123, 987_654)
        big_basis = build_basis(1000)
        expected = count_primes(iv, big_basis)
        for seg in (64, 1000, 1 << 16):
            assert count_primes(iv, big_basis, segment_size=seg) == expected


class TestPiTable:
    def test_examples(self, table_2m):
        assert pi(0, table_2m) == 0
        assert pi(100, table_2m) == 25
        assert pi(500_000, table_2m) == 41538  # independent full-sieve oracle

    def test_against_trial_division(self, table_2m, oracle_100k):
        for x in (1, 2, 3, 17, 1000, 65_535, 65_536, 65_537, 99_991, 100_000):
            assert pi(x, table_2m) == oracle_100k.pi(x)

    def test_pi_consistency(self, table_2m):
        for x in range(2, 2000):
            step = pi(x, table_2m) - pi(x - 1, table_2m)
            assert step in (0, 1)
            assert (step == 1) == is_prime(x)

    def test_whole_small_budget(self):
        for b in range(2, 65):
            assert PiTable(budget=b).pi(b) == trial_pi(b)

    def test_growth_across_segment_boundaries(self):
        # The stride is no multiple of 2^20, so growth steps do not line up
        # with multiples of the 2^20 segment size; the climbing queries grow
        # the table three times, across 2^20, 2^21 and 3 * 2^20.
        table = PiTable(budget=4 * 10**6, checkpoint_stride=3 * 2**19 + 7)
        published = [
            (10**6, 78_498),
            (2**20, 82_025),
            (2 * 10**6, 148_933),
            (2**21, 155_611),
            (3 * 10**6, 216_816),
            (4 * 10**6, 283_146),
        ]
        assert [(x, table.pi(x)) for x, _ in published] == published
        for k in (1, 2, 3):
            for x in range(k * 2**20 - 64, k * 2**20 + 65):
                assert table.pi(x) - table.pi(x - 1) == int(is_prime(x))

    def test_growth_allocates_only_fresh_ranges(self):
        # After seven climbing growths, the eighth sieves one more stride; it
        # must not allocate (or copy into) a bitmap of the whole range.
        stride = 2**21
        table = PiTable(budget=8 * stride, checkpoint_stride=stride)
        for j in range(1, 8):
            table.pi(j * stride)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert table.pi(8 * stride) == 1_077_871
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2 * stride

    @settings(max_examples=100, deadline=None)
    @given(
        budget=st.integers(min_value=2, max_value=100_000),
        stride=st.integers(min_value=1, max_value=70_000),
        queries=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=12),
    )
    def test_any_growth_order_matches_oracle(self, oracle_100k, budget, stride, queries):
        # Strides and budgets on and off the 2^16 block and 2^20 segment grids.
        table = PiTable(budget=budget, checkpoint_stride=stride)
        for x in (min(q, budget) for q in queries):
            assert table.pi(x) == oracle_100k.pi(x)
            if x >= 2:
                assert table.nth(oracle_100k.pi(x)) <= x
        checkpoints = table.checkpoints
        assert len(checkpoints) == table.sieved_limit // stride + 1
        assert checkpoints == [oracle_100k.pi(j * stride) for j in range(len(checkpoints))]

    def test_budget_error(self):
        table = PiTable(budget=10**5)
        with pytest.raises(BudgetError):
            pi(10**5 + 1, table)

    def test_checkpoints(self):
        table = PiTable(budget=10**6, checkpoint_stride=100_000)
        pi(10**6, table)
        assert table.checkpoints == sorted(table.checkpoints)
        for j, value in enumerate(table.checkpoints):
            assert value == pi(j * 100_000, table)

    def test_lazy_growth_consistency(self):
        # Interleaved small and large queries must agree with a fresh table.
        grown = PiTable(budget=10**6, checkpoint_stride=1 << 16)
        seq = [10, 100_000, 50, 700_000, 65_536, 999_999]
        fresh = PiTable(budget=10**6)
        expected = {x: fresh.pi(x) for x in sorted(seq)}
        assert [grown.pi(x) for x in seq] == [expected[x] for x in seq]


class TestNthPrime:
    def test_examples(self, table_2m):
        assert nth_prime(1, table_2m) == 2
        assert nth_prime(32, table_2m) == 131
        assert nth_prime(2000, table_2m) == 17389

    def test_small_against_trial_division(self, table_2m):
        for i in range(1, 200):
            assert nth_prime(i, table_2m) == trial_nth(i)

    def test_round_trip(self, table_2m):
        for i in list(range(1, 100)) + [1000, 5000, 10_000, 78_498]:
            assert pi(nth_prime(i, table_2m), table_2m) == i

    def test_budget_error(self):
        table = PiTable(budget=10**4)
        with pytest.raises(BudgetError):
            nth_prime(10**4, table)  # p_10000 = 104729 > budget

    def test_invalid_index(self, table_2m):
        with pytest.raises(DomainError):
            nth_prime(0, table_2m)

    @pytest.mark.parametrize("budget,i", [(1 << 25, 2_200_000), (10**7, 10**6)])
    def test_budget_error_before_sieving(self, budget, i):
        # Dusart's lower bound on p_i already exceeds the budget.
        table = PiTable(budget=budget)
        with pytest.raises(BudgetError):
            table.nth(i)
        assert table.sieved_limit == 0

    @pytest.mark.parametrize("stride", [997, 1 << 24])
    def test_block_boundaries(self, stride):
        # Blocks hold 2^16 integers; the stride of 997 leaves a partial last
        # block after most growths.
        table = PiTable(budget=4 * 2**16, checkpoint_stride=stride)
        for k in (1, 2, 3):
            for x in range(k * 2**16 - 64, k * 2**16 + 65):
                largest = next(p for p in range(x, 1, -1) if trial_is_prime(p))
                assert table.nth(table.pi(x)) == largest
        # 65537, the first integer of block 1, is prime.
        assert table.pi(65_537) == table.pi(65_536) + 1 == 6543
        assert table.nth(6543) == 65_537

    def test_budget_edge_uses_exact_path(self):
        # p_2000 = 17389, while Dusart's lower bound is only 17258.
        assert PiTable(budget=17389).nth(2000) == 17389
        with pytest.raises(BudgetError):
            PiTable(budget=17388).nth(2000)


def test_concurrent_queries_match_serial():
    budget = 2 * 10**6
    serial = PiTable(budget=budget)
    queries = []  # per thread: climbing, interleaved pi and nth queries
    for t in range(4):
        own = []
        for j in range(1, 41):
            x = j * budget // 40 - 97 * t
            own.append(("pi", x))
            own.append(("nth", max(1, serial.pi(x) // 2 + t)))
        queries.append(own)
    expected = {q: getattr(serial, q[0])(q[1]) for own in queries for q in own}
    shared = PiTable(budget=budget, checkpoint_stride=1 << 16)
    start = threading.Barrier(len(queries), timeout=30)
    answers: list[list] = [[] for _ in queries]

    def worker(t: int) -> None:
        start.wait()
        for kind, arg in queries[t]:
            answers[t].append(((kind, arg), getattr(shared, kind)(arg)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(queries))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert [len(a) for a in answers] == [len(q) for q in queries]
    assert all(got == expected[q] for a in answers for q, got in a)


class TestPiAtPoints:
    def test_matches_pi(self, table_2m):
        points = [0, 1, 2, 10, 99, 65_536, 123_456, 999_999]
        result = pi_at_points(points, budget=2_000_000)
        assert result == {x: pi(x, table_2m) for x in points}

    def test_empty(self):
        assert pi_at_points([]) == {}

    def test_budget(self):
        with pytest.raises(BudgetError):
            pi_at_points([10**7], budget=10**6)

    @pytest.mark.parametrize("seg", [0, -4])
    def test_bad_segment_size(self, seg):
        with pytest.raises(DomainError):
            pi_at_points([5, 1000], budget=10**5, segment_size=seg)

    def test_every_point_across_segments(self):
        # Every point, so each segment's first and last integers are queried.
        expected, running = {}, 0
        for x in range(3000):
            running += trial_is_prime(x)
            expected[x] = running
        assert pi_at_points(range(3000), budget=10**5, segment_size=1000) == expected

    def test_segment_size_invariance(self):
        points = [5, 1000, 54_321, 99_999]
        baseline = pi_at_points(points, budget=10**5)
        for seg in (1 << 10, 1 << 14, 1 << 20):
            assert pi_at_points(points, budget=10**5, segment_size=seg) == baseline
