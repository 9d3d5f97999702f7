import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prime_gauge import (
    BudgetError,
    DomainError,
    Interval,
    PiTable,
    RangeOverflowError,
    build_basis,
    count_primes,
    is_prime,
    nth_prime,
    pi,
    pi_at_points,
)

from prime_gauge import sieve
from prime_gauge.sieve import _PI_2_31, INT64_MAX, _checked_mul, _count_spans

from oracles import TrialPrefix, trial_count, trial_is_prime, trial_nth, trial_pi


INT64_EDGES = [0, 1, 2, INT64_MAX - 2, INT64_MAX - 1, INT64_MAX]


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

    def test_int64_edge(self):
        assert is_prime(2**63 - 25) and is_prime(2**61 - 1)
        assert 7**2 * 73 * 127 * 337 * 92737 * 649657 == 2**63 - 1
        assert not is_prime(2**63 - 1)
        with pytest.raises(RangeOverflowError):
            is_prime(2**63)


class TestCheckedMul:
    @staticmethod
    def check(a: int, b: int) -> None:
        if a * b > INT64_MAX:
            with pytest.raises(RangeOverflowError):
                _checked_mul(a, b)
        else:
            assert _checked_mul(a, b) == a * b

    @given(a=st.integers(0, 2**64), b=st.integers(0, 2**64))
    def test_raises_exactly_beyond_int64(self, a, b):
        self.check(a, b)

    @given(b=st.integers(1, 2**64), delta=st.integers(-2, 2))
    def test_at_the_int64_edge(self, b, delta):
        # a * b straddles 2^63 - 1: the largest a that fits, and its neighbours.
        a = max(0, INT64_MAX // b + delta)
        self.check(a, b)
        self.check(b, a)

    def test_examples(self):
        assert _checked_mul(7**2 * 73 * 127 * 337 * 92737, 649657) == INT64_MAX
        assert _checked_mul(INT64_MAX, 1) == INT64_MAX
        assert _checked_mul(0, 2**70) == 0
        for a, b in ((2**62, 2), (2**32, 2**31), (INT64_MAX, 2)):
            with pytest.raises(RangeOverflowError):
                _checked_mul(a, b)


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

    @pytest.mark.parametrize("lo_open", [False, True])
    @pytest.mark.parametrize("hi_open", [False, True])
    def test_int64_range(self, lo_open, hi_open):
        iv = Interval(0, INT64_MAX, lo_open=lo_open, hi_open=hi_open)
        assert iv.bounds() == (int(lo_open), INT64_MAX - hi_open)
        assert iv.contains(0) == (not lo_open)
        assert iv.contains(INT64_MAX) == (not hi_open)
        assert iv.contains(1) and iv.contains(INT64_MAX - 1)
        assert not iv.contains(-1) and not iv.contains(INT64_MAX + 1)

    @given(
        lo=st.sampled_from(INT64_EDGES),
        hi=st.sampled_from(INT64_EDGES),
        lo_open=st.booleans(),
        hi_open=st.booleans(),
        x=st.integers(-2, 3) | st.integers(INT64_MAX - 3, INT64_MAX + 2),
    )
    def test_int64_edges(self, lo, hi, lo_open, hi_open, x):
        assume(lo <= hi)
        iv = Interval(lo, hi, lo_open=lo_open, hi_open=hi_open)
        assert iv.bounds() == (lo + lo_open, hi - hi_open)
        above_lo = lo < x or (x == lo and not lo_open)
        below_hi = x < hi or (x == hi and not hi_open)
        assert iv.contains(x) == (above_lo and below_hi)
        assert iv.is_empty() == (hi - lo < lo_open + hi_open)


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
        assert pi(np.int64(500_000), table_2m) == 41538  # 144 bits into its sub-block

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

    def test_growth_across_segment_boundaries(self, monkeypatch):
        # A query of one stride, then the climbing queries, grow the table
        # three times, to 3 * 2^20 + 7, 6 * 2^20 + 14 (twice the limit) and
        # 7 * 10^6 (the budget). Each growth walks 2^21-integer segments from
        # the first block it does not hold yet, so the first crosses a
        # segment boundary at 2^21, the second starts at 3 * 2^20 and crosses
        # one at 5 * 2^20, and the third starts at 3 * 2^21.
        monkeypatch.setattr(sieve, "DEFAULT_CHECKPOINT_STRIDE", 3 * 2**20 + 7)
        table = PiTable(budget=7 * 10**6)
        table.pi(2)  # a small first query: the table grows plainly, with no window
        assert table.pi(3 * 2**20 + 7) == 226_549
        published = [
            (10**6, 78_498),
            (2**20, 82_025),
            (2 * 10**6, 148_933),
            (2**21, 155_611),
            (3 * 10**6, 216_816),
            (4 * 10**6, 283_146),
            (7 * 10**6, 476_648),
        ]
        assert [(x, table.pi(x)) for x, _ in published] == published
        for k in range(1, 7):
            for x in range(k * 2**20 - 64, k * 2**20 + 65):
                assert table.pi(x) - table.pi(x - 1) == int(is_prime(x))

    def test_one_growth_across_segment_boundaries(self):
        # One growth from 0 walks segments of 2^21 integers, so k * 2^21 starts one.
        table = PiTable(budget=4 * 2**21)
        table.pi(2)  # a small first query: the table grows plainly, with no window
        assert table.pi(4 * 2**21) == 564_163
        for k in (1, 2, 3):
            for x in range(k * 2**21 - 64, k * 2**21 + 65):
                assert table.pi(x) - table.pi(x - 1) == int(is_prime(x))

    def test_growth_allocates_only_fresh_ranges(self, monkeypatch):
        # After seven climbing growths, the eighth sieves one more stride; it
        # must not allocate (or copy into) a bitmap of the whole range.
        stride = 2**21
        monkeypatch.setattr(sieve, "DEFAULT_CHECKPOINT_STRIDE", stride)
        table = PiTable(budget=8 * stride)
        table.pi(2)  # a small first query: the table grows plainly, with no window
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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "DEFAULT_CHECKPOINT_STRIDE", stride)
            table = PiTable(budget=budget)
            for x in (min(q, budget) for q in queries):
                assert table.pi(x) == oracle_100k.pi(x)
                if x >= 2:
                    assert table.nth(oracle_100k.pi(x)) <= x
            for j in range(table.sieved_limit // stride + 1):
                assert table.pi(j * stride) == oracle_100k.pi(j * stride)

    def test_fresh_table_sieves_only_to_the_query(self):
        # Far below one 2^24 stride: [0, 10^5] and no more, about 6 KB of bits.
        table = PiTable(budget=10**8)
        tracemalloc.start()
        try:
            assert table.pi(10**5) == 9592
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.sieved_limit == 10**5
        assert peak < 2**20

    @settings(max_examples=100, deadline=None)
    @given(
        budget=st.integers(min_value=2, max_value=100_000),
        stride=st.integers(min_value=1, max_value=70_000),
        queries=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=40),
        climbing=st.booleans(),
    )
    def test_growth_stays_near_the_largest_query(
        self, oracle_100k, budget, stride, queries, climbing
    ):
        # Each growth at least doubles the table but adds at most one stride
        # beyond it, so the table never holds more than min(2x, x + stride)
        # for the largest query x, in O(log stride + x / stride) growths.
        xs = [min(q, budget) for q in queries]
        if climbing:
            xs.sort()
        top = growths = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "DEFAULT_CHECKPOINT_STRIDE", stride)
            table = PiTable(budget=budget)
            for x in xs:
                before = table.sieved_limit
                assert table.pi(x) == oracle_100k.pi(x)
                top = max(top, x)
                growths += table.sieved_limit != before
                assert table.sieved_limit <= min(budget, 2 * top, top + stride)
        assert growths <= math.ceil(math.log2(stride)) + top / stride + 2

    def test_growth_clamps_to_the_cap(self, monkeypatch):
        # Doubling toward 2^21 stops at the cap; the first query past it is
        # refused before anything is allocated, naming the query itself.
        monkeypatch.setattr(sieve, "_TABLE_CAP", 2**20 + 1)
        table = PiTable(budget=10**9)
        for x, want in ((300_000, 25_997), (600_001, 49_098), (2**20 - 5, 82_024)):
            assert table.pi(x) == want
        assert table.sieved_limit == 2**20
        assert table.pi(2**20) == 82_025
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=f"up to {2**20 + 1} sieves"):
                table.pi(2**20 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert table.sieved_limit == 2**20

    def test_budget_error(self):
        table = PiTable(budget=10**5)
        with pytest.raises(BudgetError):
            pi(10**5 + 1, table)

    def test_growth_beyond_cap_fails_before_allocating(self):
        # 6 * 10^16 bytes of bits: refused at once instead of a MemoryError traceback.
        table = PiTable(budget=10**19)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(BudgetError, match="above the cap"):
                table.pi(10**18)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and elapsed < 0.1
        assert table.sieved_limit == 0

    def test_table_holds_a_sixteenth_of_a_byte_per_integer(self):
        # One bit per odd integer: 2^20 bytes for [0, 2^24] and 2^17 of counts,
        # plus one segment buffer of 2^20 flags and its 2^17 packed bytes.
        table = PiTable(budget=2**24)
        table.pi(2)  # a small first query: the table grows plainly, with no window
        tracemalloc.start()
        try:
            assert table.pi(2**24) == 1_077_871
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**19

    def test_growth_sieves_in_place(self):
        # 2^18 bytes of bits for [0, 2^22] beside one segment buffer of 2^20
        # flags, which both segments are sieved into and packed from.
        table = PiTable(budget=2**22)
        table.pi(2)  # a small first query: the table grows plainly, with no window
        tracemalloc.start()
        try:
            assert table.pi(2**22) == 295_947
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21 + 2**18

    def test_checkpoints(self, monkeypatch, oracle_100k):
        monkeypatch.setattr(sieve, "DEFAULT_CHECKPOINT_STRIDE", 10_000)
        table = PiTable(budget=10**5)
        pi(10**5, table)
        for j in range(table.sieved_limit // 10_000 + 1):
            assert pi(j * 10_000, table) == oracle_100k.pi(j * 10_000)

    def test_lazy_growth_consistency(self, monkeypatch):
        # Interleaved small and large queries must agree with a fresh table.
        seq = [10, 100_000, 50, 700_000, 65_536, 999_999]
        fresh = PiTable(budget=10**6)
        expected = {x: fresh.pi(x) for x in sorted(seq)}
        monkeypatch.setattr(sieve, "DEFAULT_CHECKPOINT_STRIDE", 1 << 16)
        grown = PiTable(budget=10**6)
        assert [grown.pi(x) for x in seq] == [expected[x] for x in seq]


# Points next to the block boundaries k * 2^16 and the edges of the domain.
PI_MANY_EDGES = [0, 1, 2] + [k * 2**16 + d for k in (1, 2, 3) for d in range(-2, 3)]
PI_MANY_TOP = PI_MANY_EDGES[-1]


@pytest.fixture(scope="module")
def oracle_pi_many() -> TrialPrefix:
    return TrialPrefix(PI_MANY_TOP)


class TestPiMany:
    @settings(max_examples=80, deadline=None)
    @given(
        budget=st.integers(2, PI_MANY_TOP) | st.sampled_from(PI_MANY_EDGES[3:]),
        stride=st.integers(1, 2**17),
        grown=st.none() | st.integers(0, PI_MANY_TOP),
        picks=st.lists(st.integers(0, PI_MANY_TOP), max_size=30),
        repeats=st.lists(st.integers(0, 40), max_size=6),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_matches_oracle_and_scalar_pi(
        self, oracle_pi_many, budget, stride, grown, picks, repeats, shuffle
    ):
        # An ungrown table, or one grown part of the way, so that the call
        # grows it; unsorted, repeated points, and the budget itself.
        xs = [x for x in picks + PI_MANY_EDGES + [budget] if x <= budget]
        xs += [xs[i] for i in repeats if i < len(xs)]
        shuffle.shuffle(xs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "DEFAULT_CHECKPOINT_STRIDE", stride)
            table = PiTable(budget=budget)
            if grown is not None:
                table.pi(min(grown, budget))
            got = table._pi_many(np.array(xs, dtype=np.int64))
            assert table.sieved_limit >= max(xs)
            assert got.tolist() == [oracle_pi_many.pi(x) for x in xs]
            assert got.tolist() == [table.pi(x) for x in xs]

    def test_no_points_and_points_below_two(self):
        table = PiTable(budget=100)
        assert table._pi_many(np.zeros(0, dtype=np.int64)).tolist() == []
        assert table._pi_many(np.array([1, 0, 1], dtype=np.int64)).tolist() == [0, 0, 0]
        assert table.sieved_limit == 0


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

    def test_index_past_int64(self):
        with pytest.raises(RangeOverflowError):
            PiTable().nth(10**400)

    @pytest.mark.parametrize("budget,i", [(1 << 25, 2_200_000), (10**7, 10**6)])
    def test_budget_error_before_sieving(self, budget, i):
        # Dusart's lower bound on p_i already exceeds the budget.
        table = PiTable(budget=budget)
        with pytest.raises(BudgetError):
            table.nth(i)
        assert table.sieved_limit == 0

    @pytest.mark.parametrize("stride", [997, 1 << 24])
    def test_block_boundaries(self, monkeypatch, stride):
        # Blocks hold 2^16 integers; the stride of 997 leaves a partial last
        # block after most growths.
        monkeypatch.setattr(sieve, "DEFAULT_CHECKPOINT_STRIDE", stride)
        table = PiTable(budget=4 * 2**16)
        for k in (1, 2, 3):
            for x in range(k * 2**16 - 64, k * 2**16 + 65):
                largest = next(p for p in range(x, 1, -1) if trial_is_prime(p))
                assert table.nth(table.pi(x)) == largest
        # 65537, the first integer of block 1, is prime.
        assert table.pi(65_537) == table.pi(65_536) + 1 == 6543
        assert table.nth(6543) == 65_537

    def test_nth_every_rank_of_every_sub_block(self):
        # Sub-block 0, where prime density falls fastest, every 2^10-integer
        # sub-block of three blocks, and a partial last sub-block.
        budget = 3 * 2**16 + 999
        table = PiTable(budget=budget)
        table.pi(budget)
        assert len(table._state[2]) == budget // 2**10 + 2  # the sub-block counts
        primes = np.flatnonzero(PLAIN[: budget + 1]).tolist()
        assert [table.nth(i) for i in range(1, len(primes) + 1)] == primes
        with pytest.raises(BudgetError):
            table.nth(len(primes) + 1)

    @pytest.mark.parametrize(
        "word",
        [
            (2**40 - 1) | (2**40 - 1) << 472,  # bunched at both ends, empty middle
            2**512 - 1,
            1,
            1 << 511,
            0b1011 << 255,
        ],
        ids=["both_ends", "all_set", "lowest", "highest", "middle"],
    )
    def test_nth_bit_of_a_sub_block(self, word):
        want = [k for k in range(512) if word >> k & 1]
        assert [sieve._nth_bit(word, r) for r in range(1, len(want) + 1)] == want

    def test_around_every_sub_block_boundary(self):
        # x within 64 of every multiple of 2^10 up to 2^18, against Miller-Rabin.
        table = PiTable(budget=2**18 + 64)
        for k in range(1, 2**8 + 1):
            x0 = k * 2**10 - 64
            largest = next(p for p in range(x0 - 1, 1, -1) if is_prime(p))
            for x in range(x0, x0 + 129):
                step = table.pi(x) - table.pi(x - 1)
                assert step == int(is_prime(x))
                largest = x if step else largest
                assert table.nth(table.pi(x)) == largest

    def test_nth_clamps_to_the_cap(self, monkeypatch):
        # With the cap at 2^20 + 1 integers and the budget far above it,
        # Rosser's estimate for p_82025 lies past the cap but the prime does
        # not, as pi(2^20) = 82025. The next index is refused after one growth
        # to the cap, and one whose Dusart floor lies past the cap before any.
        monkeypatch.setattr(sieve, "_TABLE_CAP", 2**20 + 1)
        table = PiTable(budget=10**19)
        assert table.nth(82_025) == 1_048_573
        assert table.sieved_limit == 2**20
        with pytest.raises(BudgetError, match=f"past {2**20}: .* above the cap {2**20 + 1}"):
            table.nth(82_026)
        fresh = PiTable(budget=10**19)
        with pytest.raises(BudgetError, match=f"above the cap {2**20 + 1}"):
            fresh.nth(90_000)
        assert fresh.sieved_limit == 0

    def test_budget_edge_uses_exact_path(self):
        # p_2000 = 17389, while Dusart's lower bound is only 17258.
        assert PiTable(budget=17389).nth(2000) == 17389
        with pytest.raises(BudgetError):
            PiTable(budget=17388).nth(2000)


# pi(10^k) for k = 1..9 and pi(2 * 10^9), published (OEIS A006880).
PUBLISHED_PI = {
    10: 4,
    10**2: 25,
    10**3: 168,
    10**4: 1229,
    10**5: 9592,
    10**6: 78_498,
    10**7: 664_579,
    10**8: 5_761_455,
    10**9: 50_847_534,
    2 * 10**9: 98_222_287,
}


@pytest.fixture(scope="module")
def table_10m() -> PiTable:
    table = PiTable(budget=10**7)
    table.pi(2)  # a small first query: the table grows plainly, with no window
    table.pi(10**7)
    return table


class TestLucyPi:
    # The phi recursion and the sieve are independent algorithms.

    def test_published(self):
        assert {x: sieve._lucy_pi(x) for x in PUBLISHED_PI} == PUBLISHED_PI

    def test_every_small_x(self):
        assert [sieve._lucy_pi(x) for x in range(5001)] == np.cumsum(PLAIN[:5001]).tolist()

    def test_squares_and_cubes(self):
        # p^2 - 1, p^2 and p^2 + 1 around the first integer a prime strikes;
        # x // isqrt(x) == isqrt(x) from r^2 to r^2 + r - 1, where large[r]
        # and small[r] are both S(r), and r^2 + r just past; c^3 - 1, c^3
        # and c^3 + 1, where the cube root that splits the primes moves.
        xs = {p * p + d for p in [2] + PATTERN_PRIMES + STRUCK_PRIMES for d in (-1, 0, 1)}
        xs |= {r * r + d for r in [*range(1, 100), *range(100, 1414, 11)] for d in (0, r - 1, r)}
        xs |= {c**3 + d for c in range(1, 126) for d in (-1, 0, 1)}
        # y^4 - 1, y^4 and y^4 + 1, where the fourth root that ends Lucy's
        # strikes of large moves; p q^2 - 1, p q^2 and p q^2 + 1 for primes
        # q < p < q^2, where the pair (q, p) enters Meissel's sum.
        xs |= {y**4 + d for y in range(1, 61) for d in (-1, 0, 1)}
        small = [q for q in range(2, 126) if PLAIN[q]]
        xs |= {p * q * q + d for q in small for p in range(q + 1, q * q) for d in (-1, 0, 1)
               if PLAIN[p] and p * q * q < len(PLAIN) - 1}
        primes = np.flatnonzero(plain_sieve(60**4 + 1))
        want = {x: int(np.searchsorted(primes, x, side="right")) for x in xs}
        assert {x: sieve._lucy_pi(x) for x in xs} == want

    @settings(max_examples=60, deadline=None)
    @given(x=st.integers(0, 10**7))
    def test_matches_pi_table(self, table_10m, x):
        assert sieve._lucy_pi(x) == table_10m.pi(x)


def icbrt(x: int) -> int:
    """The integer cube root of x >= 0."""
    c = round(x ** (1 / 3))
    while c**3 > x:
        c -= 1
    while (c + 1) ** 3 <= x:
        c += 1
    return c


def window_primes(monkeypatch, x: int) -> np.ndarray:
    """The base primes a fresh table's first pi(x) hands `_sieve_blocks`, checked against Lucy."""
    handed = []
    grow = sieve._sieve_blocks

    def spy(base, blocks, below, limit, primes):
        handed.append(primes)
        return grow(base, blocks, below, limit, primes)

    monkeypatch.setattr(sieve, "_sieve_blocks", spy)
    table = PiTable(budget=x)
    assert table.pi(x) == sieve._lucy_pi(x)
    assert table._state[0] == (x // 2**16 - 1) * 2**16 and len(handed) == 1
    return handed[0]


class TestLucyReach:
    def test_pi_1e10(self):
        assert sieve._lucy_pi(10**10) == 455_052_511  # OEIS A006880

    def test_pi_1e11(self):
        assert sieve._lucy_pi(10**11) == 4_118_054_813  # OEIS A006880

    @pytest.mark.parametrize(
        "x",
        [2**17, 2**21 - 1, 2**21, 2**21 + 1]
        + [j * 2**16 + d for j in (3, 33, 1000, 2**15 - 1) for d in (-1, 0, 1)]
        + [2**31 - 1, 2**31],
    )
    def test_window_primes_are_the_basis(self, monkeypatch, x):
        # With windows from 2^17, the smallest window the anchored tests make;
        # at and about block boundaries, where the window's base moves.
        monkeypatch.setattr(sieve, "_ANCHOR_MIN", 2**17)
        assert np.array_equal(window_primes(monkeypatch, x), sieve._primes_upto(math.isqrt(x)))

    @settings(max_examples=15, deadline=None)
    @given(x=st.integers(2**21, 2**31))
    def test_window_primes_at_random_x(self, x):
        with pytest.MonkeyPatch.context() as mp:
            primes = window_primes(mp, x)
        assert np.array_equal(primes, sieve._primes_upto(math.isqrt(x)))

    @pytest.mark.parametrize("x", [1, 2, 7, 8, 1000, 10**6 + 3, 2**24])
    def test_reach_guard(self, x):
        # small is final up to (c + 1)^2 - 1 once the primes up to c are struck;
        # a reach from (c + 1)^2 on would need c + 1, and is refused.
        c = icbrt(x)
        count, primes = sieve._lucy_pi(x, reach=(c + 1) ** 2 - 1)
        assert count == sieve._lucy_pi(x)
        assert np.array_equal(primes, sieve._primes_upto((c + 1) ** 2 - 1))
        with pytest.raises(DomainError, match="above the cube root"):
            sieve._lucy_pi(x, reach=(c + 1) ** 2)

    def test_every_window_reach_is_final(self):
        # A window's reach isqrt(x) needs only primes up to the cube root of
        # base - 1, for every block of x from the smallest window on.
        for j in range(2, 2**15 + 1):
            top, base = min((j + 1) * 2**16 - 1, 2**31), (j - 1) * 2**16
            assert math.isqrt(math.isqrt(top)) <= icbrt(base - 1)


def table_answer(table, op, arg):
    """A query's answer, or the BudgetError it raised, by type and message."""
    try:
        if op == "pi":
            return table.pi(arg)
        if op == "nth":
            return table.nth(arg)
        return table._pi_many(np.array(arg, dtype=np.int64)).tolist()
    except BudgetError as exc:
        return ("BudgetError", str(exc))


class TestAnchoredTable:
    @settings(max_examples=80, deadline=None)
    @given(
        budget=st.integers(2**17, 2**19),
        first=st.integers(2**17, 2**19),
        ops=st.lists(
            st.tuples(st.just("pi"), st.integers(0, 2**19 + 100))
            | st.tuples(st.just("pi_near"), st.integers(-70_000, 100))
            | st.tuples(st.just("nth"), st.integers(1, 45_000))
            | st.tuples(st.just("nth_near"), st.integers(-7000, 100))
            | st.tuples(st.just("many"), st.lists(st.integers(0, 2**19), max_size=6)),
            max_size=8,
        ),
    )
    def test_matches_plain_table(self, budget, first, ops):
        # With windows from 2^17, a first pi(x) makes a window of one to two
        # blocks; queries near x or its pi(x) land in it or just below, others
        # sieve the table again from 0. A plain table answers the same.
        first = min(first, budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "_ANCHOR_MIN", 2**17)
            plain = PiTable(budget=budget)
            plain.pi(2)  # a small first query: the table grows plainly, with no window
            table = PiTable(budget=budget)
            assert table.pi(first) == plain.pi(first)
            base = table._state[0]
            assert base == (first // 2**16 - 1) * 2**16 and table.sieved_limit == first
            for op, arg in ops:
                if op == "pi_near":
                    op, arg = "pi", max(0, first + arg)
                elif op == "nth_near":
                    op, arg = "nth", max(1, plain.pi(first) + arg)
                elif op == "many":
                    arg = [min(x, budget) for x in arg]
                state = table._state
                held = state[0] and (
                    op == "pi" and state[0] <= arg <= state[3]
                    or op == "nth" and state[2][0] < arg <= state[2][-1]
                )
                assert table_answer(table, op, arg) == table_answer(plain, op, arg), (op, arg)
                if held:
                    assert table._state is state  # the window answered, with no sieve

    def test_window_edges(self):
        # The first and last integers and primes a window holds, and the ones
        # just outside it, each asked of a fresh window.
        x = 2**21 + 4321
        base = (x // 2**16 - 1) * 2**16
        plain = PiTable(budget=x + 10)
        plain.pi(2)  # a small first query: the table grows plainly, with no window
        first, last = plain.pi(base - 1) + 1, plain.pi(x)
        queries = [("pi", y) for y in (base - 1, base, base + 1, x - 1, x, x + 1)]
        queries += [("nth", i) for i in (first - 1, first, last, last + 1)]
        for op, arg in queries:
            table = PiTable(budget=x + 10)
            table.pi(x)
            assert table._state[0] == base
            assert table_answer(table, op, arg) == table_answer(plain, op, arg), (op, arg)

    def test_refused_queries_run_no_lucy(self, monkeypatch):
        # Budget and cap refusals come before any work, the window's count among it.
        def refuse(x):
            raise AssertionError(f"_lucy_pi({x}) ran for a refused query")

        monkeypatch.setattr(sieve, "_lucy_pi", refuse)
        with pytest.raises(BudgetError, match="above the cap"):
            PiTable(budget=10**19).pi(10**18)
        with pytest.raises(BudgetError, match="exceeds the budget"):
            PiTable(budget=2**22).pi(2**22 + 1)
        for i in (10**6, 300_000):  # refused by Dusart's floor, then by pi(budget)
            with pytest.raises(BudgetError, match="beyond the budget"):
                PiTable(budget=2**22).nth(i)
        with pytest.raises(BudgetError, match="above the cap"):
            PiTable(budget=10**19).nth(_PI_2_31 + 1)

    def test_accepted_budget_probe_grows_plainly(self, monkeypatch):
        # Rosser's estimate for p_295947, about 4.48 * 10^6, lies past the budget
        # 2^22, so nth first reads pi(2^22) = 295947: a plain growth to the
        # budget, with no window and no Lucy, which then holds the prime.
        def refuse(*args, **kwargs):
            raise AssertionError(f"_lucy_pi{args} ran for a budget probe")

        monkeypatch.setattr(sieve, "_lucy_pi", refuse)
        table = PiTable(budget=2**22)
        assert table.nth(295_947) == 4_194_301
        assert table._state[0] == 0 and table.sieved_limit == 2**22

    def test_window_memory(self):
        # Lucy's two int64 arrays of 2^14 + 1 entries and a window of 2^16
        # integers, against 2^24 bytes of bits for the plain table [0, 2^28].
        table = PiTable(budget=2**28)
        tracemalloc.start()
        try:
            assert table.pi(2**28) == 14_630_843  # pi(2^28), OEIS A007053
            assert table.nth(14_630_843) == 2**28 - 57
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table._state[0] == 2**28 - 2**16 and table.sieved_limit == 2**28
        assert peak < 2**20


def check_concurrent_queries(monkeypatch, anchored: bool) -> None:
    """Four threads' interleaved pi and nth queries on one shared table match a serial table."""
    budget = 2 * 10**6
    serial = PiTable(budget=budget)
    queries = []  # per thread: climbing, interleaved pi and nth queries
    for t in range(4):
        own = []
        for j in range(1, 41):
            x = j * budget // 40 - 97 * t
            own.append(("pi", x))
            own.append(("nth", max(1, serial.pi(x) // 2 + t)))
        if anchored:  # each thread starts at the top: the first pi makes a window
            own = own[-2:] + own[:-2]
        queries.append(own)
    expected = {q: getattr(serial, q[0])(q[1]) for own in queries for q in own}
    monkeypatch.setattr(sieve, "DEFAULT_CHECKPOINT_STRIDE", 1 << 16)
    shared = PiTable(budget=budget)
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


def test_concurrent_queries_match_serial(monkeypatch):
    check_concurrent_queries(monkeypatch, anchored=False)


def test_concurrent_queries_through_a_window(monkeypatch):
    # With windows from 2^17, the shared table's first pi makes a window that
    # later queries of every thread sieve again from 0.
    monkeypatch.setattr(sieve, "_ANCHOR_MIN", 2**17)
    check_concurrent_queries(monkeypatch, anchored=True)


def test_prime_two_in_small_spans_and_budgets(oracle_100k):
    # The kernel holds odd integers only, so every consumer counts 2 itself.
    spans = [(a, b) for a in range(5) for b in range(a - 1, 13)]
    expected = [oracle_100k.count(a, b) for a, b in spans]
    primes = build_basis(4).primes
    for size in range(1, 9):
        assert _count_spans(spans, primes, size) == expected
        assert [_count_spans([s], primes, size)[0] for s in spans] == expected
    for b in range(2, 13):
        table = PiTable(budget=b)
        assert table.pi(b) == oracle_100k.pi(b)
        assert table.nth(table.pi(b)) == max(p for p in range(b + 1) if trial_is_prime(p))


def plain_sieve(n: int) -> np.ndarray:
    """Prime flags for every integer in [0, n], one byte each."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


PLAIN = plain_sieve(2_000_000)
WHEEL_SPAN = 30_030  # 3 * 5 * 7 * 11 * 13: windows start and end about its multiples
PRESIEVE_CAP = 2**13  # the most words in one presieve group's period
PRESIEVE_BYTES = 500_000  # the bound the README states for the presieve patterns
# The odd primes the presieve patterns clear, and the kernel sets back.
PATTERN_PRIMES = [q for q in range(3, sieve._PRESIEVE_TOP + 1) if trial_is_prime(q)]
# Primes the kernel strikes (above the presieve) whose products stay inside PLAIN.
STRUCK_PRIMES = [q for q in range(sieve._PRESIEVE_TOP + 1, 1400) if trial_is_prime(q)]


def unpacked(words):
    """The bits of uint64 words, bit i being bit i % 64 of word i // 64."""
    return np.unpackbits(words.view(np.uint8), bitorder="little").astype(bool)


def check_segment(lo, hi, primes):
    """The kernel's words for [lo, hi] against the plain sieve, 0 past the segment."""
    want = PLAIN[lo | 1 : hi + 1 : 2]
    words = sieve._segment_words(lo, hi, primes)
    assert len(words) == max(1, -(-len(want) // 64))
    bits = unpacked(words)
    assert np.array_equal(bits[: len(want)], want)
    assert not bits[len(want) :].any()  # the words past the segment are 0


@st.composite
def presieve_windows(draw):
    """[lo, hi] about a presieved prime, or sized and rotated against a group's period."""
    if draw(st.booleans()):
        q = draw(st.sampled_from(PATTERN_PRIMES))
        lo = max(0, q + draw(st.integers(-3, 3)))  # lo = q and lo = q + 1 among them
        return lo, lo + draw(st.integers(0, 300) | st.integers(0, 20_000))
    period, inverse, _ = draw(st.sampled_from(sieve._presieve()))
    # base = lo // 2 puts pattern word r under the segment's word 0; r = P - 1 is the last.
    r = draw(st.sampled_from([0, 1, period - 1]) | st.integers(0, period - 1))
    base = r * 64 % period + period * draw(st.integers(0, 2))
    assert base * inverse % period == r
    # Below, at and above one and two periods of words, and a word or more short of them.
    size = draw(st.sampled_from([1, 2, period - 1, period, period + 1, 2 * period, 2 * period + 1]))
    n = 64 * size - draw(st.sampled_from([0, 1, 63]) | st.integers(0, 63))
    lo = 2 * base + draw(st.integers(0, 1))
    hi = max(lo, 2 * (base + n) - draw(st.integers(0, 1)))
    return lo, hi


SCATTER_TOP = 10**11  # the largest lo the scatter test draws


@pytest.fixture(scope="module")
def base_primes():
    return build_basis(math.isqrt(SCATTER_TOP + 2**21) + 300).primes


def struck_segment(lo, hi, primes):
    """Prime flags of the odd integers in [lo, hi]: one slice per odd base prime up to isqrt(hi)."""
    first = lo | 1
    flags = np.ones((hi + 1) // 2 - lo // 2, dtype=bool)
    for p in primes[1 : np.searchsorted(primes, math.isqrt(hi), side="right")].tolist():
        start = max(p * p, -(-first // p) * p)
        start += p * (start % 2 == 0)  # the first odd multiple
        flags[(start - first) // 2 :: p] = False
    if first == 1 and len(flags):
        flags[0] = False  # the integer 1
    return flags


@st.composite
def scatter_segments(draw):
    """[lo, hi] of one word, a window or 2^21 integers, or with n // K about a base prime."""
    lo = draw(st.integers(0, SCATTER_TOP) | st.integers(0, 10**7))
    shape = draw(st.sampled_from(["word", "window", "segment", "threshold"]))
    if shape == "word":
        return lo, lo + draw(st.integers(0, 127))
    if shape == "window":
        return lo, lo + draw(st.integers(2**16, 2**17))
    if shape == "segment":
        return lo, lo + 2**21 - 1
    p = draw(st.sampled_from(STRUCK_PRIMES))
    k = sieve._SCATTER
    n = p * k + draw(st.sampled_from([-1, 0, k - 1, k]) | st.integers(-k, 2 * k))
    lo = max(lo, p * p) & ~1  # p strikes; an even lo gives the segment 2n integers n odd ones
    return lo, lo + 2 * n - 1


class TestSegmentWords:
    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.integers(0, 40)
        | st.integers(0, 130_000)
        | st.integers(1_000_000, 1_900_000)
        | st.builds(lambda k, d: k * WHEEL_SPAN + d, st.integers(1, 4), st.integers(-40, 40)),
        width=st.integers(0, 70_000) | st.integers(WHEEL_SPAN - 40, WHEEL_SPAN + 40),
        extra=st.integers(0, 300),
    )
    def test_matches_plain_sieve(self, lo, width, extra):
        # Windows from 0, short and long, across 3 * 5 * 7 * 11 * 13, each with
        # a basis at least up to isqrt(hi). A short window past 10^6 meets base
        # primes up to about 1400 whose first odd multiple lies past its end.
        hi = lo + width
        primes = build_basis(max(2, math.isqrt(hi) + extra)).primes
        check_segment(lo, hi, primes)

    @settings(max_examples=100, deadline=None)
    @given(
        pq=st.lists(st.sampled_from(STRUCK_PRIMES), min_size=2, max_size=2).map(sorted),
        width=st.integers(0, 400),
    )
    def test_last_flag_struck_past_the_segment(self, pq, width):
        # hi = p * q for struck primes p <= q: p alone strikes hi, and in a window
        # short enough the largest base prime lies past its n flags, so p, whose
        # one odd multiple in it is its last flag, must be kept.
        p, q = pq
        hi = p * q
        check_segment(max(0, hi - width), hi, build_basis(math.isqrt(hi)).primes)

    @settings(max_examples=300, deadline=None)
    @given(window=presieve_windows())
    def test_presieve_windows(self, window):
        # lo on both sides of every pattern prime, and segments whose word count
        # is below, equal to and above each group's period, at every kind of
        # rotation: the tail, the wrap-around and the pattern's last word.
        lo, hi = window
        primes = build_basis(max(2, math.isqrt(hi))).primes
        check_segment(lo, hi, primes)

    def test_presieve_groups(self):
        # The groups hold exactly the odd primes from 3 to T, each period within
        # the cap, and their patterns within the size the README states.
        held = sorted(q for group in sieve._PRESIEVE_GROUPS for q in group)
        assert held == PATTERN_PRIMES
        assert all(math.prod(group) <= PRESIEVE_CAP for group in sieve._PRESIEVE_GROUPS)
        patterns = sieve._presieve()
        assert [period for period, _, _ in patterns] == list(map(math.prod, sieve._PRESIEVE_GROUPS))
        assert sum(words.nbytes for _, _, words in patterns) <= PRESIEVE_BYTES

    @settings(max_examples=150, deadline=None)
    @given(segment=scatter_segments())
    def test_matches_per_prime_strikes(self, base_primes, segment):
        # Segments of one word, of a window and of 2^21 integers up to 10^11,
        # where most base primes miss a short one, and segments whose n // K
        # lies just below, at and just above a base prime.
        lo, hi = segment
        primes = base_primes[: np.searchsorted(base_primes, math.isqrt(hi) + 300)]
        want = struck_segment(lo, hi, primes)
        words = sieve._segment_words(lo, hi, primes)
        assert len(words) == max(1, -(-len(want) // 64))
        bits = unpacked(words)
        assert np.array_equal(bits[: len(want)], want)
        assert not bits[len(want) :].any()


SPAN = st.tuples(st.integers(0, 3000), st.integers(-3, 200)).map(lambda t: (t[0], t[0] + t[1]))
EDGE_SPANS = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 2), (2, 1)]
PLAIN_TOP = 200_000  # the most the span tests count to
PLAIN_PI = np.cumsum(PLAIN[: PLAIN_TOP + 1])  # pi(x) for every x up to it
# Segments of 31 to 33, 63 to 65 and 2047 to 2049 odd flags: on and off a 64-flag word edge.
WORD_EDGE_SIZES = [63, 64, 65, 127, 128, 129, 4095, 4097]


def plain_count(a, b):
    """The primes in [a, b] by the plain sieve, 0 where a > b."""
    return int(PLAIN_PI[b] - (PLAIN_PI[a - 1] if a else 0)) if a <= b else 0


WORD = st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**64 - 1])


class TestRank:
    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(WORD, min_size=1, max_size=9))
    def test_matches_unpacked_cumsum(self, words):
        # Every position from 0 to the end, word edges and the end included.
        words = np.array(words, dtype=np.uint64)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little").cumsum()
        want = np.concatenate(([0], bits))
        positions = np.arange(64 * len(words) + 1)
        counted, total = sieve._rank(words, positions)
        assert counted.tolist() == want.tolist()
        assert total == int(want[-1])


class TestCountSpans:
    @settings(max_examples=300, deadline=None)
    @given(
        spans=st.lists(SPAN | st.sampled_from(EDGE_SPANS), max_size=12),
        repeats=st.lists(st.integers(0, 11), max_size=3),
        size=st.integers(1, 64),
    )
    def test_matches_oracle(self, oracle_100k, spans, repeats, size):
        # Unsorted, overlapping and empty spans, repeats, and gaps shorter and
        # longer than a segment, which decide whether two spans share a run.
        spans += [spans[i] for i in repeats if i < len(spans)]
        got = _count_spans(spans, build_basis(60).primes, size)
        assert got == [oracle_100k.count(a, b) for a, b in spans]

    @pytest.mark.parametrize("size", WORD_EDGE_SIZES)
    @pytest.mark.parametrize("lo", [0, 1001])
    def test_cuts_on_word_edges(self, size, lo):
        # Spans from lo, and between consecutive ends, that end on and next to
        # every 64-flag word edge of every segment, 128 integers apart.
        top = 20_000
        ends = sorted(
            b
            for seg_lo in range(lo, top + 1, size)
            for w in range(size // 128 + 2)
            for d in (-2, -1, 0, 1)
            if lo <= (b := seg_lo + 128 * w + d) <= top
        )
        spans = [(lo, b) for b in ends] + [(a + 1, b) for a, b in zip(ends, ends[1:])]
        got = _count_spans(spans, build_basis(150).primes, size)
        assert got == [plain_count(a, b) for a, b in spans]

    @settings(max_examples=40, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(st.integers(0, PLAIN_TOP), st.integers(0, PLAIN_TOP)).map(sorted),
            min_size=1,
            max_size=6,
        ),
        size=st.sampled_from([*WORD_EDGE_SIZES, sieve.DEFAULT_SEGMENT_SIZE]),
    )
    def test_long_spans(self, spans, size):
        # Spans up to 2 * 10^5 integers, across many segments or within one.
        got = _count_spans([tuple(s) for s in spans], build_basis(448).primes, size)
        assert got == [plain_count(a, b) for a, b in spans]

    @pytest.mark.parametrize("size", [1, 2])
    def test_segments_without_odd_integers(self, size):
        # A one-integer segment at an even lo holds no flag at all.
        spans = [(4, 4), (4, 5), (3, 4), (2, 2), (2, 3), (10, 10), (0, 0), (8, 11)]
        got = _count_spans(spans, build_basis(2).primes, size)
        assert got == [plain_count(a, b) for a, b in spans] == [0, 1, 1, 1, 2, 0, 0, 1]

    def test_only_runs_covering_the_spans_are_sieved(self):
        # Two spans 3 * 10^8 apart: sieving the gap between them takes seconds.
        primes = build_basis(17_321).primes
        t0 = time.perf_counter()
        got = _count_spans([(3 * 10**8 - 100, 3 * 10**8), (90, 100)], primes, 1 << 16)
        assert time.perf_counter() - t0 < 1
        assert got == [trial_count(3 * 10**8 - 100, 3 * 10**8), 1]

    @settings(max_examples=200, deadline=None)
    @given(
        spans=st.lists(SPAN | st.sampled_from(EDGE_SPANS), max_size=10),
        repeats=st.lists(st.integers(0, 9), max_size=3),
        size=st.integers(1, 64),
        gaps=st.lists(st.sampled_from([-1, 0, 1]), max_size=4),
    )
    def test_array_input_matches_list_input(self, spans, repeats, size, gaps):
        # Runs merge where a span starts at most `size` past every earlier end:
        # chain spans whose gap is size - 1, size or size + 1 integers, on the
        # boundary, in both orders, next to empty and repeated spans.
        for d in gaps:
            a, b = spans[-1] if spans else (0, 10)
            start = max(a, b) + size + d
            spans += [(start, start + 5), (start + 7, start + 6)]
        spans = spans[::-1] + [spans[i] for i in repeats if i < len(spans)]
        primes = build_basis(60).primes
        want = [plain_count(a, b) for a, b in spans]
        assert _count_spans(spans, primes, size) == want
        assert _count_spans(np.array(spans, dtype=np.int64).reshape(-1, 2), primes, size) == want

    @pytest.mark.parametrize("size", [1, 7, 64])
    @pytest.mark.parametrize("d", [0, 1])
    def test_run_gap_of_exactly_a_segment(self, monkeypatch, size, d):
        # [0, 10] and a span starting size + d past 10: one run at d = 0, two at d = 1.
        primes = build_basis(60).primes
        sieved = set()
        segment_words = sieve._segment_words

        def recording(lo, hi, primes):
            sieved.update(range(lo, hi + 1))
            return segment_words(lo, hi, primes)

        monkeypatch.setattr(sieve, "_segment_words", recording)
        spans = [(10 + size + d, 40 + size), (0, 10), (10 + size + d, 40 + size)]
        want = [plain_count(a, b) for a, b in spans]
        assert _count_spans(spans, primes, size) == want
        assert _count_spans(np.array(spans, dtype=np.int64), primes, size) == want
        gap = set(range(11, 10 + size + d))
        assert sieved == set(range(41 + size)) - (gap if d else set())

    def test_empty_input(self):
        primes = build_basis(2).primes
        assert _count_spans([], primes) == []
        assert _count_spans(np.empty((0, 2), dtype=np.int64), primes) == []
        assert _count_spans(np.array([[5, 4], [9, 0]]), primes) == [0, 0]

    @pytest.mark.parametrize("seg", [0, -4])
    def test_bad_segment_size(self, seg):
        with pytest.raises(DomainError):
            _count_spans([], build_basis(2).primes, seg)


def no_child_left():
    """Whether this process has no child left, reaped or not."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def split(mp, parts):
    """Make every _count_spans call from 1 integer on deal its segments to `parts` processes.

    The CPUs are made up, so pinning a share to one of them does nothing.
    """
    mp.setattr(sieve, "_FORK_MIN", 1)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
    mp.setattr(os, "sched_setaffinity", lambda pid, cpus: None)


def failing_at(lo_fail, fail):
    """A _segment_words that calls fail(lo) for the segment from lo_fail."""
    segment_words = sieve._segment_words

    def words(lo, hi, primes):
        if lo == lo_fail:
            fail(lo)
        return segment_words(lo, hi, primes)

    return words


class TestSplitCounter:
    # 10 segments of 100 integers: with 2 parts, segment 1, from 100, goes to the worker.
    SPANS = [(0, 999), (150, 420), (3, 3)]
    COUNTS = [plain_count(a, b) for a, b in SPANS]

    @settings(max_examples=60, deadline=None)
    @given(
        spans=st.lists(SPAN | st.sampled_from(EDGE_SPANS), max_size=10),
        size=st.integers(1, 64),
        parts=st.integers(2, 4),
    )
    def test_matches_serial(self, spans, size, parts):
        primes = build_basis(60).primes
        segments, forks = [], []
        segment_words, fork = sieve._segment_words, os.fork
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "_segment_words", lambda *a: segments.append(1) or segment_words(*a))
            serial = _count_spans(spans, primes, size)
        with pytest.MonkeyPatch.context() as mp:
            split(mp, parts)
            mp.setattr(os, "fork", lambda: forks.append(1) or fork())
            got = _count_spans(spans, primes, size)
        assert got == serial == [plain_count(a, b) for a, b in spans]
        assert len(forks) == min(parts, len(segments)) - 1 if segments else not forks
        assert no_child_left()

    def test_default_threshold_counts_integers(self):
        # A call's runs split from 8 segments' worth of integers on, not from 8 segments.
        assert sieve._FORK_MIN == 8 * sieve.DEFAULT_SEGMENT_SIZE
        assert sieve._parts(sieve._FORK_MIN - 1, 10**6) == 1
        assert sieve._parts(sieve._FORK_MIN, 1) == 1
        assert sieve._parts(sieve._FORK_MIN, 10**6) == len(os.sched_getaffinity(0))

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def fail(lo):
            raise DomainError(f"no segment from {lo}")

        split(monkeypatch, 2)
        monkeypatch.setattr(sieve, "_segment_words", failing_at(100, fail))
        with pytest.raises(DomainError) as caught:
            _count_spans(self.SPANS, build_basis(40).primes, 100)
        assert type(caught.value) is DomainError and str(caught.value) == "no segment from 100"
        assert no_child_left()

    def test_worker_that_sends_nothing_names_its_status(self, monkeypatch):
        split(monkeypatch, 2)
        monkeypatch.setattr(sieve, "_segment_words", failing_at(100, lambda lo: os._exit(7)))
        with pytest.raises(RuntimeError, match="exit status 7 before sending its counts"):
            _count_spans(self.SPANS, build_basis(40).primes, 100)
        assert no_child_left()

    def test_caller_interrupted_kills_its_workers(self, monkeypatch):
        # The worker would sleep a minute on its segment; the caller's own share is
        # interrupted at once, and the call returns with the worker killed and reaped.
        segment_words = sieve._segment_words

        def words(lo, hi, primes):
            if lo == 100:  # the worker's first segment
                time.sleep(60)
            if lo == 200:  # the caller's second segment
                raise KeyboardInterrupt
            return segment_words(lo, hi, primes)

        split(monkeypatch, 2)
        monkeypatch.setattr(sieve, "_segment_words", words)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            _count_spans(self.SPANS, build_basis(40).primes, 100)
        assert time.perf_counter() - t0 < 30
        assert no_child_left()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_each_share_runs_on_its_own_cpu(self):
        # Share r on the r-th allowed CPU, the caller's own on the first; the caller's mask
        # is restored after the call.
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        pinned = sieve._forked(lambda r: np.array(sorted(os.sched_getaffinity(0))), 2)
        assert [p.tolist() for p in pinned] == [cpus[:1], cpus[1:2]]
        assert os.sched_getaffinity(0) == mask
        assert no_child_left()

    def test_no_worker_outlives_a_call(self, monkeypatch):
        split(monkeypatch, 2)
        assert _count_spans(self.SPANS, build_basis(40).primes, 100) == self.COUNTS
        assert no_child_left()

    def test_serial_while_another_thread_runs(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked while another thread ran")

        split(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert _count_spans(self.SPANS, build_basis(40).primes, 100) == self.COUNTS
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()

    def test_one_share_holds_about_one_segment(self, monkeypatch):
        # leg_many(1..8000)'s second share, run here under tracemalloc, within the bound of
        # test_leg_many_memory_holds_about_one_segment; the workers' own allocations are
        # not traced by the caller.
        from prime_gauge.conjectures import leg, leg_many

        calls = []

        def in_process(share, parts):
            calls.append((share, [share(r) for r in range(parts)]))
            return calls[-1][1]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(sieve, "_forked", in_process)
        result = leg_many(range(1, 8001))
        (share, results), = calls
        assert all(result[n] == leg(n) for n in (1, 2, 1000, 4096, 7999, 8000))
        tracemalloc.start()
        try:
            counted = share(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert len(results) == 2 and np.array_equal(counted, results[1])


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

    def test_memory_holds_about_one_segment(self):
        # One point near 6.4 * 10^7: the sweep keeps a segment of flags, not its cumsum.
        tracemalloc.start()
        try:
            result = pi_at_points([64_000_000], budget=10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == {64_000_000: 3_785_086}
        assert peak < 64 * 2**20
