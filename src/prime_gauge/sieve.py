"""Exact prime generation, primality, and counting over 64-bit ranges.

One segment kernel, `_segment_words`, walked over an interval piece by
piece, gives the prime bits behind everything that sieves: the base primes,
`PiTable` (pi(x) and n-th-prime queries over appended blocks of packed bits,
with the count of primes below every 2^10 integers) and one span counter,
which counts the primes in many intervals at once behind `count_primes`,
`pi_at_points` and `leg_many`. One count does not sieve: `_lucy_pi`,
Lucy's form of Legendre's phi recursion, gives pi(x) in O(x^3/4) time and
O(sqrt x) memory, so a fresh `PiTable` answers its first large pi(x) from a
window of one or two blocks below x, not from [0, x]. It divides x by each
i up to sqrt x once and reads x // (i p) as (x // i) // p, strikes its
counts at those quotients with the primes up to the fourth root of x only,
and sums Meissel's pairs for the rest. Its counts of the integers up to
sqrt x are final, so the window takes its base primes from them too.

The kernel stores and marks odd integers only, and returns a segment [lo, hi]
as uint64 words of one bit per odd integer: bit i stands for (lo | 1) + 2i,
so the odd integer x is bit x // 2 - lo // 2, and every bit past the segment
is 0. Every consumer counts the prime 2 itself. The kernel sieves each
segment in its own flags of one byte per odd integer, filled with ones,
which the base primes above 89 strike, by slices and one scatter. It
packs the bytes once into words, where one AND per group of the odd primes
from 3 to 89 clears their multiples with a precomputed pattern of packed
words, rotated to the segment. The span counter ranks those words per
segment, a `PiTable` growth copies them into its blocks, 1/16 byte per
integer, and the base primes unpack them. Both batched counts read the
bits through one rank, `_rank`: one cumulative bit count over the words
answers every position in a segment or a block at once. The scalar
`PiTable.pi` and `nth` read one sub-block instead. The span counter takes
its intervals as an (m, 2) int64 array and merges the runs it sieves in
numpy, with no Python step per interval.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError, DomainError, RangeOverflowError

DEFAULT_BUDGET = 1 << 31
DEFAULT_SEGMENT_SIZE = 1 << 21  # integers, so 1 MB of odd flags
DEFAULT_CHECKPOINT_STRIDE = 1 << 24  # the most a PiTable growth sieves beyond its query
INT64_MAX = (1 << 63) - 1

_BLOCK = 1 << 16  # integers per PiTable block: 2^15 odd ones, 4 KB of packed bits
_SUB = 1 << 10  # integers per PiTable sub-block: 2^9 odd ones, 64 bytes, 8 uint64 words
_BASIS_CAP = 1 << 28  # refuse a basis past this: its primes array, at 8 bytes per prime
# A PiTable holds one bit per odd integer in [0, limit] and 8 bytes of count per
# 2^10 integers; refuse to grow beyond the integers the default budget needs.
_TABLE_CAP = DEFAULT_BUDGET + 1
# pi(2^31), published (OEIS A007053): a prime index past it names a prime past
# [0, 2^31], the most a table may sieve, known without sieving.
_PI_2_31 = 105_097_565
# An empty PiTable answers its first pi(x) from x = _ANCHOR_MIN on by a window
# above _lucy_pi, not by sieving [0, x]: the measured crossover (CHANGES.md).
_ANCHOR_MIN = 1 << 21

# _LOW_BITS[b] keeps the b low bits of a uint64 word.
_LOW_BITS = np.array([(1 << b) - 1 for b in range(64)], dtype=np.uint64)

# Deterministic Miller-Rabin witness set, exact for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _checked_mul(a: int, b: int) -> int:
    """Multiply two nonnegative ints, rejecting results beyond int64."""
    r = a * b
    if r > INT64_MAX:
        raise RangeOverflowError(f"{a} * {b} exceeds the signed 64-bit range")
    return r


@dataclass(frozen=True)
class PrimeBasis:
    """All primes up to `limit`, the seed for every segmented operation."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)


def _check_basis_limit(limit: int) -> None:
    """Refuse a basis limit below 2 or past the allocation cap, before anything is allocated."""
    if limit < 2:
        raise DomainError(f"basis limit must be >= 2, got {limit}")
    if limit > _BASIS_CAP:
        raise BudgetError(f"basis limit {limit} exceeds the allocation cap {_BASIS_CAP}")


def build_basis(limit: int) -> PrimeBasis:
    _check_basis_limit(limit)
    return PrimeBasis(limit=limit, primes=_primes_upto(limit))


def _primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, sieved from the primes up to isqrt(limit)."""
    seed = _primes_upto(math.isqrt(limit)) if limit >= 4 else np.zeros(0, dtype=np.int64)
    primes = [np.array([2], dtype=np.int64)] if limit >= 2 else []
    for lo in range(0, limit + 1, DEFAULT_SEGMENT_SIZE):
        words = _segment_words(lo, min(lo + DEFAULT_SEGMENT_SIZE - 1, limit), seed)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        primes.append((lo | 1) + 2 * np.flatnonzero(bits))
    return np.concatenate(primes)


def is_prime(n: int) -> bool:
    """Exact, deterministic primality for 0 <= n <= 2^63 - 1."""
    if n < 0:
        raise DomainError(f"is_prime expects a nonnegative integer, got {n}")
    if n > INT64_MAX:
        raise RangeOverflowError(f"{n} exceeds the supported 64-bit range")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Interval:
    """Integer interval with explicit endpoint semantics."""

    lo: int
    hi: int
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < 0:
            raise DomainError(f"interval endpoints must be nonnegative, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise DomainError(f"interval lower end {self.lo} exceeds upper end {self.hi}")

    @classmethod
    def open(cls, lo: int, hi: int) -> "Interval":
        return cls(lo, hi, lo_open=True, hi_open=True)

    @classmethod
    def closed(cls, lo: int, hi: int) -> "Interval":
        return cls(lo, hi, lo_open=False, hi_open=False)

    def bounds(self) -> tuple[int, int]:
        """Smallest and largest admitted integers; a > b means empty."""
        a = self.lo + 1 if self.lo_open else self.lo
        b = self.hi - 1 if self.hi_open else self.hi
        return a, b

    def is_empty(self) -> bool:
        a, b = self.bounds()
        return a > b

    def contains(self, x: int) -> bool:
        a, b = self.bounds()
        return a <= x <= b


def _presieve_pattern(group: tuple[int, ...]) -> tuple[int, int, np.ndarray]:
    """The period P of a group's primes, 64^-1 mod P, and two periods of its packed words.

    Bit i of the words, bit i % 64 of word i // 64, stands for the odd
    integer 2i + 1 and is clear where a prime of the group divides it, so
    the words repeat every P words. Each prime q's own period, q words, is
    packed once from its flags and ANDed into every q words. The words are
    read-only.
    """
    period = math.prod(group)
    words = np.full(2 * period, ~np.uint64(0))
    for q in group:
        flags = np.ones(64 * q, dtype=bool)
        flags[q // 2 :: q] = False  # flag i stands for 2i + 1
        rows = words.reshape(-1, q)
        np.bitwise_and(rows, np.packbits(flags, bitorder="little").view(np.uint64), out=rows)
    words.flags.writeable = False
    return period, pow(64, -1, period), words


# The odd primes from 3 to _PRESIEVE_TOP are cleared from a segment's packed
# words by one AND per group, with at most 2^13 words per period. Per
# 2^21-integer segment on 2 cores, one AND reads about 10 us, while striking
# 3 reads 130 us, 13 about 30 us (a prime below 64 touches every cache line)
# and 89 about 19 us. Striking 97 reads 16 us, so a group past 89 would save
# a few us per segment of 1-5 ms, and the primes above 89 are struck.
_PRESIEVE_GROUPS = (
    (23, 89), (29, 83), (31, 79), (5, 7, 73), (37, 71),
    (41, 67), (43, 61), (47, 59), (3, 17, 53), (11, 13, 19),
)
_PRESIEVE_TOP = 89
# A base prime p > n // _SCATTER strikes at most _SCATTER of a segment's n flags, all
# in one scatter: a slice costs about 0.5 us before it stores, a scattered store a few
# ns. 20 was no slower on any segment measured; 35 and 50 made 2^21 integers at 2e9 slower.
_SCATTER = 20
# Every odd prime the patterns clear, as bits of odd indices: bit q // 2 for the prime q.
_PATTERN_BITS = sum(1 << (q // 2) for q in sum(_PRESIEVE_GROUPS, ()))


@functools.cache
def _presieve() -> tuple[tuple[int, int, np.ndarray], ...]:
    """Each presieve group's pattern, built on the first sieve: 410 368 bytes of words in all."""
    return tuple(_presieve_pattern(g) for g in _PRESIEVE_GROUPS)


def _segment_words(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Prime bits for the odd integers in [lo, hi], packed into uint64 words.

    Bit i, bit i % 64 of word i // 64, stands for (lo | 1) + 2i; the words
    number max(1, ceil(n / 64)) for the segment's n odd integers, and every
    bit from n on is 0. `primes` are the base primes in order from 2, up to
    at least isqrt(hi). The flags of the segment, one byte per odd integer,
    are ones over the n flags and zeros up to the end of the last word;
    each base prime p above _PRESIEVE_TOP and up to isqrt(hi) strikes its
    odd multiples from max(p^2, lo) on, p flags apart: a prime p <= n //
    _SCATTER with a slice, the larger ones, which strike at most _SCATTER
    flags each and maybe none, with one scatter of all their flags, built
    by np.repeat at 8 bytes per flag. The bytes are packed once,
    and each presieve group then clears the odd multiples of its primes,
    every odd prime up to _PRESIEVE_TOP among them, with one AND of its
    pattern, rotated to the segment: word w of the segment is word
    (lo // 2 + 64 w) * 64^-1 mod P of a pattern with period P. Last, the
    bits of the pattern primes inside the segment are set back, and that
    of the integer 1 cleared.
    """
    base = lo // 2
    n = (hi + 1) // 2 - base
    size = max(1, -(-n // 64))
    flags = np.ones(64 * size, dtype=bool)
    flags[n:] = False
    first = int(np.searchsorted(primes, _PRESIEVE_TOP, side="right"))
    cut = int(np.searchsorted(primes, math.isqrt(hi), side="right"))
    ps = primes[first:cut]
    # build_basis caps p at 2^28, so p^2 and the odd multiple of p at or above
    # lo (less than lo + 2p) stay exact in int64 for every lo it can serve.
    starts = np.maximum(ps * ps, (-(-lo // ps) | 1) * ps) // 2 - base
    d = int(np.searchsorted(ps, n // _SCATTER, side="right"))
    for p, at in zip(ps[:d].tolist(), starts[:d].tolist()):
        flags[at::p] = False
    if d < len(ps):
        sparse, at = ps[d:], starts[d:]
        hits = np.maximum((n - 1 - at) // sparse + 1, 0)  # the flags each one strikes in [0, n)
        strikes = np.repeat(sparse, hits)
        strikes *= np.arange(len(strikes))  # strike g of all, by p, lands at first + p g
        strikes += np.repeat(at - sparse * (np.cumsum(hits) - hits), hits)
        flags[strikes] = False
    words = np.packbits(flags, bitorder="little").view(np.uint64)
    for period, inverse, pattern in _presieve():
        r = base * inverse % period  # the pattern word under the segment's word 0
        k = size // period
        if k:  # whole periods of words, then the tail
            rows = words[: k * period].reshape(k, period)
            np.bitwise_and(rows, pattern[r : r + period], out=rows)
        tail = words[k * period :]
        tail &= pattern[r : r + len(tail)]
    if lo <= _PRESIEVE_TOP:
        # A pattern prime q is odd index q // 2 <= 44, so it lies in word 0 if in the segment.
        bits = int(words[0]) | (_PATTERN_BITS >> base) & ((1 << min(n, 64)) - 1)
        words[0] = bits & ~1 if lo < 2 else bits  # bit 0 of [0, hi] stands for the integer 1
    return words


def _rank(words: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, int]:
    """The set bits before each position in uint64 words of packed bits, and their total.

    Bit p is bit p % 64 of word p // 64 (the order of `_segment_words`
    and of `PiTable`'s blocks viewed as uint64), and every position
    lies in [0, 64 * len(words)], the end included, for at least one word.
    One cumulative bit count over the words answers every position at
    once: the words before its word, plus that word's bits below it. The
    end names no word; it reads the last one, under a mask that keeps no bit.
    """
    before = np.zeros(len(words) + 1, dtype=np.int64)  # set bits in the first w words
    np.cumsum(np.bitwise_count(words), out=before[1:])
    word, bit = np.divmod(positions, 64)
    partial = words.take(word, mode="clip") & _LOW_BITS[bit]
    return before[word] + np.bitwise_count(partial), int(before[-1])


def _count_spans(
    spans: np.ndarray | Sequence[tuple[int, int]],
    primes: np.ndarray,
    size: int = DEFAULT_SEGMENT_SIZE,
) -> list[int]:
    """The number of primes in each inclusive span [a, b] of nonnegative integers, 0 where a > b.

    `spans` is anything `np.asarray` takes as an (m, 2) int64 array of (a, b)
    rows: a list of pairs, or such an array itself. Only runs that cover the
    spans are sieved, one segment at a time; spans less than a segment
    apart share a run. The runs are merged in numpy: in a stable order of
    a, a span starts a new run wherever its a lies more than `size` past
    the running maximum of the earlier b. The cuts are the sorted span ends
    a - 1 and b, and `below[j]` counts the odd primes up to cuts[j] among
    the integers sieved so far, and the prime 2 once cuts[j] >= 2, so a
    span is below[b] - below[a - 1]. `_rank` counts each segment's words
    at all its cuts at once; the words are freed before the next segment
    is sieved.
    """
    if size < 1:
        raise DomainError(f"segment size must be positive, got {size}")
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    live = spans[:, 0] <= spans[:, 1]
    if not live.any():
        return [0] * len(spans)
    a, b = spans[live].T
    ends = np.concatenate((a - 1, b))  # each span's cut a - 1, then each span's cut b
    order = np.argsort(a, kind="stable")
    first, reach = a[order], np.maximum.accumulate(b[order])
    # starts[i]: the i-th span in order of a starts a run; starts[-1] closes the last run.
    starts = np.ones(len(a) + 1, dtype=bool)
    np.greater(first[1:] - reach[:-1], size, out=starts[1:-1])
    run_lo, run_hi = first[starts[:-1]].tolist(), reach[starts[1:]].tolist()
    cuts = np.sort(ends)  # a repeated cut is counted once per copy
    below = np.empty(len(cuts), dtype=np.int64)
    running = k = 0
    for lo, hi in zip(run_lo, run_hi):
        for seg_lo in range(lo, hi + 1, size):
            seg_end = min(seg_lo + size, hi + 1)
            words = _segment_words(seg_lo, seg_end - 1, primes)
            # The cuts up to the segment's end; the first segment of a run also
            # takes a - 1 for a span that starts the run, which counts nothing.
            j = int(np.searchsorted(cuts, seg_end))
            odd = (cuts[k:j] + 1) // 2 - seg_lo // 2  # the odd integers in [seg_lo, cut]
            counted, total = _rank(words, odd)
            below[k:j] = running + counted
            running += total
            k = j
    below[int(np.searchsorted(cuts, 2)) :] += 1  # the prime 2, up to every cut from 2 on
    at = below[np.searchsorted(cuts, ends)]
    counts = np.zeros(len(spans), dtype=np.int64)
    counts[live] = at[len(a) :] - at[: len(a)]
    return counts.tolist()


def count_primes(
    iv: Interval,
    basis: PrimeBasis,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact count of primes admitted by `iv`, by segmented sieving."""
    a, b = iv.bounds()
    if a <= b and b > budget:
        raise BudgetError(f"interval end {b} exceeds the sieve budget {budget}")
    if a <= b and basis.limit * basis.limit < iv.hi:
        raise DomainError(
            f"basis limit {basis.limit} cannot sieve up to {iv.hi}; need limit^2 >= hi"
        )
    return _count_spans([(a, b)], basis.primes, segment_size)[0]


def _dusart_floor(i: int) -> float:
    """A number below the i-th prime, for i >= 2, found without sieving.

    Dusart (1999): p_i > i (ln i + ln ln i - 1) for i >= 2. The slack (1e-9
    relative, 1 absolute) keeps float rounding from rejecting a prime that
    lies within a budget. An index past int64 names a prime past it too, and
    is refused before the float arithmetic overflows.
    """
    if i > INT64_MAX:
        raise RangeOverflowError(f"prime index {i} exceeds the supported 64-bit range")
    return i * (math.log(i) + math.log(math.log(i)) - 1) * (1 - 1e-9) - 1


def _lucy_pi(x: int, reach: int | None = None) -> int | tuple[int, np.ndarray]:
    """pi(x) by Lucy's form of Legendre's phi recursion, in O(x^3/4) time and O(sqrt x) memory.

    S(v) counts the integers in [2, v] left after striking the multiples of
    the primes below p, each prime itself kept; it starts at v - 1 and ends
    at pi(v). Striking the prime p removes the integers whose least prime
    factor is p: S(v) -= S(v // p) - pi(p - 1) for every v >= p^2. Every
    v read is x // i for some i, so S lives in int64 arrays: small[v] = S(v)
    for v <= top = max(r, reach), r = isqrt(x), and large[i - 1] = S(q[i - 1])
    for i <= r, where the quotients q[i - 1] = x // i are divided once.
    Striking p, large[i - 1] reads S(x // (i p)): large[i p - 1] while i p
    <= r, else small[q[i - 1] // p], since x // (i p) = (x // i) // p, so
    numpy divides one array by one scalar. Every prime up to isqrt(top)
    strikes small, so small[v] = pi(v) for v <= top, but only those up to
    y = isqrt(r), the fourth root of x, strike large (Meissel; Lehmer 1959;
    Lagarias, Miller and Odlyzko 1985). Then large[0] = phi(x, pi(y)) + pi(y)
    - 1 = pi(x) + P2 + P3, P2 and P3 counting the products <= x of two and of
    three primes above y (four exceed x). As large[p - 1] = pi(x // p) + P2(x // p),

        pi(x) = large[0] - sum_{y < p <= r} (large[p - 1] - pi(p) + 1)
                + sum_{y < q < p, p q^2 <= x} (pi(x // (p q)) - pi(q) + 1):

    the first sum is P2 plus, for each p, the primes q <= q' above y with
    p q q' <= x. Those with q >= p count each product of three once, by its
    least prime p, and cancel P3; the second sum counts those with q < p,
    the primes q' from q to x // (p q). Given `reach`, the primes up to top,
    where small steps, come back beside pi(x); a reach past (c + 1)^2 - 1,
    c the cube root of x, is refused, so small holds O(x^2/3) entries.
    """
    r, y = math.isqrt(x), math.isqrt(math.isqrt(x))
    c = round(x ** (1 / 3))
    while c**3 > x:
        c -= 1
    while (c + 1) ** 3 <= x:
        c += 1
    if reach is not None and math.isqrt(reach) > c:
        raise DomainError(f"Lucy's counts up to {reach} need primes above the cube root {c} of {x}")
    if x < 2:
        return 0 if reach is None else (0, _primes_upto(reach))
    top = max(r, reach or 0)
    small = np.arange(-1, top, dtype=np.int64)
    q = x // np.arange(1, r + 1, dtype=np.int64)
    large = q - 1
    for p in range(2, math.isqrt(top) + 1):
        sp = int(small[p - 1])  # pi(p - 1), final since p - 1 < p^2
        if small[p] == sp:
            continue  # p is composite
        if p <= y:
            lim = min(r, x // (p * p))
            m = min(lim, r // p)  # for i <= m, x // (i p) is q[i p - 1], else a small value
            head, tail = large[:m], large[m:lim]
            head -= large[p - 1 : m * p : p]
            head += sp
            tail -= small[q[m:lim] // p]
            tail += sp
        # small[v] -= small[v // p] - sp for v from p^2 to top, p at a time
        k = (top + 1) // p  # the v past k p - 1 share v // p = k
        small[k * p :] -= small[k] - sp
        rows = small[p * p : k * p].reshape(-1, p)
        rows -= small[p:k, None] - sp
    primes = np.flatnonzero(np.diff(small[1:])) + 2  # small steps at each prime up to top
    # The first sum: large[p - 1] - pi(p) + 1 is large[p - 1] - small[p - 1].
    ps = primes[np.searchsorted(primes, y, side="right") : np.searchsorted(primes, r, side="right")]
    count = int(large[0] - (large[ps - 1] - small[ps - 1]).sum())
    del q, large
    # The pairs: row j, q = ps[j] <= c, holds the primes p = ps[j + 1 : j + 1 + runs[j]],
    # q < p <= x // q^2 <= r, each adding pi(x // (p q)) - pi(q) + 1. Blocks of whole rows
    # hold at most r // 2 + 1 pairs, about what large and q took; pair g of all, in row j,
    # has p = ps[g + j + 1 - (ends[j] - runs[j])].
    qs = ps[: np.searchsorted(ps, c, side="right")]
    after = np.arange(1, len(qs) + 1)
    runs = np.maximum(np.searchsorted(ps, x // (qs * qs), side="right") - after, 0)
    count -= int((runs * small[qs - 1]).sum())
    ends = np.cumsum(runs)
    a = 0
    while a < len(qs):
        first = int(ends[a] - runs[a])  # the block's first pair
        b = int(np.searchsorted(ends, first + r // 2 + 1, side="right"))
        at = np.repeat(after[a:b] + runs[a:b] - ends[a:b], runs[a:b]) + np.arange(first, ends[b - 1])
        count += int(small[np.repeat(x // qs[a:b], runs[a:b]) // ps[at]].sum())
        a = b
    return count if reach is None else (count, primes)


def _nth_bit(word: int, r: int) -> int:
    """Position of the r-th set bit (from 1) of `word`, a sub-block of at most 2^9 bits.

    A binary search on the bit count of prefixes: the bits below `lo` hold
    fewer than r set bits, the bits below `hi` at least r.
    """
    lo, hi = 0, _SUB // 2
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (word & ((1 << mid) - 1)).bit_count() >= r:
            hi = mid
        else:
            lo = mid
    return lo


# A PiTable's state: (base, blocks, below, limit), as the PiTable docstring reads them.
_TableState = tuple[int, list[np.ndarray], np.ndarray, int]


class PiTable:
    """Exact pi(x) and n-th-prime queries over a lazily grown sieve.

    The table holds the integers [base, limit] as blocks of 2^16 integers,
    each holding one bit per odd integer, 4 KB: bit k of byte b of block j
    stands for base + j * 2^16 + 16b + 2k + 1. `below[s]` is the number of
    primes, the prime 2 among them, below sub-block s, the 2^10 integers
    from base + s * 2^10, whose 512 bits are 64 bytes of its block. So a
    table holds 1/16 byte per integer plus 8 bytes of count per 2^10
    integers, about 134 + 17 MB at its cap, and `pi` and `nth` read one
    sub-block.

    A plain table has base 0. A query past its limit grows it to the
    query, or further when it climbs: a growth at least doubles the limit
    but adds at most one stride, DEFAULT_CHECKPOINT_STRIDE integers, beyond
    it, so after queries up to x the table holds at most min(2x, x + stride)
    integers, never past the budget, in O(log stride + x / stride) growths.

    The first `pi(x)` on an empty table with x >= _ANCHOR_MIN sieves a
    window instead: base is the block boundary at least one block below x,
    so the window holds 2^16 to 2^17 integers, and the count below it is
    `_lucy_pi(base - 1)`, with no sieve below base; Lucy's counts, run out
    to isqrt(x), give the window its base primes too. The window answers
    `pi(y)` for base <= y <= limit and `nth(i)` for pi(base - 1) < i <=
    pi(limit); any other request first sieves the table again as the plain
    table [0, limit] and then grows it as above, so only the first query's
    cost differs from a plain table's.

    `_ensure` is the one way a table grows, in one section under a lock,
    and publishes (base, blocks, below, limit) as one tuple that keeps
    every block and count a plain table already held, so queries need no
    lock: each reads one whole state.
    """

    def __init__(self, budget: int = DEFAULT_BUDGET) -> None:
        if budget < 2:
            raise DomainError(f"budget must be >= 2, got {budget}")
        self.budget = budget
        # blocks are uint8 views into one array per growth; below[0] of a plain table is pi(2).
        self._state: _TableState = (0, [], np.ones(1, dtype=np.int64), 0)
        self._lock = threading.Lock()

    @property
    def sieved_limit(self) -> int:
        """The largest integer the table holds."""
        return self._state[3]

    def _ensure(self, x: int, window: bool = False) -> None:
        """Make the table hold x: as a window if `window` finds it empty, else as a plain table.

        With `window`, an empty table and x from _ANCHOR_MIN on become the
        window up to x, above Lucy's count of the primes below it. Otherwise
        a plain table that holds x stays as it is, a window is sieved again
        from 0, and a plain one grows from its complete blocks.
        """
        base, _, _, limit = self._state
        if x <= limit and not base:
            return
        with self._lock:
            base, blocks, below, limit = self._state
            if x <= limit and not base:
                return
            # Within the cap, the base primes stay far below _BASIS_CAP.
            if x + 1 > _TABLE_CAP:
                raise BudgetError(
                    f"a pi table up to {x} sieves {x + 1} integers, above the cap {_TABLE_CAP}"
                )
            if window and not limit and x >= _ANCHOR_MIN:
                base = (x // _BLOCK - 1) * _BLOCK
                count, primes = _lucy_pi(base - 1, reach=math.isqrt(x))
                self._state = _sieve_blocks(base, [], np.array([count]), x, primes)
                return
            full = 0 if base else (limit + 1) // _BLOCK  # blocks already complete stay as they are
            if x > limit:  # at least double, by at most one stride: a fresh table sieves [0, x]
                step = min(limit, DEFAULT_CHECKPOINT_STRIDE)
                limit = min(self.budget, _TABLE_CAP - 1, max(x, limit + step))
            kept = np.ones(1, dtype=np.int64) if base else below[: full * (_BLOCK // _SUB) + 1]
            primes = _primes_upto(math.isqrt(limit))
            self._state = _sieve_blocks(0, blocks[:full], kept, limit, primes)

    def _pi_many(self, xs: np.ndarray) -> np.ndarray:
        """pi at each point of an int64 array of points in [0, budget], in the given order.

        The table grows once, plain, to the largest point. Points are
        grouped by block, so each touched block's 4 KB is read once: pi(x)
        is the count below block j plus the rank of x's bit among the
        block's 512 words, which `_rank` gives every point of the block from
        one cumulative count per word. Only one block's word counts are
        alive at a time.
        """
        xs = np.asarray(xs, dtype=np.int64)
        pis = np.zeros(len(xs), dtype=np.int64)
        top = int(xs.max()) if len(xs) else 0
        if top < 2:
            return pis
        self._ensure(top)
        _, blocks, below, _ = self._state
        js = xs // _BLOCK
        order = np.argsort(js, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(js[order])) + 1):
            j = int(js[group[0]])
            odd = (xs[group] - j * _BLOCK + 1) // 2  # the odd integers in [j * _BLOCK, x]
            pis[group] = below[j * _BLOCK // _SUB] + _rank(blocks[j].view(np.uint64), odd)[0]
        pis[xs < 2] = 0
        return pis

    def pi(self, x: int) -> int:
        x = operator.index(x)  # a numpy integer would overflow the mask in _prefix
        if x < 0:
            raise DomainError(f"pi expects a nonnegative argument, got {x}")
        if x > self.budget:
            raise BudgetError(f"pi({x}) exceeds the budget {self.budget}")
        if x < 2:
            return 0
        state = self._state
        if not state[0] <= x <= state[3]:
            self._ensure(x, window=True)
            state = self._state
        base, blocks, below, _ = state
        s = (x - base) // _SUB  # the count below x's sub-block, and its bits up to x
        return int(below[s]) + _prefix(blocks, s, (x - base - s * _SUB + 1) // 2).bit_count()

    def nth(self, i: int) -> int:
        if i < 1:
            raise DomainError(f"prime index must be positive, got {i}")
        if i <= 5:
            p = (2, 3, 5, 7, 11)[i - 1]
            if p > self.budget:
                raise BudgetError(f"prime #{i} = {p} lies beyond the budget {self.budget}")
            return p
        if _dusart_floor(i) > self.budget:
            raise BudgetError(f"prime #{i} lies beyond the budget {self.budget}")
        state = self._state
        if state[0] and state[2][0] < i <= state[2][-1]:  # a window holds p_i
            return _nth_in(state, i)
        # Rosser: p_i < i (ln i + ln ln i) for i >= 6.
        est = int(i * (math.log(i) + math.log(math.log(i)))) + 2
        top = min(self.budget, _TABLE_CAP - 1)  # the largest integer a table may sieve
        if est > top:
            # Past the cap, p_i is refused at once when known to lie past it.
            capped = top < self.budget
            known_past = capped and (i > _PI_2_31 or _dusart_floor(i) > top)
            if known_past or self._pi_many(np.array([top]))[0] < i:
                where = (
                    f"past {top}: its pi table would sieve above the cap {_TABLE_CAP}"
                    if capped
                    else f"beyond the budget {self.budget}"
                )
                raise BudgetError(f"prime #{i} lies {where}")
            est = top
        self._ensure(est)
        return _nth_in(self._state, i)


def _sieve_blocks(
    base: int, blocks: list[np.ndarray], below: np.ndarray, limit: int, primes: np.ndarray
) -> _TableState:
    """A table state that keeps the complete blocks from base and sieves on from them to limit.

    `below` holds the counts of the kept sub-blocks and the count below the
    first new one, from which the new counts run on; `primes` are the base
    primes from 2 up to at least isqrt(limit). The new bits are one array
    per growth, whole sub-blocks of them, zero past the limit.
    """
    lo, first = base + len(blocks) * _BLOCK, len(below) - 1
    # Count sub-blocks by integers: a limit of base + s * _SUB gives sub-block s no odd bit.
    subs = (limit - base) // _SUB + 1 - first
    bits = np.zeros(subs * _SUB // 16, dtype=np.uint8)
    table_words = bits.view(np.uint64)  # 128 integers per word
    counts = np.empty(first + 1 + subs, dtype=np.int64)
    counts[: first + 1] = below
    for seg_lo in range(lo, limit + 1, DEFAULT_SEGMENT_SIZE):
        seg_hi = min(seg_lo + DEFAULT_SEGMENT_SIZE - 1, limit)
        words = _segment_words(seg_lo, seg_hi, primes)
        # lo and the segment size are multiples of _SUB: a segment starts a
        # sub-block, and its words end within its last one, sub-block t - 1.
        s, t = (seg_lo - lo) // _SUB, (seg_hi - lo) // _SUB + 1
        at = s * _SUB // 128
        table_words[at : at + len(words)] = words
        sums = np.bitwise_count(table_words[at : t * _SUB // 128].reshape(t - s, -1))
        counts[first + 1 + s : first + 1 + t] = sums.sum(axis=1)
    np.cumsum(counts[first:], out=counts[first:])
    new = [
        bits[k * _BLOCK // 16 : (k + 1) * _BLOCK // 16]
        for k in range((limit - base) // _BLOCK + 1 - len(blocks))
    ]
    return base, blocks + new, counts, limit


def _prefix(blocks: list[np.ndarray], s: int, n: int) -> int:
    """The first n bits of sub-block s as an int: bit k stands for base + s * _SUB + 2k + 1."""
    j, k = divmod(s, _BLOCK // _SUB)
    at = k * _SUB // 16  # the sub-block's first byte in its block
    word = int.from_bytes(blocks[j][at : at + (n + 7) // 8], "little")
    return word & ((1 << n) - 1)


def _nth_in(state: _TableState, i: int) -> int:
    """The i-th prime, for below[0] < i <= below[-1] of a table state."""
    base, blocks, below, _ = state
    s = int(np.searchsorted(below, i, side="left")) - 1  # below[s] < i <= below[s + 1]
    return base + s * _SUB + 2 * _nth_bit(_prefix(blocks, s, _SUB // 2), i - int(below[s])) + 1


def pi(x: int, table: PiTable) -> int:
    """Exact number of primes <= x."""
    return table.pi(x)


def nth_prime(i: int, table: PiTable) -> int:
    """The i-th prime, with nth_prime(1) = 2."""
    return table.nth(i)


def pi_at_points(
    points: Iterable[int],
    *,
    budget: int = DEFAULT_BUDGET,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> dict[int, int]:
    """pi at every requested point, from one segmented sweep of [0, max(points)].

    The sweep costs one sieve up to the largest point however many points
    are asked for; each point is the count of the span [0, x]. It holds one
    segment's flags and words at a time, and nothing afterwards.
    """
    pts = sorted({int(x) for x in points})
    if not pts:
        return {}
    if pts[0] < 0:
        raise DomainError(f"pi is undefined for negative arguments, got {pts[0]}")
    top = pts[-1]
    if top > budget:
        raise BudgetError(f"point {top} exceeds the sieve budget {budget}")
    basis = build_basis(max(2, math.isqrt(top) + 1))
    return dict(zip(pts, _count_spans([(0, x) for x in pts], basis.primes, segment_size)))
