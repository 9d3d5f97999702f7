"""Exact prime generation, primality, and counting over 64-bit ranges.

One segment kernel, walked over an interval piece by piece, gives the prime
flags behind everything that sieves: the base primes, `count_primes` over any
interval, `PiTable` (pi(x) and n-th-prime queries over appended blocks of
flags, each with the count of primes below it) and the streaming `pi_at_points`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BudgetError, DomainError, RangeOverflowError

DEFAULT_BUDGET = 1 << 31
DEFAULT_SEGMENT_SIZE = 1 << 20
DEFAULT_CHECKPOINT_STRIDE = 1 << 24
INT64_MAX = (1 << 63) - 1

_BLOCK = 1 << 16  # integers per PiTable block
_BASIS_CAP = 1 << 28  # refuse simple-sieve allocations above this

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


def build_basis(limit: int) -> PrimeBasis:
    if limit < 2:
        raise DomainError(f"basis limit must be >= 2, got {limit}")
    if limit > _BASIS_CAP:
        raise BudgetError(f"basis limit {limit} exceeds the allocation cap {_BASIS_CAP}")
    return PrimeBasis(limit=limit, primes=_primes_upto(limit))


def _primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, sieved from the primes up to isqrt(limit)."""
    seed = _primes_upto(math.isqrt(limit)) if limit >= 4 else np.zeros(0, dtype=np.int64)
    return np.concatenate([lo + np.flatnonzero(f) for lo, f in _segments(0, limit, seed)])


def is_prime(n: int) -> bool:
    """Exact, deterministic primality for 0 <= n <= 2^63 - 1."""
    if n < 0:
        raise DomainError(f"is_prime expects a nonnegative integer, got {n}")
    if n > INT64_MAX:
        raise RangeOverflowError(f"{n} exceeds the supported 64-bit range")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _segment_flags(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Prime flags for the inclusive range [lo, hi] from the given base primes."""
    flags = np.ones(hi - lo + 1, dtype=bool)
    if lo < 2:
        flags[: min(2, hi + 1) - lo] = False
    root = math.isqrt(hi)
    cut = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:cut].tolist():
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start <= hi:
            flags[start - lo :: p] = False
    return flags


def _segments(a: int, b: int, primes: np.ndarray, size: int = DEFAULT_SEGMENT_SIZE):
    """(seg_lo, flags) for [a, b] in consecutive pieces of at most `size` integers."""
    if size < 1:
        raise DomainError(f"segment size must be positive, got {size}")
    return ((lo, _segment_flags(lo, min(lo + size - 1, b), primes)) for lo in range(a, b + 1, size))


def count_primes(
    iv: Interval,
    basis: PrimeBasis,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact count of primes admitted by `iv`, by segmented sieving."""
    a, b = iv.bounds()
    segments = _segments(a, b, basis.primes, segment_size)  # rejects a bad size first
    if a > b:
        return 0
    if b > budget:
        raise BudgetError(f"interval end {b} exceeds the sieve budget {budget}")
    if basis.limit * basis.limit < iv.hi:
        raise DomainError(
            f"basis limit {basis.limit} cannot sieve up to {iv.hi}; need limit^2 >= hi"
        )
    return sum(int(np.count_nonzero(flags)) for _, flags in segments)


class PiTable:
    """Exact pi(x) and n-th-prime queries over a lazily grown sieve.

    The sieved range is kept as blocks of 2^16 prime flags with `_below[j]`,
    the number of primes below block j. Growth appends blocks, in whole
    strides up to the budget, under a lock; it builds new lists that keep
    every published block and count, and publishes the new limit last, so
    queries need no lock. `checkpoints[j]` is pi(j * checkpoint_stride) for
    every stride covered so far.
    """

    def __init__(
        self,
        budget: int = DEFAULT_BUDGET,
        checkpoint_stride: int = DEFAULT_CHECKPOINT_STRIDE,
    ) -> None:
        if budget < 2:
            raise DomainError(f"budget must be >= 2, got {budget}")
        if checkpoint_stride < 1:
            raise DomainError(f"checkpoint stride must be positive, got {checkpoint_stride}")
        self.budget = budget
        self.checkpoint_stride = checkpoint_stride
        self._blocks: list[np.ndarray] = []  # views into one array per growth
        self._below = np.zeros(1, dtype=np.int64)  # _below[j] = pi(j * _BLOCK - 1)
        self._limit = 0
        self._lock = threading.RLock()

    @property
    def sieved_limit(self) -> int:
        return self._limit

    @property
    def checkpoints(self) -> list[int]:
        stride = self.checkpoint_stride
        return [self._pi_covered(j * stride) for j in range(self._limit // stride + 1)]

    def _ensure(self, x: int) -> None:
        if x <= self._limit:
            return
        with self._lock:
            if x <= self._limit:
                return
            stride = self.checkpoint_stride
            new_limit = min(self.budget, ((x + stride - 1) // stride) * stride)
            full = (self._limit + 1) // _BLOCK  # blocks already complete stay as they are
            primes = _primes_upto(math.isqrt(new_limit))
            # One array per growth, not per segment: new tables reuse freed memory.
            lo = full * _BLOCK
            flags = np.empty(new_limit - lo + 1, dtype=bool)
            for seg_lo, seg in _segments(lo, new_limit, primes):
                flags[seg_lo - lo : seg_lo - lo + len(seg)] = seg
                del seg  # free it before the next segment is sieved
            fresh = [flags[k : k + _BLOCK] for k in range(0, len(flags), _BLOCK)]
            counts = np.cumsum([np.count_nonzero(b) for b in fresh], dtype=np.int64)
            self._blocks = self._blocks[:full] + fresh
            self._below = np.concatenate((self._below[: full + 1], self._below[full] + counts))
            self._limit = new_limit

    def _pi_covered(self, x: int) -> int:
        """pi(x) for x already inside the sieved region."""
        if x < 2:
            return 0
        j = x // _BLOCK
        return int(self._below[j]) + int(np.count_nonzero(self._blocks[j][: x - j * _BLOCK + 1]))

    def pi(self, x: int) -> int:
        if x < 0:
            raise DomainError(f"pi expects a nonnegative argument, got {x}")
        if x > self.budget:
            raise BudgetError(f"pi({x}) exceeds the budget {self.budget}")
        if x < 2:
            return 0
        self._ensure(x)
        return self._pi_covered(x)

    def nth(self, i: int) -> int:
        if i < 1:
            raise DomainError(f"prime index must be positive, got {i}")
        if i <= 5:
            p = (2, 3, 5, 7, 11)[i - 1]
            if p > self.budget:
                raise BudgetError(f"prime #{i} = {p} lies beyond the budget {self.budget}")
            return p
        # Dusart (1999): p_i > i (ln i + ln ln i - 1) for i >= 2. Rejecting on
        # it needs no sieving; the slack keeps float rounding from rejecting a
        # prime that lies within the budget.
        lnln = math.log(math.log(i))
        if i * (math.log(i) + lnln - 1) * (1 - 1e-9) - 1 > self.budget:
            raise BudgetError(f"prime #{i} lies beyond the budget {self.budget}")
        # Rosser: p_i < i (ln i + ln ln i) for i >= 6.
        est = int(i * (math.log(i) + lnln)) + 2
        if est > self.budget:
            if self.pi(self.budget) < i:
                raise BudgetError(f"prime #{i} lies beyond the budget {self.budget}")
            est = self.budget
        self._ensure(est)
        below = self._below
        j = int(np.searchsorted(below, i, side="left")) - 1
        offsets = np.flatnonzero(self._blocks[j])
        return j * _BLOCK + int(offsets[i - int(below[j]) - 1])


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
    segment_size: int = DEFAULT_CHECKPOINT_STRIDE,
) -> dict[int, int]:
    """pi at every requested point, from a single streaming sieve pass.

    The points are answered in one left-to-right segmented sweep, so the
    cost is one full sieve up to max(points) regardless of how many points
    are asked for. Nothing is retained afterwards.
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
    result: dict[int, int] = {}
    idx = 0
    running = 0
    for seg_lo, flags in _segments(0, top, basis.primes, segment_size):
        cum = np.cumsum(flags, dtype=np.int64)
        while idx < len(pts) and pts[idx] < seg_lo + len(flags):
            result[pts[idx]] = running + int(cum[pts[idx] - seg_lo])
            idx += 1
        running += int(cum[-1])
    return result
