"""Exact prime generation, primality, and counting over 64-bit ranges.

A simple sieve produces base primes, a segmented sieve counts primes in
arbitrary intervals without materializing them, and a lazily grown table
answers pi(x) and n-th-prime queries from checkpointed cumulative counts.
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

_FINE = 1 << 16  # granularity of the internal cumulative-count grid
_BASIS_CAP = 1 << 28  # refuse simple-sieve allocations above this

# Deterministic Miller-Rabin witness set, exact for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _checked_mul(a: int, b: int) -> int:
    """Multiply two nonnegative ints, rejecting results beyond int64."""
    r = a * b
    if r > INT64_MAX:
        raise RangeOverflowError(f"{a} * {b} exceeds the signed 64-bit range")
    return r


def _sieve_flags(limit: int) -> np.ndarray:
    """Boolean array f of length limit+1 with f[i] true iff i is prime."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[: min(2, limit + 1)] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


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
    flags = _sieve_flags(limit)
    return PrimeBasis(limit=limit, primes=np.flatnonzero(flags).astype(np.int64))


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


def count_primes(
    iv: Interval,
    basis: PrimeBasis,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact count of primes admitted by `iv`, by segmented sieving."""
    if segment_size < 1:
        raise DomainError(f"segment size must be positive, got {segment_size}")
    a, b = iv.bounds()
    if a > b:
        return 0
    if b > budget:
        raise BudgetError(f"interval end {b} exceeds the sieve budget {budget}")
    if basis.limit * basis.limit < iv.hi:
        raise DomainError(
            f"basis limit {basis.limit} cannot sieve up to {iv.hi}; need limit^2 >= hi"
        )
    total = 0
    for seg_lo in range(a, b + 1, segment_size):
        seg_hi = min(seg_lo + segment_size - 1, b)
        total += int(np.count_nonzero(_segment_flags(seg_lo, seg_hi, basis.primes)))
    return total


class PiTable:
    """Checkpointed cumulative prime counts for exact pi(x) queries.

    `checkpoints[j]` is the exact number of primes <= j * checkpoint_stride
    for every stride fully covered so far. The table grows lazily toward its
    budget; it also retains the sieved bitmap plus a fine-grained cumulative
    grid so that repeated queries cost one short popcount instead of a
    re-sieve. All mutation happens under a lock, so concurrent queries are
    safe and results are independent of scheduling.
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
        self.checkpoints: list[int] = [0]
        self._flags = np.zeros(1, dtype=bool)  # index i -> i is prime; covers [0, _limit]
        self._fine = np.zeros(1, dtype=np.int64)  # _fine[j] = pi(j * _FINE)
        self._limit = 0
        self._lock = threading.RLock()

    @property
    def sieved_limit(self) -> int:
        return self._limit

    def _ensure(self, x: int) -> None:
        if x <= self._limit:
            return
        with self._lock:
            if x <= self._limit:
                return
            stride = self.checkpoint_stride
            new_limit = min(self.budget, ((x + stride - 1) // stride) * stride)
            flags = np.ones(new_limit + 1, dtype=bool)
            flags[: self._limit + 1] = self._flags
            fresh_lo = self._limit + 1
            if fresh_lo < 2:
                flags[fresh_lo : min(2, new_limit + 1)] = False
            for p in np.flatnonzero(_sieve_flags(math.isqrt(new_limit))).tolist():
                start = max(p * p, ((fresh_lo + p - 1) // p) * p)
                if start <= new_limit:
                    flags[start::p] = False
            nf_old = len(self._fine) - 1
            nf_new = new_limit // _FINE
            fine = np.zeros(nf_new + 1, dtype=np.int64)
            fine[: nf_old + 1] = self._fine
            if nf_new > nf_old:
                block = flags[nf_old * _FINE + 1 : nf_new * _FINE + 1]
                sums = block.reshape(nf_new - nf_old, _FINE).sum(axis=1, dtype=np.int64)
                fine[nf_old + 1 :] = fine[nf_old] + np.cumsum(sums)
            self._flags = flags
            self._fine = fine
            self._limit = new_limit
            while len(self.checkpoints) * stride <= new_limit:
                self.checkpoints.append(self._pi_covered(len(self.checkpoints) * stride))

    def _pi_covered(self, x: int) -> int:
        """pi(x) for x already inside the sieved region."""
        if x < 2:
            return 0
        q = x // _FINE
        flags, fine = self._flags, self._fine
        return int(fine[q]) + int(np.count_nonzero(flags[q * _FINE + 1 : x + 1]))

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
        flags, fine = self._flags, self._fine
        j = int(np.searchsorted(fine, i, side="left"))
        lo = (j - 1) * _FINE + 1
        offsets = np.flatnonzero(flags[lo : j * _FINE + 1])
        return lo + int(offsets[i - int(fine[j - 1]) - 1])


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
    seg_lo = 0
    while idx < len(pts):
        seg_hi = min(seg_lo + segment_size - 1, top)
        flags = _segment_flags(seg_lo, seg_hi, basis.primes)
        cum = np.cumsum(flags, dtype=np.int64)
        while idx < len(pts) and pts[idx] <= seg_hi:
            result[pts[idx]] = running + int(cum[pts[idx] - seg_lo])
            idx += 1
        running += int(cum[-1])
        seg_lo = seg_hi + 1
    return result
