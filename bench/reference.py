"""Independent references for checking the benchmark's outputs.

Nothing here imports `prime_gauge`: counts come from a plain odd-only sieve
written for this file, from a deterministic Miller-Rabin test, and from
published values of pi(x). The parent process builds these after the child
under test has exited, so their memory never enters the child's peak RSS.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

ANCHOR_DIR = Path(__file__).resolve().parent / "anchors"

# Published values of pi(x): 10**6 from OEIS A006880, 2 * 10**7 from tables of pi(x).
PUBLISHED_PI = {10**6: 78_498, 2 * 10**7: 1_270_607}

# Table 2 of the paper: leg(n) for the published n.
PUBLISHED_LEG = {
    10: 5, 20: 7, 50: 11, 100: 23, 500: 71, 1000: 152, 2000: 267, 5000: 613,
    20000: 2020, 45000: 4218,
}

_BLOCK = 1 << 16  # odd slots per cumulative-count block


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.3 * 10^24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def count_primes_mr(lo: int, hi: int) -> int:
    """Primes p with lo <= p <= hi, by Miller-Rabin; for short ranges only."""
    return sum(1 for n in range(max(lo, 2), hi + 1) if is_prime(n))


def table_anchor(table_id: int) -> str:
    """The committed CSV bytes of one published table."""
    return (ANCHOR_DIR / f"table{table_id}.csv").read_text(encoding="utf-8")


class RefPrimes:
    """Exact pi(x) and p_i for x <= limit from an odd-only sieve.

    Slot j stands for the odd number 2j + 1. The flags are kept bit-packed
    with a cumulative count per block, so a query costs one short popcount.
    """

    def __init__(self, limit: int) -> None:
        self.limit = max(limit, 3)
        slots = (self.limit + 1) // 2
        odd = np.ones(slots, dtype=bool)
        odd[0] = False  # 1 is not prime
        for i in range(1, (math.isqrt(self.limit) - 1) // 2 + 1):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2 :: p] = False
        nblocks = -(-slots // _BLOCK)
        padded = np.zeros(nblocks * _BLOCK, dtype=bool)
        padded[:slots] = odd
        del odd
        self._bits = np.packbits(padded)
        per_block = np.bitwise_count(self._bits.reshape(nblocks, _BLOCK // 8)).sum(
            axis=1, dtype=np.int64
        )
        self._cum = np.concatenate(([0], np.cumsum(per_block)))  # odd primes before block b

    def _odd_upto(self, slot: int) -> int:
        """Number of prime slots in [0, slot)."""
        b, r = divmod(slot, _BLOCK)
        count = int(self._cum[b])
        if r:
            byte0 = b * _BLOCK // 8
            full, rem = divmod(r, 8)
            count += int(np.bitwise_count(self._bits[byte0 : byte0 + full]).sum())
            if rem:
                count += int(self._bits[byte0 + full] >> (8 - rem)).bit_count()
        return count

    def pi(self, x: int) -> int:
        if x > self.limit:
            raise ValueError(f"reference covers x <= {self.limit}, asked for {x}")
        if x < 2:
            return 0
        return 1 + self._odd_upto((x - 1) // 2 + 1)

    def count(self, lo: int, hi: int) -> int:
        """Primes p with lo <= p <= hi."""
        if hi < lo:
            return 0
        return self.pi(hi) - self.pi(max(lo - 1, 0))

    def nth(self, i: int) -> int:
        if i < 1:
            raise ValueError(f"prime index must be positive, got {i}")
        if i == 1:
            return 2
        want = i - 1  # the wanted prime is the want-th odd prime
        b = int(np.searchsorted(self._cum, want, side="left")) - 1
        if b + 1 >= len(self._cum):
            raise ValueError(f"prime #{i} lies beyond the reference limit {self.limit}")
        bits = np.unpackbits(self._bits[b * _BLOCK // 8 : (b + 1) * _BLOCK // 8])
        slot = b * _BLOCK + int(np.flatnonzero(bits)[want - int(self._cum[b]) - 1])
        return 2 * slot + 1
