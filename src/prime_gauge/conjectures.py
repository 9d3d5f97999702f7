"""Interval prime-count quantities and the bounds conjectured for them.

Covers leg(n) with its three bounds, counts between n and kn with the
threshold formula and empirical threshold search, counts between squares
of consecutive primes, the n-th-prime upper bound solver, the kn/9 + k^2
bound with its crossover point, and a prime-number-theorem diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import BudgetError, DomainError, RangeOverflowError
from .sieve import (
    DEFAULT_BUDGET,
    INT64_MAX,
    Interval,
    PiTable,
    PrimeBasis,
    _check_basis_limit,
    _checked_mul,
    _count_spans,
    _dusart_floor,
    build_basis,
    count_primes,
)

# Tolerance for snapping 1.1*ln(2.5k) to an integer before the ceiling.
_CEIL_GUARD = 1e-9
_SCAN_CHUNK = 1 << 16  # threshold_search counts this many n per batched pi query
# nagura_check's first span from n; each next one is twice as long. Every prime gap
# below 2^64 is at most 1550 (Oliveira e Silva, Herzog and Pardi 2014), so one span
# decides every n the sieve can reach.
_NAGURA_SPAN = 1 << 11


@dataclass(frozen=True)
class LegEvaluation:
    """leg(n) together with its three bounds and the derived verdicts."""

    n: int
    leg: int
    rosser_ub: float
    conj_lb: float
    conj_ub: float
    satisfies_legendre: bool
    satisfies_improved: bool
    within_conj_bounds: bool


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of scanning one k for the k-1 primes-in-(n, kn) threshold."""

    k: int
    formula_a: int
    observed_threshold: int
    last_failing_n: int
    scan_limit: int
    conjecture_holds_on_scan: bool


@dataclass(frozen=True)
class NthPrimeBound:
    """The 2^a (n-a) upper bound on the n-th prime, with the solved exponent."""

    n: int
    alpha: int
    a: int
    bound: int
    actual: Optional[int]
    unverified: str = ""  # when actual is None, the error of the limit that refused p_n


def _basis_for(b: int, budget: int) -> PrimeBasis:
    """The base primes for an interval that ends at b, built once b fits the budget."""
    if b > budget:
        raise BudgetError(f"interval end {b} exceeds the sieve budget {budget}")
    return build_basis(max(2, math.isqrt(b) + 1))


def _count(a: int, b: int, budget: int) -> int:
    """Primes in [a, b], for 0 <= a <= b, with base primes built for b once b fits the budget."""
    return count_primes(Interval.closed(a, b), _basis_for(b, budget), budget=budget)


def leg(n: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Number of primes strictly between n^2 and (n+1)^2."""
    if n < 1:
        raise DomainError(f"leg expects a positive integer, got {n}")
    return _count(n * n + 1, _checked_mul(n + 1, n + 1) - 1, budget)


def leg_range_top(first: int, last: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """(last + 1)^2 - 1, the largest integer leg(n) sieves for first <= n <= last.

    It is refused as `leg_many` refuses it: an n below 1, or a top past the
    budget or past int64, or one whose base primes, up to isqrt(top) + 1,
    would pass the basis cap. This costs nothing, so a scan can be refused
    before anything is built for it.
    """
    if first < 1:
        raise DomainError(f"leg expects a positive integer, got {first}")
    top = (last + 1) ** 2 - 1
    if top > budget:
        raise BudgetError(f"interval end {top} exceeds the sieve budget {budget}")
    _checked_mul(last + 1, last + 1)
    _check_basis_limit(math.isqrt(top) + 1)
    return top


def leg_many(ns: Iterable[int], *, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """leg over many n, sieving only the integers strictly between their squares."""
    wanted = sorted({int(n) for n in ns})
    if not wanted:
        return {}
    top = leg_range_top(wanted[0], wanted[-1], budget=budget)
    basis = build_basis(max(2, math.isqrt(top) + 1))
    n = np.array(wanted, dtype=np.int64)  # leg_range_top kept (n + 1)^2 within int64
    counts = _count_spans(np.stack((n * n + 1, (n + 1) * (n + 1) - 1), axis=1), basis.primes)
    return dict(zip(wanted, counts))


def rosser_ub_leg(n: int) -> float:
    """Upper bound (n^2+10n+5)/(8 ln n) on leg(n); valid from n = 5."""
    if n < 5:
        raise DomainError(f"the derived upper bound needs n >= 5, got {n}")
    return (n * n + 10 * n + 5) / (8 * math.log(n))


def conj_bounds_leg(n: int) -> tuple[float, float]:
    """Conjectured (lower, upper) bounds on leg(n); lower needs ln n > 0."""
    if n < 2:
        raise DomainError(f"the conjectured bounds need n >= 2, got {n}")
    q = n * n + 10 * n + 5
    return q / (3 * n * math.log(n)), q / (3 * n)


def evaluate_leg(n: int, *, budget: int = DEFAULT_BUDGET) -> LegEvaluation:
    """leg(n) with all bounds attached; needs n >= 5 for every bound to exist."""
    if n < 5:
        raise DomainError(f"evaluate_leg needs n >= 5, got {n}")
    value = leg(n, budget=budget)
    lb, ub = conj_bounds_leg(n)
    return LegEvaluation(
        n=n,
        leg=value,
        rosser_ub=rosser_ub_leg(n),
        conj_lb=lb,
        conj_ub=ub,
        satisfies_legendre=value >= 1,
        satisfies_improved=value >= 2,
        within_conj_bounds=lb <= value <= ub,
    )


def rosser_check(n: int, table: PiTable) -> bool:
    """Whether n/ln n <= pi(n) <= 1.25 n/ln n; valid for n > 17."""
    if n <= 17:
        raise DomainError(f"the pi(n) bounds need n > 17, got {n}")
    count = table.pi(n)
    base = n / math.log(n)
    return base <= count <= 1.25 * base


def _interval_top(n: int, k: int) -> int:
    """kn, for n >= 1 and k >= 2, refused past int64."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return _checked_mul(n, k)


def _interval_pi(n: int, k: int, table: PiTable, closed: bool) -> int:
    """Exact count of primes in [n, kn] if `closed`, else in (n, kn): pi(b) - pi(a - 1)."""
    hi = _interval_top(n, k)
    a, b = (n, hi) if closed else (n + 1, hi - 1)
    if b > table.budget:
        raise BudgetError(f"k*n = {hi} exceeds the budget {table.budget}")
    table._ensure(b)  # both ends from one plain table: a window at b would not hold a - 1
    return table.pi(b) - table.pi(a - 1)


def interval_count(n: int, k: int, table: PiTable) -> int:
    """Exact count of primes p with n < p < kn (both ends open)."""
    return _interval_pi(n, k, table, closed=False)


def closed_interval_count(n: int, k: int, table: PiTable) -> int:
    """Exact count of primes p with n <= p <= kn (both ends closed)."""
    return _interval_pi(n, k, table, closed=True)


def _bertrand_count(n: int, budget: int) -> int:
    """Primes in [n, 2n), the count `bertrand_check` tests and the `bertrand` rule records."""
    if n < 2:
        # Below 2 the postulate does not apply, so an empty [n, 2n) is no violation.
        raise DomainError(f"the postulate needs n >= 2, got {n}")
    return _count(n, _checked_mul(2, n) - 1, budget)


def bertrand_check(n: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether [n, 2n) contains a prime (closed at n, unlike interval_count)."""
    return _bertrand_count(n, budget) >= 1


def nagura_check(n: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether [n, floor(6n/5)] contains a prime; the cited result needs n > 25.

    A 6n/5 past the budget is refused before anything is allocated. The
    base primes are built for 6n/5, and then spans from n upward, the
    first _NAGURA_SPAN integers long and each next one twice as long as
    the one before, are counted until one holds a prime or 6n/5 is passed.
    """
    if n <= 25:
        raise DomainError(f"the 6n/5 result needs n > 25, got {n}")
    b = _checked_mul(6, n) // 5
    primes = _basis_for(b, budget).primes
    lo, width = n, _NAGURA_SPAN
    while lo <= b:
        hi = min(lo + width - 1, b)
        if _count_spans([(lo, hi)], primes)[0]:
            return True
        lo, width = hi + 1, 2 * width
    return False


def threshold_formula(k: int) -> int:
    """ceil(1.1 ln(2.5k)), snapping near-integer values before the ceiling."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    v = 1.1 * math.log(2.5 * k)
    nearest = round(v)
    if abs(v - nearest) < _CEIL_GUARD:
        return int(nearest)
    return math.ceil(v)


def threshold_search(k: int, scan_limit: int, table: PiTable) -> ThresholdResult:
    """Scan n = 1..scan_limit for the threshold of the k-primes-by-kn property.

    A point n fails when the closed interval [n, kn] holds fewer than k
    primes. This endpoint-inclusive predicate is the one that reproduces
    every published threshold; it is at least as strict as asking for k-1
    primes strictly inside (n, kn), so the reported threshold is valid for
    the open-interval reading as well.

    The table grows to k * scan_limit first, sieved from 0 as its batched
    queries need, with no window for a first large pi, so a scan beyond its
    cap is refused before any sieving. The scan then takes the n in chunks of 2^16
    and counts each chunk's intervals with two batched pi queries,
    pi(kn) - pi(n - 1). Beyond the table's packed bits it holds a few int64
    arrays of one chunk's points and the cumulative bit counts of one
    block's 512 words, 4 KB.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if scan_limit < 1:
        raise DomainError(f"scan limit must be positive, got {scan_limit}")
    if _checked_mul(k, scan_limit) > table.budget:
        raise BudgetError(
            f"k * scan_limit = {k * scan_limit} exceeds the budget {table.budget}"
        )
    formula_a = threshold_formula(k)
    table._ensure(k * scan_limit)
    last_failing = 0
    for lo in range(1, scan_limit + 1, _SCAN_CHUNK):
        ns = np.arange(lo, min(lo + _SCAN_CHUNK, scan_limit + 1), dtype=np.int64)
        failing = np.flatnonzero(table._pi_many(k * ns) - table._pi_many(ns - 1) < k)
        if len(failing):
            last_failing = lo + int(failing[-1])
    return ThresholdResult(
        k=k,
        formula_a=formula_a,
        observed_threshold=max(1, last_failing + 1),
        last_failing_n=last_failing,
        scan_limit=scan_limit,
        conjecture_holds_on_scan=last_failing < formula_a,
    )


def _consecutive_primes(i: int, table: PiTable) -> tuple[int, int]:
    """p_i and p_{i+1}, once p_{i+1}^2 - 1, the largest integer counted, fits the budget.

    The square of a lower bound on p_{i+1} rejects a far index before any sieving.
    """
    low = max(0.0, _dusart_floor(i + 1))
    if low * low - 1 > table.budget:
        raise BudgetError(f"p_{i + 1}^2 exceeds the budget {table.budget}")
    p = table.nth(i)
    q = table.nth(i + 1)
    q2 = _checked_mul(q, q)
    if q2 - 1 > table.budget:
        raise BudgetError(f"p_{i + 1}^2 = {q2} exceeds the budget {table.budget}")
    return p, q


def brocard_count(i: int, table: PiTable) -> int:
    """Exact count of primes strictly between p_i^2 and p_{i+1}^2."""
    if i < 1:
        raise DomainError(f"prime index must be positive, got {i}")
    p, q = _consecutive_primes(i, table)
    return table.pi(q * q - 1) - table.pi(p * p)


def brocard_decomposition(i: int, table: PiTable) -> tuple[int, int]:
    """Counts over (p_i^2, (p_i+1)^2) and ((p_{i+1}-1)^2, p_{i+1}^2).

    Needs i >= 2: the two-subinterval argument relies on consecutive odd
    primes, which excludes the pair (2, 3).
    """
    if i < 2:
        raise DomainError(f"the decomposition needs i >= 2, got {i}")
    p, q = _consecutive_primes(i, table)
    first = table.pi((p + 1) * (p + 1) - 1) - table.pi(p * p)
    second = table.pi(q * q - 1) - table.pi((q - 1) * (q - 1))
    return first, second


def nth_prime_bound(n: int, table: PiTable) -> NthPrimeBound:
    """Solve for the tightest exponent in the 2^a (n-a) bound on the n-th prime.

    alpha is the least positive x with 2^x > 1.1 ln(2.5(n-x)); the bound
    uses a = alpha + 1. The actual n-th prime is attached when the table
    can reach it; otherwise `unverified` says which limit refused it.
    """
    if n < 3:
        raise DomainError(f"the bound solver needs n >= 3, got {n}")
    if n > INT64_MAX:
        # The bound exceeds n, and the float solver below would overflow first.
        raise RangeOverflowError(f"{n} exceeds the supported 64-bit range")
    alpha = None
    x = 1
    while n - x >= 1:
        if (1 << x) > 1.1 * math.log(2.5 * (n - x)):
            alpha = x
            break
        x += 1
    if alpha is None:
        raise DomainError(f"no exponent with n - x >= 1 satisfies the inequality for n = {n}")
    a = alpha + 1
    if n - a < 1:
        raise DomainError(f"resulting exponent a = {a} leaves no room at n = {n}")
    bound = _checked_mul(1 << a, n - a)
    try:
        actual = table.nth(n)
    except BudgetError as exc:
        return NthPrimeBound(n=n, alpha=alpha, a=a, bound=bound, actual=None, unverified=str(exc))
    return NthPrimeBound(n=n, alpha=alpha, a=a, bound=bound, actual=actual)


def conj4_bound(n: int, k: int) -> float:
    """Conjectured upper bound kn/9 + k^2 on the count of primes in (n, kn)."""
    _interval_top(n, k)
    _checked_mul(k, k)
    return k * n / 9 + k * k


def conj4_crossover(k: int) -> float:
    """(9k^2 - 9)/(8k - 9): where kn/9 + k^2 drops below the interval size."""
    if 8 * k <= 9:
        raise DomainError(f"the crossover needs 8k > 9, got k = {k}")
    try:
        return (9 * k * k - 9) / (8 * k - 9)
    except OverflowError:
        raise RangeOverflowError(f"the crossover for k = {k} exceeds the float range") from None


def pnt_ratio(n: int, table: PiTable) -> float:
    """Count of primes in (n, 2n) divided by n/ln n."""
    if n < 2:
        raise DomainError(f"the ratio needs n >= 2, got {n}")
    return interval_count(n, 2, table) / (n / math.log(n))
