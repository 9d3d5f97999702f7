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

from .errors import BudgetError, DomainError
from .sieve import (
    DEFAULT_BUDGET,
    Interval,
    PiTable,
    PrimeBasis,
    _checked_mul,
    count_primes,
    pi_at_points,
)

# Tolerance for snapping 1.1*ln(2.5k) to an integer before the ceiling.
_CEIL_GUARD = 1e-9


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
    observed_threshold: Optional[int]
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


def leg(n: int, basis: PrimeBasis, *, budget: int = DEFAULT_BUDGET) -> int:
    """Number of primes strictly between n^2 and (n+1)^2."""
    if n < 1:
        raise DomainError(f"leg expects a positive integer, got {n}")
    hi = _checked_mul(n + 1, n + 1)
    return count_primes(Interval.open(n * n, hi), basis, budget=budget)


def leg_many(ns: Iterable[int], *, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """leg over many n from one streaming sieve pass (cheaper than per-n calls)."""
    wanted = sorted({int(n) for n in ns})
    if not wanted:
        return {}
    if wanted[0] < 1:
        raise DomainError(f"leg expects positive integers, got {wanted[0]}")
    points: set[int] = set()
    for n in wanted:
        points.add(n * n)
        points.add(_checked_mul(n + 1, n + 1) - 1)
    counts = pi_at_points(points, budget=budget)
    return {n: counts[(n + 1) * (n + 1) - 1] - counts[n * n] for n in wanted}


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


def evaluate_leg(n: int, basis: PrimeBasis, *, budget: int = DEFAULT_BUDGET) -> LegEvaluation:
    """leg(n) with all bounds attached; needs n >= 5 for every bound to exist."""
    if n < 5:
        raise DomainError(f"evaluate_leg needs n >= 5, got {n}")
    value = leg(n, basis, budget=budget)
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


def interval_count(n: int, k: int, table: PiTable) -> int:
    """Exact count of primes p with n < p < kn (both ends open)."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    hi = _checked_mul(n, k)
    if hi - 1 > table.budget:
        raise BudgetError(f"k*n = {hi} exceeds the budget {table.budget}")
    return table.pi(hi - 1) - table.pi(n)


def closed_interval_count(n: int, k: int, table: PiTable) -> int:
    """Exact count of primes p with n <= p <= kn (both ends closed)."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    hi = _checked_mul(n, k)
    if hi > table.budget:
        raise BudgetError(f"k*n = {hi} exceeds the budget {table.budget}")
    return table.pi(hi) - table.pi(n - 1)


def bertrand_check(n: int, basis: PrimeBasis, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether [n, 2n) contains a prime (closed at n, unlike interval_count)."""
    if n < 2:
        raise DomainError(f"the postulate needs n >= 2, got {n}")
    iv = Interval(n, _checked_mul(2, n), lo_open=False, hi_open=True)
    return count_primes(iv, basis, budget=budget) >= 1


def nagura_check(n: int, basis: PrimeBasis, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether [n, floor(6n/5)] contains a prime; the cited result needs n > 25."""
    if n <= 25:
        raise DomainError(f"the 6n/5 result needs n > 25, got {n}")
    hi = _checked_mul(6, n) // 5
    return count_primes(Interval.closed(n, hi), basis, budget=budget) >= 1


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
    last_failing = 0
    for n in range(1, scan_limit + 1):
        if closed_interval_count(n, k, table) < k:
            last_failing = n
    return ThresholdResult(
        k=k,
        formula_a=formula_a,
        observed_threshold=max(1, last_failing + 1),
        last_failing_n=last_failing,
        scan_limit=scan_limit,
        conjecture_holds_on_scan=last_failing < formula_a,
    )


def brocard_count(i: int, table: PiTable) -> int:
    """Exact count of primes strictly between p_i^2 and p_{i+1}^2."""
    if i < 1:
        raise DomainError(f"prime index must be positive, got {i}")
    p = table.nth(i)
    q = table.nth(i + 1)
    q2 = _checked_mul(q, q)
    if q2 - 1 > table.budget:
        raise BudgetError(f"p_{i + 1}^2 = {q2} exceeds the budget {table.budget}")
    return table.pi(q2 - 1) - table.pi(p * p)


def brocard_decomposition(i: int, table: PiTable) -> tuple[int, int]:
    """Counts over (p_i^2, (p_i+1)^2) and ((p_{i+1}-1)^2, p_{i+1}^2).

    Needs i >= 2: the two-subinterval argument relies on consecutive odd
    primes, which excludes the pair (2, 3).
    """
    if i < 2:
        raise DomainError(f"the decomposition needs i >= 2, got {i}")
    p = table.nth(i)
    q = table.nth(i + 1)
    q2 = _checked_mul(q, q)
    if q2 - 1 > table.budget:
        raise BudgetError(f"p_{i + 1}^2 = {q2} exceeds the budget {table.budget}")
    first = table.pi((p + 1) * (p + 1) - 1) - table.pi(p * p)
    second = table.pi(q2 - 1) - table.pi((q - 1) * (q - 1))
    return first, second


def nth_prime_bound(n: int, table: PiTable) -> NthPrimeBound:
    """Solve for the tightest exponent in the 2^a (n-a) bound on the n-th prime.

    alpha is the least positive x with 2^x > 1.1 ln(2.5(n-x)); the bound
    uses a = alpha + 1. The actual n-th prime is attached when it lies
    within the table's budget.
    """
    if n < 3:
        raise DomainError(f"the bound solver needs n >= 3, got {n}")
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
        actual: Optional[int] = table.nth(n)
    except BudgetError:
        actual = None
    return NthPrimeBound(n=n, alpha=alpha, a=a, bound=bound, actual=actual)


def conj4_bound(n: int, k: int) -> float:
    """Conjectured upper bound kn/9 + k^2 on the count of primes in (n, kn)."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    _checked_mul(n, k)
    _checked_mul(k, k)
    return k * n / 9 + k * k


def conj4_crossover(k: int) -> float:
    """(9k^2 - 9)/(8k - 9): where kn/9 + k^2 drops below the interval size."""
    if 8 * k <= 9:
        raise DomainError(f"the crossover needs 8k > 9, got k = {k}")
    return (9 * k * k - 9) / (8 * k - 9)


def pnt_ratio(n: int, table: PiTable) -> float:
    """Count of primes in (n, 2n) divided by n/ln n."""
    if n < 2:
        raise DomainError(f"the ratio needs n >= 2, got {n}")
    return interval_count(n, 2, table) / (n / math.log(n))
