"""Small exact-arithmetic helpers shared across the package.

Everything here is plain integer/Fraction bookkeeping: p-adic valuations,
prime enumeration, content and lcm of coefficient collections, and parsing
of the "p/q" strings used in the JSON interfaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Iterator


class UsageError(ValueError):
    """Raised when an operation is called outside its contract."""


class DomainError(ValueError):
    """Raised when a mathematically defined operation is fed an input
    outside the domain of the quantity it computes (e.g. mu of a divisor
    through the origin)."""


class InternalError(RuntimeError):
    """An exactness assertion failed; this signals a bug, not bad input."""


class BitBudgetError(RuntimeError):
    """A computation would outgrow its budget: exact-mode coefficient bits,
    or the memory of a scaled-mode step."""


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer (binary-lifted: O(log v)
    big divisions instead of v of them)."""
    if n == 0:
        raise ValueError("valuation of 0 is +infinity")
    n = abs(n)
    if n % p:
        return 0
    towers = [p]
    while n % (towers[-1] * towers[-1]) == 0:
        towers.append(towers[-1] * towers[-1])
    v = 0
    step = 1 << (len(towers) - 1)
    for q in reversed(towers):
        if n % q == 0:
            n //= q
            v += step
        step >>= 1
    return v


def vp(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of 0 is +infinity")
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def primes_upto(bound: int) -> list[int]:
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def trial_division(n: int) -> Iterator[int]:
    """The prime divisors of |n| with multiplicity, ascending (n nonzero).

    Lazy, so a caller that only needs the smallest one stops there."""
    n = abs(n)
    if n == 0:
        raise ValueError("trial_division(0)")
    q = 2
    while q * q <= n:
        while n % q == 0:
            yield q
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        yield n


def prime_factors(n: int) -> set[int]:
    """Set of prime divisors of |n| (n nonzero)."""
    return set(trial_division(n))


def support_primes(xs: Iterable[Fraction]) -> set[int]:
    """Primes appearing in a numerator or denominator of any of xs."""
    out: set[int] = set()
    for x in xs:
        if x == 0:
            continue
        if x.numerator not in (1, -1):
            out |= prime_factors(x.numerator)
        if x.denominator != 1:
            out |= prime_factors(x.denominator)
    return out


def content(xs: Iterable[int]) -> int:
    """gcd of a collection of integers (0 for empty/all-zero)."""
    g = 0
    for x in xs:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def lcm_denominators(xs: Iterable[Fraction]) -> int:
    m = 1
    for x in xs:
        d = x.denominator
        m = m * d // gcd(m, d)
    return m


def det_exact(m) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    if any(len(row) != n for row in a):
        raise UsageError("matrix is not square")
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def matrix_inverse_exact(m) -> list[list[Fraction]]:
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise UsageError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def parse_rational(s) -> Fraction:
    """Parse the JSON wire format for rationals: "p/q", "p", or an int."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational literal {s!r}") from exc
    raise UsageError(f"bad rational literal {s!r} (floats are not accepted)")


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))
