"""Small exact-arithmetic helpers shared across the package.

Everything here is plain integer/Fraction bookkeeping: p-adic valuations,
prime enumeration, certified primality and bounded factoring, content and
lcm of coefficient collections, and parsing of the "p/q" strings used in
the JSON interfaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable


class UsageError(ValueError):
    """Raised when an operation is called outside its contract."""


class DomainError(ValueError):
    """Raised when a mathematically defined operation is fed an input
    outside the domain of the quantity it computes (e.g. mu of a divisor
    through the origin)."""


class InternalError(RuntimeError):
    """An exactness assertion failed; this signals a bug, not bad input."""


class BitBudgetError(RuntimeError):
    """A computation would outgrow its budget: the bits of an exact
    iterate, or the memory of a float step."""


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer.

    The towers p^(2^i) are built only while their square stays at or below
    |n|, so v < 2^len(towers); one descent, one divmod a level, then reads
    off the binary digits of v."""
    if n == 0:
        raise ValueError("valuation of 0 is +infinity")
    n = abs(n)
    if n % p:
        return 0
    towers = [p]
    while True:
        sq = towers[-1] * towers[-1]
        if sq > n:
            break
        towers.append(sq)
    v = 0
    for i in range(len(towers) - 1, -1, -1):
        q, r = divmod(n, towers[i])
        if not r:
            n = q
            v += 1 << i
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


# The first 13 primes.  No composite below PRIME_CERT_BOUND is a strong
# pseudoprime to all of them (Sorenson-Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017), so Miller-Rabin on these bases
# decides primality there.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CERT_BOUND = 3317044064679887385961981
# Brent-rho iterations one factorization may spend splitting cofactors;
# about sqrt(q) of them find a prime factor q, so q up to ~2^38 is found
RHO_BUDGET = 1 << 20


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base in SMALL_PRIMES (n odd, n > 41).  False
    is a proof that n is composite; True is only evidence above
    PRIME_CERT_BOUND."""
    r = ((n - 1) & (1 - n)).bit_length() - 1
    m = (n - 1) >> r
    for a in SMALL_PRIMES:
        x = pow(a, m, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Certified primality test.

    Exact below PRIME_CERT_BOUND (about 3.3e24, 81 bits); above it a
    compositeness witness still proves n composite, and a strong probable
    prime to every base raises BitBudgetError, since no proof is at hand."""
    if n < 2:
        return False
    for q in SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if not _strong_probable_prime(n):
        return False
    if n < PRIME_CERT_BOUND:
        return True
    raise BitBudgetError(
        f"cannot certify that the {n.bit_length()}-bit {n} is prime "
        f"(deterministic Miller-Rabin stops at {PRIME_CERT_BOUND})")


def _brent_rho(n: int, budget: int) -> tuple[int | None, int]:
    """A proper divisor of the odd composite n by Brent's variant of Pollard
    rho (Brent, BIT 1980), and the iterations spent; the divisor is None
    when the next run of iterations would exceed budget.  The start point
    and the constants c = 1, 2, ... are fixed, so the run is deterministic."""
    batch = 128
    spent = 0
    for c in range(1, budget + 1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if spent + 2 * r > budget:
                return None, spent
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            spent += 2 * r
            r *= 2
        if g == n:
            # the batch's product reached 0 mod n: retrace it (at most
            # batch steps) one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g < n:
            return g, spent
    return None, spent


def factorization(n: int) -> list[int]:
    """The prime divisors of |n| with multiplicity, ascending (n nonzero).

    Divides out SMALL_PRIMES, certifies each cofactor with is_prime and
    splits the composite ones with Brent rho, RHO_BUDGET iterations in all.
    A cofactor that can be neither certified nor split within the budget
    raises BitBudgetError, so the call ends in bounded time."""
    n = abs(n)
    if n == 0:
        raise ValueError("factorization(0)")
    out = []
    for q in SMALL_PRIMES:
        while n % q == 0:
            out.append(q)
            n //= q
    budget = RHO_BUDGET
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.append(m)
            continue
        g, spent = _brent_rho(m, budget)
        if g is None:
            raise BitBudgetError(
                f"cannot split the {m.bit_length()}-bit composite {m} within "
                f"{RHO_BUDGET} rho iterations")
        budget -= spent
        stack += [g, m // g]
    return sorted(out)


def prime_factors(n: int) -> set[int]:
    """Set of prime divisors of |n| (n nonzero); see factorization."""
    return set(factorization(n))


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
