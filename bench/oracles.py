"""Oracles for the benchmark, written apart from the relesc package.

Nothing here imports relesc.  Each oracle is either a computation done a
different way from the program's, or a property every correct answer has:

- ``check_pushforward_step``: the push-forward identity
  ``G(L x^d) = s * prod_{zeta in mu_d^N} F(zeta x)`` at random points modulo
  a 61-bit prime, with our own d-th roots of unity in F_p;
- ``green_arch`` / ``green_padic``: the escape rate of the critical orbit of
  ``z^d + c``, from the orbit itself (archimedean, in mpmath) or from the
  valuation of ``c`` (p-adic);
- ``product_delta`` / ``global_product_height``: for ``A = I`` the map is a
  product of unicritical maps, so ``Delta(C_f) = (d-1) * sum_i G_{b_i}`` at
  each place, and the global height is that sum over the primes of the
  denominators (given, never factored);
- ``lambda_of_form``: lambda of a primitive integer form read off its
  coefficients, for the truncation ``lambda(f_*^k D) / d^(kN)``;
- ``RATIONAL_PCF``: the rational post-critically finite parameters of
  ``z^d + c``;
- ``contains`` / ``preperiodic_zero``: interval containment.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd

import mpmath as mp

# 2^61 - 1 is prime and 6 divides 2^61 - 2, so F_P holds the square and
# cube roots of unity that d = 2 and d = 3 need.
P61 = (1 << 61) - 1

# working precision of the archimedean oracles, in decimal digits
DPS = 50


class OracleMismatch(AssertionError):
    """A program output disagrees with an oracle."""


# ---------------------------------------------------------------------------
# the push-forward identity modulo a prime
# ---------------------------------------------------------------------------

def _prime_divisors_small(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def primitive_root_of_unity(d: int, P: int = P61) -> int:
    """An element of exact multiplicative order d in F_P."""
    if (P - 1) % d:
        raise ValueError(f"{P} is not 1 mod {d}")
    for g in range(2, 10_000):
        w = pow(g, (P - 1) // d, P)
        if all(pow(w, d // r, P) != 1 for r in _prime_divisors_small(d)):
            return w
    raise ValueError(f"no root of unity of order {d} found mod {P}")


def _mod(c, P: int) -> int:
    c = Fraction(c)
    return c.numerator % P * pow(c.denominator % P, -1, P) % P


def eval_mod(terms: dict, x: list[int], P: int = P61) -> int:
    """Value of the polynomial {exponents: coefficient} at x, in F_P."""
    total = 0
    for exps, c in terms.items():
        t = _mod(c, P)
        for xi, e in zip(x, exps):
            if e:
                t = t * pow(xi, e, P) % P
        total += t
    return total % P


def check_pushforward_step(F: dict, G: dict, L, d: int, rng: random.Random,
                           points: int = 3, P: int = P61) -> None:
    """Raise OracleMismatch unless G is, up to one nonzero constant, the
    push-forward of F under x -> L x^d.

    F and G map exponent tuples of length n = N + 1 to rational (or
    integer) coefficients; L is the n x n matrix of the map's linear part,
    last coordinate homogenising.  The identity is tested at ``points``
    random points of F_P^n: the ratio G(L x^d) / prod_zeta F(zeta x) must be
    the same nonzero value at each.
    """
    n = len(L)
    N = n - 1
    degF = {sum(e) for e in F}
    degG = {sum(e) for e in G}
    if len(degF) != 1 or len(degG) != 1:
        raise OracleMismatch("forms are not homogeneous")
    if degG.pop() != degF.pop() * d ** (N - 1):
        raise OracleMismatch("push-forward has the wrong degree")
    w = primitive_root_of_unity(d, P)
    roots = [pow(w, j, P) for j in range(d)]
    Lm = [[_mod(x, P) for x in row] for row in L]
    ratio = None
    tried = 0
    while points and tried < 50:
        tried += 1
        x = [rng.randrange(1, P) for _ in range(n)]
        rhs = 1
        for zeta in product(roots, repeat=N):
            rhs = rhs * eval_mod(F, [z * xi % P for z, xi in zip(zeta, x)] + [x[N]], P) % P
        if rhs == 0:
            continue
        xd = [pow(xi, d, P) for xi in x]
        y = [sum(Lm[i][j] * xd[j] for j in range(n)) % P for i in range(n)]
        r = eval_mod(G, y, P) * pow(rhs, -1, P) % P
        if r == 0:
            raise OracleMismatch("G vanishes where the product does not")
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise OracleMismatch("push-forward identity fails modulo 2^61-1")
        points -= 1
    if points:
        raise OracleMismatch("no usable evaluation points")


def is_primitive_integer(G: dict) -> bool:
    """Integer coefficients with content 1 (the program's divisor model)."""
    g = 0
    for c in G.values():
        c = Fraction(c)
        if c.denominator != 1:
            return False
        g = gcd(g, c.numerator)
    return g == 1


# ---------------------------------------------------------------------------
# lambda of a form, read off its coefficients
# ---------------------------------------------------------------------------

def _vp(n: int, p: int) -> int:
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def lambda_of_form(G: dict, p: int | None):
    """lambda_v = log||G||_v - log||G restricted to X_{N+1} = 0||_v for a
    form with integer coefficients.  Returns an mpf at infinity and the
    exact Fraction r of r * log p at the prime p."""
    coeffs = [int(c) for c in G.values()]
    bottom = [int(c) for e, c in G.items() if e[-1] == 0]
    if not bottom:
        raise OracleMismatch("form contains the hyperplane at infinity")
    if p is None:
        with mp.workdps(DPS):
            return +(mp.log(mp.mpf(max(abs(c) for c in coeffs)))
                     - mp.log(mp.mpf(max(abs(c) for c in bottom))))
    return Fraction(min(_vp(c, p) for c in bottom) - min(_vp(c, p) for c in coeffs))


# ---------------------------------------------------------------------------
# escape rates of unicritical critical orbits
# ---------------------------------------------------------------------------

def green_arch(c, d: int, max_iter: int = 3000):
    """G_c = lim d^-n log^+ |f^n(0)| for f(z) = z^d + c, by the orbit.

    Iterates until |z| passes 10^40 (then the remaining correction is below
    d^-n * 10^-39) or max_iter steps (a bounded orbit: G_c = 0 up to
    d^-max_iter * log 2)."""
    c = Fraction(c)
    with mp.workdps(DPS):
        cc = mp.mpf(c.numerator) / c.denominator
        z = mp.mpf(0)
        big = mp.mpf(10) ** 40
        for n in range(1, max_iter + 1):
            z = z ** d + cc
            if abs(z) > big:
                return +(mp.log(abs(z)) / mp.mpf(d) ** n)
    return mp.mpf(0)


def green_padic(c, d: int, p: int) -> Fraction:
    """G_c at p as a multiple of log p: max(0, -v_p(c)) / d."""
    c = Fraction(c)
    if c == 0:
        return Fraction(0)
    v = _vp(c.numerator, p) - _vp(c.denominator, p)
    return Fraction(max(0, -v), d)


def product_delta(b, d: int, p: int | None):
    """Delta(C_f) at one place for f(X) = X^d + b (A = I): (d-1) sum_i G_{b_i}.
    An mpf at infinity, a Fraction multiple of log p at p."""
    if p is None:
        return (d - 1) * sum((green_arch(bi, d) for bi in b), mp.mpf(0))
    return (d - 1) * sum((green_padic(bi, d, p) for bi in b), Fraction(0))


def global_product_height(b, d: int, primes) -> mp.mpf:
    """Relative critical height of X^d + b (A = I, any N >= 1): the sum of
    product_delta over infinity and the given primes.

    ``primes`` must be every prime of the denominators of b; this is
    checked by dividing them out, so a forgotten prime raises rather than
    shrinking the sum."""
    for bi in b:
        den = Fraction(bi).denominator
        for p in primes:
            while den % p == 0:
                den //= p
        if den != 1:
            raise ValueError(f"place list misses a prime of {bi}")
    total = product_delta(b, d, None)
    for p in primes:
        total += as_mpf(product_delta(b, d, p)) * mp.log(p)
    return total


def as_mpf(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

# Rational c for which 0 has a finite orbit under z^d + c.  A non-integral
# c has an escaping orbit at a prime of its denominator; an integral c with
# |c| > 2 escapes at infinity, and the remaining integers are checked by
# hand: z^2 - 1 and z^2 - 2 cycle, z^3 + c and z^4 + c escape unless
# c = 0 (or c = -1 for d = 4).
RATIONAL_PCF = {2: (0, -1, -2), 3: (0,), 4: (0, -1)}


def pcf_expected(d: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    return sorted(Fraction(c) for c in RATIONAL_PCF[d] if lo <= c <= hi)


def contains(value, error, truth, slack=mp.mpf("1e-30")) -> bool:
    """truth lies in [value - error, value + error] (with arithmetic slack)."""
    return abs(mp.mpf(value) - mp.mpf(truth)) <= mp.mpf(error) + slack


def preperiodic_zero(value, error) -> bool:
    """A preperiodic critical orbit has height 0, so |value| <= error."""
    return contains(value, error, 0)
