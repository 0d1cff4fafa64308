"""The N = 1 specialization f(z) = z^d + c: an independent escape-rate
oracle, Mandelbrot membership, and exact PCF detection over Q.

The oracle iterates the critical orbit directly (no form calculus), which
is what makes it a genuine cross-check for the generic machinery: on P^1
the push-forward of a point divisor is the image point, so
Delta_f([0]) = lim log^+|f^k(0)|_v / d^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .divisors import (Divisor, Estimate, delta_estimate, delta_tail_bound,
                       unicritical_map)
from .places import INF, LocalLog, Place
from .rational import UsageError, vp

# mandelbrot_member gives up (undecided) once z has a numerator or
# denominator over this many bits
MEMBER_BIT_BUDGET = 1 << 14


@dataclass(frozen=True)
class UnicriticalMap:
    d: int
    c: Fraction

    def __post_init__(self):
        if self.d < 2:
            raise UsageError("need d >= 2")
        object.__setattr__(self, "c", Fraction(self.c))

    def to_map(self):
        """The corresponding MinCritMap with N = 1 (SL_1 forces A = (1))."""
        return unicritical_map(self.d, self.c)

    def escape_radius(self) -> Fraction:
        """Rational escape radius: once |z| > R the real orbit grows
        monotonically.  max(|c|, 2) dominates 2^(1/(d-1)) for every d >= 2,
        and the +1 keeps the criterion strict."""
        return max(abs(self.c), Fraction(2)) + 1


def escape_rate_oracle(m: UnicriticalMap, k: int, v: Place = INF) -> Estimate:
    """Truncated escape rate log^+|f^k(0)|_v / d^k by direct orbit
    iteration; error from the generic tail bound specialized to N = 1."""
    if k < 1:
        raise UsageError("need k >= 1")
    d = m.d
    if v.is_arch:
        z = mp.mpf(0)
        c = mp.mpf(m.c.numerator) / m.c.denominator
        for _ in range(k):
            z = z**d + c
        az = abs(z)
        lam = mp.log(az) if az > 1 else mp.mpf(0)
        value = LocalLog.arch(lam / mp.mpf(d) ** k)
    else:
        z = Fraction(0)
        for _ in range(k):
            z = z**d + m.c
        if z == 0:
            value = LocalLog.padic(v, Fraction(0))
        else:
            value = LocalLog.padic(v, Fraction(max(-vp(z, v.p), 0), d**k))
    err = delta_tail_bound(m.to_map(), 1, k, v)
    return Estimate(value=value, error=err, iterations_used=k, place=v,
                    mode="oracle")


@dataclass(frozen=True)
class MandelVerdict:
    verdict: str  # 'inside' | 'escaped' | 'undecided'
    step: int | None = None  # escape step, or step where the cycle closed
    cycle_length: int | None = None


def mandelbrot_member(m: UnicriticalMap, max_iter: int = 1000) -> MandelVerdict:
    """Exact membership test for the critical orbit of z^d + c, c rational.

    'inside' only on exact cycle detection, 'escaped' once |z| exceeds the
    escape radius; everything else is 'undecided'.  Non-integral bounded
    orbits square their denominators every step, so the iteration also
    stops (undecided) once coefficients outgrow MEMBER_BIT_BUDGET.
    """
    R = m.escape_radius()
    z = Fraction(0)
    seen = {z: 0}
    for step in range(1, max_iter + 1):
        z = z**m.d + m.c
        if abs(z) > R:
            return MandelVerdict("escaped", step=step)
        if z in seen:
            return MandelVerdict("inside", step=step,
                                 cycle_length=step - seen[z])
        if max(z.numerator.bit_length(),
               z.denominator.bit_length()) > MEMBER_BIT_BUDGET:
            return MandelVerdict("undecided", step=step)
        seen[z] = step
    return MandelVerdict("undecided")


@dataclass(frozen=True)
class PcfResult:
    pcf: bool
    reason: str
    orbit: tuple | None = None


def is_pcf(m: UnicriticalMap) -> PcfResult:
    """Exact, terminating PCF test over Q.

    Non-integral c has bad reduction at every prime of its denominator,
    where the critical orbit valuation diverges, so only integer c can be
    PCF, and the denominator is never factored; the integer orbit then
    either exceeds the escape radius or revisits a value (both within
    finitely many steps).
    """
    if m.c.denominator != 1:
        return PcfResult(False, "c is non-integral: bad reduction at the "
                                f"primes of {m.c.denominator}")
    c = m.c.numerator
    R = max(abs(c), 2) + 1
    z = 0
    orbit = [z]
    seen = {z}
    while True:
        z = z**m.d + c
        if abs(z) > R:
            return PcfResult(False, f"critical orbit escapes at step {len(orbit)}",
                             tuple(orbit))
        if z in seen:
            orbit.append(z)
            return PcfResult(True, "critical orbit cycles", tuple(orbit))
        orbit.append(z)
        seen.add(z)


def cross_check(m: UnicriticalMap, k: int, v: Place = INF,
                float_slack: float = 1e-9) -> dict:
    """Generic form-calculus Delta vs the direct orbit oracle.

    The two must agree within combined certified errors, and in fact agree
    to numerical precision (exactly, at p-adic places): both compute
    lambda_v of the same point divisor orbit.
    """
    f = m.to_map()
    generic = delta_estimate(f, Divisor.point(Fraction(0)), k, v)
    oracle = escape_rate_oracle(m, k, v)
    if v.is_arch:
        diff = abs(generic.value.to_mpf() - oracle.value.to_mpf())
        budget = generic.error.to_mpf() + oracle.error.to_mpf() + mp.mpf(float_slack)
        agree = diff <= budget
        exact_match = diff <= mp.mpf(float_slack)
    else:
        diff = abs((generic.value.r - oracle.value.r) * mp.log(v.p))
        agree = generic.value.r == oracle.value.r
        exact_match = agree
    return {
        "map": {"d": m.d, "c": str(m.c)},
        "place": repr(v),
        "k": k,
        "generic": generic,
        "oracle": oracle,
        "difference": float(diff),
        "agree": bool(agree),
        "exact_match": bool(exact_match),
    }
