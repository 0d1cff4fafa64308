"""Places of Q, local log-values, Gauss norms, and the per-place constants.

A LocalLog is the logarithm of an absolute value: at a p-adic place it is
stored as an exact rational multiple of log p, so every non-archimedean
comparison in the lemma checks is an exact comparison of Fractions; at the
archimedean place it is an mpmath real at the working precision (50
significant digits by default, overridable via RELESC_PRECISION).

The conventions log 0 = -inf, -inf < x < +inf, and inf + x = inf are
implemented directly.  Arithmetic between LocalLogs of different places is
a usage error: local quantities are only ever combined within one place,
and the global layer converts to plain reals before summing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

from .forms import HomogeneousForm
from .rational import (UsageError, det_exact, is_prime, matrix_inverse_exact,
                       vp, vp_int)

MIN_DPS = 50


def _init_precision() -> None:
    dps = MIN_DPS
    env = os.environ.get("RELESC_PRECISION")
    if env:
        try:
            dps = max(MIN_DPS, int(env))
        except ValueError:
            pass
    mp.mp.dps = max(mp.mp.dps, dps)


_init_precision()

# comparison slack for archimedean equality assertions; inputs are logs of
# exact rationals evaluated at >= 50 digits, so 1e-30 dominates the rounding
ARCH_SLACK = mp.mpf("1e-30")


def set_precision(dps: int) -> None:
    mp.mp.dps = max(MIN_DPS, int(dps))


@dataclass(frozen=True)
class Place:
    """A place of Q: archimedean (p is None) or the p-adic place."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not is_prime(self.p):
                raise UsageError(f"{self.p} is not prime")

    @property
    def is_arch(self) -> bool:
        return self.p is None

    def __repr__(self):
        return "inf" if self.is_arch else str(self.p)

    @staticmethod
    def parse(token: str) -> "Place":
        token = str(token).strip().lower()
        if token in ("inf", "infinity", "oo", "arch"):
            return Place()
        try:
            return Place(int(token))
        except ValueError as exc:
            raise UsageError(f"bad place token {token!r}") from exc


INF = Place()


class LocalLog:
    """log|x|_v with the usual infinity conventions.

    kind is 'fin', 'neg', or 'pos'.  For finite values at a p-adic place
    the payload is the exact Fraction r with value r*log(p); at the
    archimedean place it is an mpf.
    """

    __slots__ = ("place", "kind", "r", "x")

    def __init__(self, place: Place, kind: str, r: Fraction | None = None,
                 x=None):
        self.place = place
        self.kind = kind
        self.r = r
        self.x = x

    # -- constructors --------------------------------------------------------

    @staticmethod
    def arch(value) -> "LocalLog":
        return LocalLog(INF, "fin", x=mp.mpf(value) if not isinstance(value, mp.mpf) else value)

    @staticmethod
    def padic(place: Place, r: Fraction) -> "LocalLog":
        if place.is_arch:
            raise UsageError("padic value at the archimedean place")
        return LocalLog(place, "fin", r=Fraction(r))

    @staticmethod
    def zero(place: Place) -> "LocalLog":
        if place.is_arch:
            return LocalLog.arch(mp.mpf(0))
        return LocalLog.padic(place, Fraction(0))

    @staticmethod
    def neg_inf(place: Place) -> "LocalLog":
        return LocalLog(place, "neg")

    @staticmethod
    def pos_inf(place: Place) -> "LocalLog":
        return LocalLog(place, "pos")

    # -- queries ---------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind == "fin"

    def to_mpf(self):
        if self.kind == "neg":
            return mp.mpf("-inf")
        if self.kind == "pos":
            return mp.mpf("+inf")
        if self.place.is_arch:
            return self.x
        return self.r * mp.log(self.place.p)

    def to_float(self) -> float:
        return float(self.to_mpf())

    def __repr__(self):
        if self.kind == "neg":
            return f"LocalLog(-inf @ {self.place})"
        if self.kind == "pos":
            return f"LocalLog(+inf @ {self.place})"
        if self.place.is_arch:
            return f"LocalLog({mp.nstr(self.x, 12)} @ inf)"
        return f"LocalLog({self.r}*log{self.place.p})"

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "LocalLog") -> None:
        if self.place != other.place:
            raise UsageError(
                f"mixed-place arithmetic: {self.place} vs {other.place}")

    def __add__(self, other: "LocalLog") -> "LocalLog":
        self._check(other)
        kinds = {self.kind, other.kind}
        if kinds == {"pos", "neg"}:
            raise UsageError("inf + (-inf) is undefined")
        if "pos" in kinds:
            return LocalLog.pos_inf(self.place)
        if "neg" in kinds:
            return LocalLog.neg_inf(self.place)
        if self.place.is_arch:
            return LocalLog.arch(self.x + other.x)
        return LocalLog.padic(self.place, self.r + other.r)

    def __neg__(self) -> "LocalLog":
        if self.kind == "neg":
            return LocalLog.pos_inf(self.place)
        if self.kind == "pos":
            return LocalLog.neg_inf(self.place)
        if self.place.is_arch:
            return LocalLog.arch(-self.x)
        return LocalLog.padic(self.place, -self.r)

    def __sub__(self, other: "LocalLog") -> "LocalLog":
        return self + (-other)

    def scaled(self, q) -> "LocalLog":
        """Multiply by an exact scalar q (Fraction or int), q != 0 for
        infinite values."""
        q = Fraction(q)
        if self.kind != "fin":
            if q == 0:
                raise UsageError("0 * infinity is undefined")
            flip = q < 0
            if self.kind == "pos":
                return LocalLog.neg_inf(self.place) if flip else self
            return LocalLog.pos_inf(self.place) if flip else self
        if self.place.is_arch:
            return LocalLog.arch(self.x * mp.mpf(q.numerator) / q.denominator)
        return LocalLog.padic(self.place, self.r * q)

    def log_plus(self) -> "LocalLog":
        """max(value, 0)."""
        zero = LocalLog.zero(self.place)
        return self if self.cmp(zero) >= 0 else zero

    def cmp(self, other: "LocalLog") -> int:
        self._check(other)
        order = {"neg": 0, "fin": 1, "pos": 2}
        if self.kind != "fin" or other.kind != "fin":
            a, b = order[self.kind], order[other.kind]
            return (a > b) - (a < b)
        if self.place.is_arch:
            return (self.x > other.x) - (self.x < other.x)
        return (self.r > other.r) - (self.r < other.r)

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __eq__(self, other):
        if not isinstance(other, LocalLog):
            return NotImplemented
        return self.place == other.place and self.cmp(other) == 0

    def __hash__(self):
        return hash((self.place, self.kind, self.r, None if self.x is None else str(self.x)))

    def approx_eq(self, other: "LocalLog", slack=None) -> bool:
        """Equality up to the archimedean comparison slack (exact p-adically)."""
        self._check(other)
        if self.kind != "fin" or other.kind != "fin":
            return self.kind == other.kind
        if not self.place.is_arch:
            return self.r == other.r
        return abs(self.x - other.x) <= (ARCH_SLACK if slack is None else slack)


def local_max(values) -> LocalLog:
    values = list(values)
    if not values:
        raise UsageError("max of empty collection")
    best = values[0]
    for v in values[1:]:
        if v.cmp(best) > 0:
            best = v
    return best


def local_min(values) -> LocalLog:
    values = list(values)
    if not values:
        raise UsageError("min of empty collection")
    best = values[0]
    for v in values[1:]:
        if v.cmp(best) < 0:
            best = v
    return best


# ---------------------------------------------------------------------------
# log|x|_v and norms
# ---------------------------------------------------------------------------

def _arch_log_fraction(x: Fraction):
    return mp.log(mp.mpf(abs(x.numerator))) - mp.log(mp.mpf(x.denominator))


def log_abs(x: Fraction, v: Place) -> LocalLog:
    """log|x|_v;  log|0|_v = -inf."""
    x = Fraction(x)
    if x == 0:
        return LocalLog.neg_inf(v)
    if v.is_arch:
        return LocalLog.arch(_arch_log_fraction(x))
    return LocalLog.padic(v, Fraction(-vp(x, v.p)))


def log_plus_int(n: int, v: Place) -> LocalLog:
    """log^+|n|_v for a positive integer n.

    Identically zero at every p-adic place (integers are p-adic integers);
    log n at the archimedean place.
    """
    if n < 1:
        raise UsageError("log_plus_int needs n >= 1")
    if v.is_arch:
        return LocalLog.arch(mp.log(mp.mpf(n)))
    return LocalLog.zero(v)


def gauss_norm_log(F: HomogeneousForm, v: Place) -> LocalLog:
    """log||F||_v = max over coefficients of log|c|_v; -inf iff F = 0."""
    return vector_norm_log(F.coefficients(), v)


def vector_norm_log(xs, v: Place) -> LocalLog:
    """log max_i |x_i|_v of a vector of rationals, ints or Fractions (-inf
    for the zero vector)."""
    nz = [x for x in xs if x != 0]
    if not nz:
        return LocalLog.neg_inf(v)
    if v.is_arch:
        return LocalLog.arch(_arch_log_fraction(max(abs(x) for x in nz)))
    p = v.p
    # p in a denominator means a negative valuation, which decides the min
    # (a reduced fraction then has a numerator prime to p) ...
    neg = [vp_int(x.denominator, p) for x in nz if x.denominator % p == 0]
    if neg:
        return LocalLog.padic(v, Fraction(max(neg)))
    # ... otherwise one numerator prime to p makes the min 0
    if any(x.numerator % p for x in nz):
        return LocalLog.padic(v, Fraction(0))
    return LocalLog.padic(v, Fraction(-min(vp_int(x.numerator, p) for x in nz)))


def matrix_norm_log(A, v: Place) -> LocalLog:
    return vector_norm_log([x for row in A for x in row], v)


def _require_sl(A) -> None:
    if det_exact(A) != 1:
        raise UsageError("matrix is not in SL (det != 1)")


def matrix_lambda(A, v: Place) -> LocalLog:
    """lambda(A) = N log||A|| + log^+|N!| for A in SL_N."""
    _require_sl(A)
    N = len(A)
    return matrix_norm_log(A, v).scaled(N) + log_plus_int(factorial(N), v)


def matrix_xi(A, v: Place) -> LocalLog:
    """xi(A) = log||A|| + log||A^{-1}|| + log^+|N| for A in SL_N."""
    _require_sl(A)
    N = len(A)
    Ainv = matrix_inverse_exact(A)
    return matrix_norm_log(A, v) + matrix_norm_log(Ainv, v) + log_plus_int(N, v)


# ---------------------------------------------------------------------------
# per-place constants
# ---------------------------------------------------------------------------

def constants_prime_bound(N: int, d: int) -> int:
    """Primes above this bound contribute 0 to every constant."""
    return max(d, factorial(N), 4 * N * (N + 1))


def c3_prime_bound(N: int, d: int) -> int:
    """Primes above this bound have c3 = c4 = 0.

    The p-adic branch log p/(p-1) only carries the j!-denominator slack of
    the translation estimates; at p > max(d, N!) the good-reduction
    argument needs (and gets) zero, and the p-adic estimates hold with
    integer binomial coefficients in place of honest derivatives.
    """
    return max(d, factorial(N))


@dataclass(frozen=True)
class PlaceConstants:
    """The numbered non-negative constants attached to a place.

    All vanish unless the place is archimedean or p-adic with
    p <= max(d, N!, 4N(N+1)).
    """

    N: int
    d: int
    place: Place
    c1: LocalLog
    c2: LocalLog
    c3: LocalLog
    c4: LocalLog
    c5: LocalLog
    c8: LocalLog
    c9: LocalLog


def basin_constant(N: int, d: int, c3: LocalLog, c5: LocalLog,
                   c8: LocalLog) -> LocalLog:
    """c8 (sqrt d - 1) + c3 + c5 + (2dN+1) log^+2 + (2N-2+dN(d^N-1)) log^+d
    at the place of c3, c5, c8: the basin-stability gate asks (d-1) log^+||b||
    to exceed it plus log||A^-1|| + d xi(A), and c9's third branch is it
    over d-1."""
    if c3.place.is_arch:
        return LocalLog.arch(c8.to_mpf() * (mp.sqrt(d) - 1) + c3.to_mpf()
                             + c5.to_mpf() + (2 * d * N + 1) * mp.log(2)
                             + (2 * N - 2 + d * N * (d**N - 1)) * mp.log(d))
    # c8 = 0 and all log^+ of integers vanish; only c3 + c5 survive
    return c3 + c5


def place_constants(N: int, d: int, v: Place) -> PlaceConstants:
    if N < 1 or d < 2:
        raise UsageError("need N >= 1 and d >= 2")
    zero = LocalLog.zero(v)
    lp2 = log_plus_int(2, v)
    c1 = lp2.scaled(2 * N - 1)
    c2 = log_plus_int(4 * N * (N + 1), v)
    if v.is_arch:
        c3 = LocalLog.arch((N + 2) * mp.log(2) + mp.log(N))
        c4 = zero
        c5 = (log_plus_int(N, v) + lp2.scaled(N)
              + log_plus_int(factorial(N), v).scaled(Fraction(1, N)))
        c8 = LocalLog.arch(2 * (N - 1) * (mp.mpf(d) ** (N + 1) - d + 1)
                           / (d - mp.sqrt(d)))
    else:
        p = v.p
        if p <= c3_prime_bound(N, d):
            c3 = LocalLog.padic(v, Fraction(1, p - 1))
        else:
            c3 = zero
        c4 = c3
        c5 = zero
        c8 = zero
    # c9: three-way max from the critical lower bound
    branch2 = (log_plus_int(2 * N, v).scaled(Fraction(1, d - 1))
               + lp2.scaled(Fraction(N, d**N - 1))
               - log_plus_int(factorial(N), v).scaled(Fraction(1, N * (d - 1))))
    branch3 = basin_constant(N, d, c3, c5, c8).scaled(Fraction(1, d - 1))
    c9 = local_max([zero, branch2, branch3])
    return PlaceConstants(N=N, d=d, place=v, c1=c1, c2=c2, c3=c3, c4=c4,
                          c5=c5, c8=c8, c9=c9)
