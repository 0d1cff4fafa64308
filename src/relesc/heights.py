"""Global heights over Q and the theorem-level checks built from them.

All global quantities are finite sums of local ones.  With divisors held
in primitive-integer form, the finite places contribute through explicit
prime sets (denominators of the map data, content of the slice-0 form),
and everything else vanishes exactly: at a place where L is integral with
unit norm the per-step contraction constant is zero, so the escape rate
equals lambda there with zero error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import mpmath as mp

from .divisors import (Divisor, Estimate, ExactOrbit, MinCritMap, _check_dim,
                       _components_fit, critical_divisor, infinity_estimate,
                       lambda_local, slice_form, truncated_estimate)
from . import places as _places
from .places import INF, LocalLog, Place, constants_prime_bound
from .rational import (BitBudgetError, DomainError, UsageError, content,
                       lcm_denominators, prime_factors, primes_upto, vp)

# a bad prime asks for the next step while _components_fit admits it, and
# at most this deep; it reads deeper where infinity steps the orbit further.
# An N=1 orbit stays small: the size rule alone would take the critical
# height of z^2 - 17/(999983 * 1000003) from depth 8 (0.8 ms of orbit) to
# depth 14 (13 ms; 2 cores, Python 3.11), for a tail that is O(log p) * d^-k
PADIC_K_MAX = 8


def default_k(N: int) -> int:
    """Truncation depth used when none is given: 20 for N=1, 5 for N >= 2."""
    return 20 if N == 1 else 5


def _log_int(n: int):
    return mp.log(mp.mpf(n)) if n > 1 else mp.mpf(0)


# ---------------------------------------------------------------------------
# naive heights
# ---------------------------------------------------------------------------

def height_divisor(D: Divisor):
    """h(D) = sum_v log||F||_v; equals log max|coefficient| of the
    canonical primitive integer form."""
    big = max(abs(c) for c in D.form.coefficients())
    return _log_int(int(big))


def relative_height(D: Divisor):
    """h_rel(D) = h(D) - h(D|_H) = sum_v lambda_v(D), >= 0.

    With a primitive integer form F: log max|F| - log max|F_0| +
    log content(F_0); the content term is the finite-place part.
    """
    F = D.form
    F0 = slice_form(F, 0)
    if F0.is_zero():
        raise DomainError("relative height undefined: divisor contains H")
    big = int(max(abs(c) for c in F.coefficients()))
    big0 = int(max(abs(c) for c in F0.coefficients()))
    g0 = content(int(c) for c in F0.coefficients())
    return _log_int(big) - _log_int(big0) + _log_int(g0)


def relative_height_by_places(D: Divisor):
    """Explicit sum of lambda_v(D) over infinity and the primes of
    content(F_0), used as a cross-check of the primitive-integer shortcut.
    F is primitive, so lambda_p(D) = v_p(content F_0) log p vanishes at
    every other prime."""
    if slice_form(D.form, 0).is_zero():
        raise DomainError("relative height undefined: divisor contains H")
    total = lambda_local(D, INF).to_mpf()
    for p in divisor_content_primes(D):
        total += lambda_local(D, Place(p)).to_mpf()
    return total


def _projective_height(xs: list[Fraction]):
    """log max|x_i| of the primitive integer multiple of the tuple xs."""
    den = lcm_denominators(xs)
    ints = [int(x * den) for x in xs]
    return _log_int(max(abs(i) for i in ints) // content(ints))


def point_height(b):
    """Weil height of the affine tuple b, h(b) = sum_v log^+ max|b_i|_v."""
    return _projective_height([Fraction(1)] + [Fraction(x) for x in b])


def matrix_height(A):
    """Projective height of the matrix entry tuple (no affine 1 appended,
    unlike point_height)."""
    entries = [Fraction(x) for row in A for x in row]
    if all(x == 0 for x in entries):
        raise UsageError("zero matrix has no projective height")
    return _projective_height(entries)


# ---------------------------------------------------------------------------
# global (relative) canonical heights
# ---------------------------------------------------------------------------

@dataclass
class GlobalEstimate:
    """Certified global value: true quantity in [value-error, value+error].

    per_place maps repr(place) to that place's Estimate, in the order of
    the places summed; the value is their sum."""

    value: mp.mpf
    error: mp.mpf
    k: int
    warnings: list = field(default_factory=list)
    per_place: dict = field(default_factory=dict)

    @property
    def mode(self) -> str:
        """per_place["inf"].mode as bench/tracing.py counts heights by it."""
        inf = self.per_place.get(repr(INF))
        return "global-exact" if inf is not None and inf.mode == "exact" else "per-place"

    def to_json_dict(self, digits: int = 17) -> dict:
        return {
            "value": mp.nstr(self.value, digits),
            "error": mp.nstr(self.error, digits),
            "k": self.k,
            "warnings": list(self.warnings),
            "per_place": {
                v: {key: item for key, item in est.to_json_dict(digits).items()
                    if key != "place"}
                for v, est in self.per_place.items()},
        }


def map_bad_primes(f: MinCritMap) -> list[int]:
    """Primes where L is not integral (denominators of A or b entries).

    A in SL_N integral at p forces A^{-1} = adj(A) integral at p, so the
    inverse contributes nothing new.  Only the lcm of the denominators is
    factored: a numerator cannot make a valuation negative.
    """
    den = lcm_denominators([x for row in f.A for x in row] + list(f.b))
    return sorted(prime_factors(den)) if den > 1 else []


def divisor_content_primes(D: Divisor) -> list[int]:
    """Primes dividing the content of the slice-0 form (where lambda_v is
    nonzero for a primitive form)."""
    F0 = slice_form(D.form, 0)
    if F0.is_zero():
        return []
    g = content(int(c) for c in F0.coefficients())
    return sorted(prime_factors(g)) if g > 1 else []


def auto_places(f: MinCritMap, D: Divisor, bad: list[int]) -> list[Place]:
    """The places whose local term can be nonzero: infinity, the primes in
    the denominators of the map data (bad, map_bad_primes(f), which the
    caller needs too) and the primes dividing the content of the slice-0
    form.  At any other prime L is integral with unit norm, so the tail is
    0, and lambda_p(D) = 0 since the form is primitive."""
    return [INF] + [Place(p) for p in sorted(set(bad) | set(divisor_content_primes(D)))]


def relative_canonical_height(f: MinCritMap, D: Divisor, k: int | None = None,
                              places: list[Place] | None = None) -> GlobalEstimate:
    """hat{h}_f(D) - hat{h}_{f|H}(D|_H) = sum_v Delta_{f,v}(D) over places
    (default auto_places), truncated, with the certified tails as error.

    D is pushed exactly once.  Infinity is read first, by
    divisors.infinity_estimate, the rule of delta_estimate.  The bad primes
    then ask for further steps while the orbit's depth is below k and
    PADIC_K_MAX and _components_fit admits the next step, and read lambda_v
    at the orbit's last depth: the carried valuation, or the sum over the
    components, so no product is formed for them.  At every other place
    Delta_v(D) = lambda_v(D) exactly.  A warning is added by infinity read
    below k, by a float read at infinity (its radius does not cover float
    rounding) and by an orbit stopped by its bit budget; for N >= 3
    infinity then reads the exact iterate where the orbit stopped.

    The iterate is an ExactOrbit: each step's content is a gcd seeded with
    s * den(L)^deg, a small multiple of it (_push_raw), and at each bad
    prime p where A is p-integral the orbit carries v = v_p(content of
    slice 0) through v <- v_p(r) + d^N v, r the step scalar, so lambda_p =
    v log p is exact without a valuation of a large coefficient.  Where A
    is not p-integral lambda_p is the sum over the components.
    """
    _check_dim(f, D)
    if D.contains_hyperplane_at_infinity():
        raise DomainError("relative canonical height undefined for D containing H")
    if k is None:
        k = default_k(f.N)
    bad = map_bad_primes(f)
    if places is None:
        places = auto_places(f, D, bad)
    bad_places = [v for v in places if not v.is_arch and v.p in bad]
    warnings: list[str] = []
    orbit = ExactOrbit(f, D, bad_places)
    inf_est = None
    try:
        if INF in places:
            inf_est = infinity_estimate(f, D, orbit, k)
        while (bad_places and orbit.depth < min(k, PADIC_K_MAX)
               and _components_fit(f, orbit.components)):
            orbit.step()
    except BitBudgetError as exc:
        warnings.append(f"exact iterate stops at k={orbit.depth}, over bit budget: {exc}")
    if INF in places and inf_est is None:
        inf_est = infinity_estimate(f, D, orbit, orbit.depth)

    value = mp.mpf(0)
    err = mp.mpf(0)
    per_place: dict[str, Estimate] = {}
    for v in places:
        if v.is_arch:
            est = inf_est
        elif v in bad_places:
            est = truncated_estimate(f, D.degree, orbit.lam(v), orbit.depth)
        else:
            # L is v-integral with unit norm: the per-step constant is 0,
            # so Delta_v(D) = lambda_v(D) exactly
            est = Estimate(value=lambda_local(D, v), error=LocalLog.zero(v),
                           iterations_used=0, place=v, mode="exact")
        if v.is_arch and est.iterations_used < k:
            warnings.append(f"budget at {v}: read at k={est.iterations_used}")
        if est.mode == "scaled":
            warnings.append(f"scaled at {v}: the radius covers the truncation "
                            "tail, not float rounding")
        per_place[repr(v)] = est
        value += est.value.to_mpf()
        err += est.error.to_mpf()
    return GlobalEstimate(value=value, error=err, k=k, warnings=warnings,
                          per_place=per_place)


def relative_critical_height(f: MinCritMap, k: int | None = None,
                             **kw) -> GlobalEstimate:
    """Relative canonical height of the critical divisor C_f."""
    return relative_canonical_height(f, critical_divisor(f), k, **kw)


# ---------------------------------------------------------------------------
# Theorem-level sandwich
# ---------------------------------------------------------------------------

def _sum_c9(N: int, d: int):
    total = _places.place_constants(N, d, INF).c9.to_mpf()
    for p in primes_upto(constants_prime_bound(N, d)):
        total += _places.place_constants(N, d, Place(p)).c9.to_mpf()
    return total


def main_bound_constants(N: int, d: int) -> tuple:
    """The explicit global constants (C1, C2) of the height sandwich,
    assembled as exact finite sums of the per-place constants."""
    C1 = (_log_int(factorial(N)) / (N * d) + _log_int(N)
          + Fraction(d - 1, d) * _sum_c9(N, d))
    C2 = ((N + 1) * _log_int(factorial(N)) + N * _log_int(factorial(N + 1))
          + _log_int(factorial(N)) + N * _log_int(4 * N * (N + 1))
          + (4 * N * N * d + Fraction(2 * N - 1, d**N - 1)) * mp.log(2))
    return C1, C2


def thm_main_bounds(f: MinCritMap, k: int | None = None,
                    rch: GlobalEstimate | None = None) -> dict:
    """Check the explicit height sandwich for the relative critical height.

    lower = (d-1)/d h(b) - h(A) - (1 + 1/d) h(A^{-1}) - C1
    upper = N(N+2) h(b) + N(N+1) h(A) + C2

    The lower bound keeps h(A^{-1}) as an exact quantity rather than
    bounding it by (N-1) h(A); the h(A)-only variant follows from it.
    A verdict of 'inconclusive' means the certified interval straddles a
    bound; 'violation' (interval strictly outside) would indicate a bug.
    """
    N, d = f.N, f.d
    if rch is None:
        rch = relative_critical_height(f, k)
    h_b = point_height(f.b)
    h_A = matrix_height(f.A)
    h_Ainv = matrix_height(f.A_inv)
    C1, C2 = main_bound_constants(N, d)
    lower = (Fraction(d - 1, d) * h_b - h_A
             - (1 + Fraction(1, d)) * h_Ainv - C1)
    upper = N * (N + 2) * h_b + N * (N + 1) * h_A + C2
    lo_i, hi_i = rch.value - rch.error, rch.value + rch.error
    if lower <= lo_i and hi_i <= upper:
        verdict = "within-bounds"
    elif hi_i < lower or lo_i > upper:
        verdict = "violation"
    else:
        verdict = "inconclusive"
    return {
        "value": rch.value,
        "error": rch.error,
        "k": rch.k,
        "lower_bound": lower,
        "upper_bound": upper,
        "C1": C1,
        "C2": C2,
        "h_b": h_b,
        "h_A": h_A,
        "h_Ainv": h_Ainv,
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# good reduction
# ---------------------------------------------------------------------------

def good_reduction(f: MinCritMap, p: int) -> tuple[str, str]:
    """('good'|'bad'|'hypothesis-not-met', reason).

    Hypothesis: A integral at p (det A = 1 holds by construction).  The
    integrality criterion on b is cross-validated by the scaling test on
    the resultant det(L)^(d^N) of the defining forms.
    """
    v = Place(p)
    if any(x != 0 and vp(x, p) < 0 for row in f.A for x in row):
        return ("hypothesis-not-met",
                f"A is not {p}-integral, the criterion does not apply")
    b_integral = all(x == 0 or vp(x, p) >= 0 for x in f.b)

    # scaling/resultant route: clear p from L, then the resultant of the
    # scaled defining forms is det(p^eps L)^(d^N) = p^((N+1) eps d^N)
    entries = [x for row in f.L for x in row]
    eps = max(0, max(-vp(x, p) for x in entries if x != 0))
    scaled = [x * Fraction(p) ** eps for x in entries]
    if not any(x != 0 and vp(x, p) == 0 for x in scaled):
        raise AssertionError("scaled L has no unit entry despite det 1")
    resultant_val = (f.N + 1) * eps * (f.d ** f.N)
    resultant_unit = resultant_val == 0
    if resultant_unit != b_integral:
        raise AssertionError(
            "integrality and resultant routes disagree; implementation bug")
    if b_integral:
        return ("good", f"b is {p}-integral and resultant is a unit")
    return ("bad", f"some entry of b is not {p}-integral "
                   f"(resultant valuation {resultant_val})")
