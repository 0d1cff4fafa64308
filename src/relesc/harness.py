"""Randomized, reproducible verification of the explicit inequalities.

Every check evaluates both sides of one proved inequality on a sampled
instance: exact Fraction comparisons at p-adic places, 50-digit reals with
a 1e-30 slack at the archimedean place.  Checks that involve the escape
rate use certified intervals and only report failure when the inequality
fails by more than the combined certified error, so truncation can never
manufacture a counterexample.  Conditional lemmas mark instances that miss
their hypotheses as vacuous; targeted sampler profiles construct instances
(large ||b||, divisors with large mu) that meet the hypotheses by design.

These are theorems: a non-vacuous failure means an implementation bug, and
the suite doubles as the regression oracle.  A constants audit recomputes
every per-place constant from independently written formulas, so a build
with a corrupted constant fails the suite even where the inequalities keep
enough slack to absorb the corruption.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import factorial

import mpmath as mp

from . import places as _places
from .divisors import (Divisor, MinCritMap, critical_divisor, delta_estimate,
                       lambda_local, mu_local, pullback_translation,
                       pushforward_map)
from .forms import (HomogeneousForm, compose_linear, form_product,
                    power_pullback, power_pushforward, slice_form)
from .heights import thm_main_bounds
from .places import (ARCH_SLACK, INF, LocalLog, Place, gauss_norm_log,
                     local_max, local_min, log_abs, log_plus_int,
                     matrix_lambda, matrix_norm_log, matrix_xi,
                     vector_norm_log)
from .rational import UsageError, support_primes

CONDITIONAL = {"TC_MU", "KEY_MU", "KEY_LAMBDA", "BASIN", "MU_NONNEG_LAMBDA"}


@dataclass(frozen=True)
class Profile:
    name: str
    N: int
    d: int
    coeff_bound: int = 9
    deg_bound: int = 3
    place_set: tuple = ("inf", "2", "3")
    targeted: bool = False
    k_arch: int = 10
    k_padic: int = 6

    def __post_init__(self):
        for key, low in (("N", 1), ("d", 2), ("coeff_bound", 1), ("deg_bound", 1),
                         ("k_arch", 0), ("k_padic", 0)):
            x = getattr(self, key)
            if isinstance(x, bool) or not isinstance(x, int) or x < low:
                raise UsageError(f"profile {self.name!r}: {key} must be an "
                                 f"integer >= {low}, not {x!r}")
        if not isinstance(self.place_set, tuple) or not self.place_set:
            raise UsageError(f"profile {self.name!r}: place_set must be a non-empty "
                             f"tuple of place tokens, not {self.place_set!r}")
        for tok in self.place_set:
            Place.parse(tok)


def default_profiles() -> list[Profile]:
    return [
        Profile("n1d2", 1, 2, coeff_bound=30, k_arch=12, k_padic=6),
        Profile("n1d3", 1, 3, coeff_bound=30, k_arch=8, k_padic=5),
        Profile("n2d2", 2, 2, coeff_bound=9, k_arch=3, k_padic=3),
        Profile("n1d2-big", 1, 2, coeff_bound=30, targeted=True, k_arch=12, k_padic=6),
        Profile("n2d2-big", 2, 2, coeff_bound=9, targeted=True, k_arch=3, k_padic=2),
        Profile("n2d3-big", 2, 3, coeff_bound=9, deg_bound=2, targeted=True,
                place_set=("inf", "2"), k_arch=2, k_padic=1),
    ]


@dataclass
class Instance:
    seed: int
    profile: Profile
    f: MinCritMap
    place: Place
    divisors: list          # generic divisors, not containing H
    mu_divisors: list       # divisors avoiding H and the origin point
    big_divisor: Divisor    # targeted large-mu divisor (always set)
    alpha: Fraction
    resamples: int = 0
    _delta_memo: dict = field(default_factory=dict, repr=False)

    def delta(self, D: Divisor):
        """Delta_f(D) at the instance's place, truncated at the profile's
        depth for that place (k_arch or k_padic)."""
        key = D.form.key()
        if key not in self._delta_memo:
            k = self.profile.k_arch if self.place.is_arch else self.profile.k_padic
            self._delta_memo[key] = delta_estimate(self.f, D, k, self.place)
        return self._delta_memo[key]

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "profile": self.profile.name,
            "map": self.f.to_json_dict(),
            "place": repr(self.place),
            "divisors": [D.to_json_dict() for D in self.divisors],
            "mu_divisors": [D.to_json_dict() for D in self.mu_divisors],
            "big_divisor": self.big_divisor.to_json_dict(),
            "alpha": str(self.alpha),
            "resamples": self.resamples,
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _random_sl_matrix(rng: random.Random, N: int, bound: int):
    """Word in elementary matrices: lands in SL_N(Z) with smallish entries."""
    A = [[Fraction(int(i == j)) for j in range(N)] for i in range(N)]
    if N == 1:
        return A
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(N)
        j = rng.randrange(N)
        if i == j:
            continue
        m = rng.randint(-bound, bound)
        for col in range(N):
            A[i][col] += m * A[j][col]
    return A


def _random_rational(rng: random.Random, bound: int, den_bound: int = 4) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, den_bound)
    return Fraction(num, den)


def _random_form(rng: random.Random, n: int, deg: int, bound: int) -> HomogeneousForm:
    exps = _degree_tuples(n, deg)
    terms = {}
    want = rng.randint(2, min(len(exps), 3 + n))
    chosen = rng.sample(exps, want)
    for e in chosen:
        c = 0
        while c == 0:
            c = rng.randint(-bound, bound)
        terms[e] = Fraction(c)
    return HomogeneousForm(n, deg, terms)


def _degree_tuples(n: int, deg: int) -> list:
    if n == 1:
        return [(deg,)]
    out = []
    for e in range(deg + 1):
        out.extend((e,) + rest for rest in _degree_tuples(n - 1, deg - e))
    return out


def _sample_divisor(rng: random.Random, n: int, deg: int, bound: int,
                    need_mu: bool) -> tuple[Divisor, int]:
    resamples = 0
    while True:
        F = _random_form(rng, n, deg, bound)
        D = Divisor(F)
        if D.contains_hyperplane_at_infinity():
            resamples += 1
            continue
        if need_mu and D.contains_origin_point():
            resamples += 1
            continue
        return D, resamples


def _targeted_big_divisor(rng: random.Random, n: int, deg: int, bound: int,
                          v: Place, top_log2_scale: int) -> Divisor:
    """Divisor with all mu-relevant slices tiny against the top coefficient:
    mu_v is large by construction (p-power layering at a p-adic place, a
    huge top coefficient at the archimedean one)."""
    N = n - 1
    terms = {}
    # slice k gets a plain bounded form; top coefficient scaled up
    for k in range(deg + 1):
        exps_pool = _degree_tuples(N, deg - k)
        chosen = rng.sample(exps_pool, min(len(exps_pool), 2))
        for e in chosen:
            c = 0
            while c == 0:
                c = rng.randint(-bound, bound)
            full = e + (k,)
            if v.is_arch:
                terms[full] = Fraction(c)
            else:
                terms[full] = Fraction(c * v.p ** (top_log2_scale * (deg - k)))
    top = (0,) * N + (deg,)
    if v.is_arch:
        terms[top] = Fraction(2 ** (top_log2_scale * deg))
    else:
        c = 0
        while c == 0 or c % v.p == 0:
            c = rng.randint(1, max(bound, 3))
        terms[top] = Fraction(c)
    return Divisor(HomogeneousForm(n, deg, terms))


def _targeted_b(rng: random.Random, N: int, d: int, v: Place,
                bound: int) -> list:
    """b large enough at v to clear the basin-stability gate on ||b||
    with slack, sampled deterministically."""
    if v.is_arch:
        consts = _places.place_constants(N, d, v)
        need = _places.basin_constant(N, d, consts.c3, consts.c5, consts.c8).to_mpf()
        # allow log||A^-1|| + d xi(A) headroom for bounded integer A
        log2_scale = int(need / ((d - 1) * mp.log(2))) + 40
        b = [Fraction(rng.randint(1, bound) * 2 ** log2_scale
                      * rng.choice((-1, 1)))
             for _ in range(N)]
    else:
        b = [Fraction(rng.randint(1, bound) * rng.choice((-1, 1)), v.p)
             for _ in range(N)]
    return b


def random_instance(seed: int, profile: Profile) -> Instance:
    rng = random.Random(seed)
    N, d, n = profile.N, profile.d, profile.N + 1
    place = Place.parse(profile.place_set[seed % len(profile.place_set)])
    A = _random_sl_matrix(rng, N, 2)
    resamples = 0
    if profile.targeted:
        b = _targeted_b(rng, N, d, place, profile.coeff_bound)
    else:
        b = [_random_rational(rng, profile.coeff_bound) for _ in range(N)]
    f = MinCritMap(N, d, A, b)
    divisors = []
    mu_divisors = []
    for _ in range(3):
        deg = rng.randint(1, profile.deg_bound)
        D, r1 = _sample_divisor(rng, n, deg, profile.coeff_bound, need_mu=False)
        divisors.append(D)
        resamples += r1
        Dm, r2 = _sample_divisor(rng, n, deg, profile.coeff_bound, need_mu=True)
        mu_divisors.append(Dm)
        resamples += r2
    scale = 90 if place.is_arch else 40
    big = _targeted_big_divisor(rng, n, rng.randint(1, profile.deg_bound),
                                profile.coeff_bound, place, scale)
    alpha = Fraction(0)
    while alpha == 0:
        alpha = _random_rational(rng, 10 ** 6, den_bound=10 ** 6)
    return Instance(seed=seed, profile=profile, f=f, place=place,
                    divisors=divisors, mu_divisors=mu_divisors,
                    big_divisor=big, alpha=alpha, resamples=resamples)


# ---------------------------------------------------------------------------
# comparison atoms
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    lemma: str
    holds: bool
    vacuous: bool
    lhs: float
    rhs: float
    instance_seed: int
    margin: float = 0.0
    note: str = ""


def _le(lhs: LocalLog, rhs: LocalLog) -> tuple:
    """Atom for lhs <= rhs: exact at a p-adic place, within ARCH_SLACK at
    the archimedean one."""
    sides = (float(lhs.to_mpf()), float(rhs.to_mpf()))
    if lhs.kind == "neg" or rhs.kind == "pos":
        return (True, float("inf")) + sides
    if lhs.kind == "pos" or rhs.kind == "neg":
        return (False, float("-inf")) + sides
    diff = rhs.to_mpf() - lhs.to_mpf()
    holds = diff >= -ARCH_SLACK if lhs.place.is_arch else rhs.r >= lhs.r
    return (holds, float(diff)) + sides


def _abs_le(x: LocalLog, bound: LocalLog) -> list:
    """Atoms for |x| <= bound: x <= bound and -x <= bound."""
    return [_le(x, bound), _le(-x, bound)]


def _eq(lhs: LocalLog, rhs: LocalLog) -> tuple:
    """Atom for lhs == rhs, exact or within ARCH_SLACK like _le."""
    ok = lhs.approx_eq(rhs)
    diff = abs(lhs.to_mpf() - rhs.to_mpf())
    margin = float(ARCH_SLACK - diff) if lhs.place.is_arch else (0.0 if ok else -float(diff))
    return ok, margin, float(lhs.to_mpf()), float(rhs.to_mpf())


def _interval_le(est, rhs) -> tuple:
    """Certified 'value <= rhs': fails only when value - err > rhs (+slack)."""
    lhs = est.value.to_mpf() - est.error.to_mpf()
    diff = rhs - lhs
    return diff >= -float(ARCH_SLACK), float(diff), float(lhs), float(rhs)


def _interval_ge(est, rhs) -> tuple:
    """Certified 'value >= rhs': fails only when value + err < rhs (-slack)."""
    lhs = est.value.to_mpf() + est.error.to_mpf()
    diff = lhs - rhs
    return diff >= -float(ARCH_SLACK), float(diff), float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _registered(lemma: str):
    if lemma not in _CHECKS:
        raise UsageError(f"unknown lemma id {lemma!r}")
    return _CHECKS[lemma]


def check(lemma: str, inst: Instance) -> CheckResult:
    """Run one registered lemma on inst.

    A check returns its atoms (holds, margin, lhs, rhs), one per comparison
    it makes, optionally paired with a note as (atoms, note), or None when
    inst misses the lemma's hypotheses.  The result reports the atom with
    the smallest margin."""
    atoms, note = _registered(lemma)(inst), ""
    if isinstance(atoms, tuple):
        atoms, note = atoms
    if not atoms:
        return CheckResult(lemma, True, True, 0.0, 0.0, inst.seed, float("inf"))
    _, margin, lhs, rhs = min(atoms, key=lambda a: a[1])
    return CheckResult(lemma, all(a[0] for a in atoms), False, lhs, rhs,
                       inst.seed, margin, note)


def _check_norm_prod(inst: Instance):
    v = inst.place
    N = inst.f.N
    fs = [D.form for D in inst.divisors]
    prod = form_product(fs)
    lhs = gauss_norm_log(prod, v) - sum(
        (gauss_norm_log(F, v) for F in fs[1:]), gauss_norm_log(fs[0], v))
    bound = log_plus_int(2, v).scaled(2 * N * sum(F.degree for F in fs))
    return _abs_le(lhs, bound)


def _check_norm_sumprod(inst: Instance):
    v = inst.place
    N = inst.f.N
    A, B = inst.divisors[0].form, inst.divisors[1].form
    prod = form_product([A, B])
    delta = prod.degree
    # a second product of the same degree, from forms sampled at the same
    # degrees as A and B
    C = form_product([D.form for D in inst.mu_divisors[:2]])
    total = prod + C
    if total.is_zero():
        lhs = LocalLog.neg_inf(v)
    else:
        lhs = gauss_norm_log(total, v)
    best = local_max([gauss_norm_log(A, v) + gauss_norm_log(B, v),
                      gauss_norm_log(C, v)])
    rhs = best + log_plus_int(2, v) + log_plus_int(2, v).scaled(2 * N * delta)
    return [_le(lhs, rhs)]


def _check_sum_lambda(inst: Instance):
    v = inst.place
    N = inst.f.N
    Ds = inst.divisors
    total = Ds[0]
    for D in Ds[1:]:
        total = total + D
    lhs = lambda_local(total, v) - sum(
        (lambda_local(D, v) for D in Ds[1:]), lambda_local(Ds[0], v))
    bound = log_plus_int(2, v).scaled(4 * N * sum(D.degree for D in Ds))
    return _abs_le(lhs, bound)


def _check_sum_mu(inst: Instance):
    v = inst.place
    N = inst.f.N
    Ds = inst.mu_divisors
    total = Ds[0]
    for D in Ds[1:]:
        total = total + D
    lhs = mu_local(total, v)
    n = len(Ds)
    degsum = sum(D.degree for D in Ds)
    rhs = (local_min([mu_local(D, v) for D in Ds])
           - log_plus_int(2, v).scaled(2 * N)
           - log_plus_int(degsum, v).scaled(n - 1))
    return [_le(rhs, lhs)], "lhs/rhs swapped: bound <= mu(sum)"


def _check_mu_nonneg_lambda(inst: Instance):
    v = inst.place
    D = inst.mu_divisors[0]
    mu = mu_local(D, v)
    if mu.cmp(LocalLog.zero(v)) < 0:
        return None
    F = D.form
    lam = lambda_local(D, v)
    top = gauss_norm_log(slice_form(F, D.degree), v)
    bottom = gauss_norm_log(slice_form(F, 0), v)
    return [_eq(lam, top - bottom)]


def _check_matrix_xi_le(inst: Instance):
    v = inst.place
    N = inst.f.N
    xi = matrix_xi(inst.f.A, v)
    lam = matrix_lambda(inst.f.A, v)
    rhs = lam + log_plus_int(N, v)
    return [_le(xi, rhs), _le(LocalLog.zero(v), xi), _le(LocalLog.zero(v), lam)]


def _check_matrix_lambda_inv(inst: Instance):
    v = inst.place
    N = inst.f.N
    lam_inv = matrix_lambda(inst.f.A_inv, v)
    rhs = matrix_lambda(inst.f.A, v).scaled(max(N - 1, 0))
    return [_le(lam_inv, rhs)]


def _check_power_pull_lambda(inst: Instance):
    v = inst.place
    d = inst.f.d
    D = inst.divisors[0]
    pulled = Divisor(power_pullback(D.form, d))
    return [_eq(lambda_local(pulled, v), lambda_local(D, v))]


def _check_power_pull_mu(inst: Instance):
    v = inst.place
    d = inst.f.d
    D = inst.mu_divisors[0]
    pulled = Divisor(power_pullback(D.form, d))
    lhs = mu_local(pulled, v)
    rhs = mu_local(D, v).scaled(Fraction(1, d))
    return [_eq(lhs, rhs)]


def _check_power_push_lambda(inst: Instance):
    v = inst.place
    N, d = inst.f.N, inst.f.d
    D = inst.divisors[0]
    pushed = Divisor(power_pushforward(D.form, d))
    lhs = lambda_local(pushed, v) - lambda_local(D, v).scaled(d**N)
    bound = log_plus_int(2, v).scaled(4 * N * d**N * D.degree)
    return _abs_le(lhs, bound)


def _check_power_push_mu(inst: Instance):
    v = inst.place
    N, d = inst.f.N, inst.f.d
    D = inst.mu_divisors[0]
    pushed = Divisor(power_pushforward(D.form, d))
    lhs = mu_local(pushed, v)
    rhs = (mu_local(D, v).scaled(d)
           - log_plus_int(2, v).scaled(2 * d * N)
           - log_plus_int(d**N * D.degree, v).scaled(d * (d**N - 1)))
    return [_le(rhs, lhs)]


def _linear_bounds(inst: Instance, v: Place):
    f = inst.f
    consts = _places.place_constants(f.N, f.d, v)
    diff_norm = matrix_norm_log(f.L, v) - matrix_norm_log(f.A, v)
    lam_L = matrix_lambda(f.L, v)
    lam_A = matrix_lambda(f.A, v)
    return consts, diff_norm, lam_L, lam_A


def _check_linear(inst: Instance, push: bool):
    """LINEAR_PULL (D o L) and LINEAR_PUSH (D o L^-1): the two bounds swap
    lambda(L) and lambda(A)."""
    v = inst.place
    D = inst.divisors[0]
    consts, diff_norm, lam_L, lam_A = _linear_bounds(inst, v)
    lam_up, lam_low = (lam_L, lam_A) if push else (lam_A, lam_L)
    moved = Divisor(compose_linear(D.form, inst.f.L_inv if push else inst.f.L))
    lhs = lambda_local(moved, v) - lambda_local(D, v)
    upper = (diff_norm + lam_up + consts.c2).scaled(D.degree) + consts.c1
    lower = -((diff_norm + lam_low + consts.c2).scaled(D.degree) + consts.c1)
    return [_le(lhs, upper), _le(lower, lhs)]


def _check_tc_mu(inst: Instance):
    v = inst.place
    f = inst.f
    D = inst.big_divisor
    mu = mu_local(D, v)
    consts = _places.place_constants(f.N, f.d, v)
    norm_c = vector_norm_log(f.b, v).log_plus()
    gate = norm_c + consts.c3 + log_plus_int(D.degree, v).scaled(2)
    if mu.cmp(gate) <= 0:
        return None
    pulled = pullback_translation(f.b, D)
    if pulled.contains_origin_point() or pulled.contains_hyperplane_at_infinity():
        # the lemma asserts this cannot happen under the gate
        return ([(False, float("-inf"), 0.0, 0.0)],
                "translated divisor hit H or the origin")
    lhs = mu_local(pulled, v)
    rhs = mu - log_plus_int(D.degree, v) - log_plus_int(2, v)
    return [_le(rhs, lhs)]


def _key_gate(inst: Instance, v: Place):
    f = inst.f
    D = inst.big_divisor
    consts = _places.place_constants(f.N, f.d, v)
    mu = mu_local(D, v)
    gate = (vector_norm_log(f.b, v).log_plus() + consts.c3 + consts.c5
            + matrix_norm_log(f.A_inv, v)
            + log_plus_int(D.degree, v).scaled(2))
    return mu.cmp(gate) > 0, mu, consts


def _check_key_mu(inst: Instance):
    v = inst.place
    f = inst.f
    D = inst.big_divisor
    met, mu, consts = _key_gate(inst, v)
    if not met:
        return None
    pushed = Divisor(compose_linear(D.form, f.L_inv))
    lhs = mu_local(pushed, v)
    rhs = (mu - log_plus_int(D.degree, v) - log_plus_int(2, v)
           - consts.c5 - matrix_norm_log(f.A_inv, v))
    return [_le(rhs, lhs)]


def _check_key_lambda(inst: Instance):
    v = inst.place
    f = inst.f
    D = inst.big_divisor
    met, mu, consts = _key_gate(inst, v)
    if not met:
        return None
    pushed = Divisor(compose_linear(D.form, f.L_inv))
    lam_push = lambda_local(pushed, v)
    lam = lambda_local(D, v)
    up = lam + (matrix_norm_log(f.A, v) + log_plus_int(2 * f.N, v)).scaled(D.degree) \
        + log_plus_int(2, v).scaled(f.N)
    low = lam - (matrix_norm_log(f.A_inv, v) + log_plus_int(2 * f.N, v)).scaled(D.degree) \
        - log_plus_int(2, v).scaled(f.N)
    return [_le(lam_push, up), _le(low, lam_push)]


def _mu_gate_rhs(N: int, deg: int, norm_b, xi, c8):
    if N == 1:
        c8_term = mp.mpf(0)
    else:
        c8_term = c8.to_mpf() * (mp.mpf(deg) ** (Fraction(1, 2 * (N - 1))) - 1)
    return norm_b.to_mpf() + c8_term - xi.to_mpf()


def _check_basin(inst: Instance):
    v = inst.place
    f = inst.f
    N, d = f.N, f.d
    D = inst.big_divisor
    consts = _places.place_constants(N, d, v)
    xi = matrix_xi(f.A, v)
    norm_b = vector_norm_log(f.b, v).log_plus()
    b_gate_rhs = (_places.basin_constant(N, d, consts.c3, consts.c5, consts.c8).to_mpf()
                  + matrix_norm_log(f.A_inv, v).to_mpf()
                  + d * xi.to_mpf())
    b_gate = (d - 1) * norm_b.to_mpf() > b_gate_rhs
    if not b_gate:
        return None
    mu = mu_local(D, v)
    mu_gate = mu.to_mpf() >= _mu_gate_rhs(N, D.degree, norm_b, xi, consts.c8)
    if not mu_gate:
        return None
    est = inst.delta(D)
    rhs = (lambda_local(D, v).to_mpf()
           - mp.mpf(D.degree) * (matrix_norm_log(f.A_inv, v).to_mpf()
                                 + log_plus_int(2 * N, v).to_mpf()) / (d - 1)
           - mp.mpf(N) * log_plus_int(2, v).to_mpf() / (d**N - 1))
    # proof-level content: the basin set is f_*-stable
    pushed = pushforward_map(f, D)
    mu_push = mu_local(pushed, v).to_mpf()
    push_rhs = _mu_gate_rhs(N, pushed.degree, norm_b, xi, consts.c8)
    stable = mu_push >= push_rhs - ARCH_SLACK
    return [_interval_ge(est, rhs),
            (bool(stable), float(mu_push - push_rhs), float(mu_push), float(push_rhs))]


def _check_delta_sandwich(inst: Instance):
    v = inst.place
    f = inst.f
    N, d = f.N, f.d
    D = inst.divisors[0]
    est = inst.delta(D)
    consts, diff_norm, lam_L, lam_A = _linear_bounds(inst, v)
    lam = lambda_local(D, v).to_mpf()
    base = diff_norm.to_mpf() + consts.c2.to_mpf() \
        + 4 * N * d * log_plus_int(2, v).to_mpf()
    tailc = Fraction(2 * N - 1, d**N - 1) * log_plus_int(2, v).to_mpf()
    upper = lam + mp.mpf(D.degree) / (d - 1) * (base + lam_L.to_mpf()) + tailc
    lower = lam - mp.mpf(D.degree) / (d - 1) * (base + lam_A.to_mpf()) - tailc
    return [_interval_le(est, upper), _interval_ge(est, lower)]


def _check_crit_lower(inst: Instance):
    v = inst.place
    f = inst.f
    N, d = f.N, f.d
    consts = _places.place_constants(N, d, v)
    rhs = (Fraction(d - 1, d) * vector_norm_log(f.b, v).log_plus().to_mpf()
           - matrix_lambda(f.A_inv, v).to_mpf() / (N * d)
           - matrix_xi(f.A, v).to_mpf()
           - Fraction(d - 1, d) * consts.c9.to_mpf())
    return [_interval_ge(inst.delta(critical_divisor(f)), rhs)]


def _check_crit_upper(inst: Instance):
    v = inst.place
    f = inst.f
    N, d = f.N, f.d
    rhs = (N * (N + 2) * vector_norm_log(f.b, v).log_plus().to_mpf()
           + (N + 1) * matrix_lambda(f.A, v).to_mpf()
           + N * log_plus_int(factorial(N + 1), v).to_mpf()
           + log_plus_int(factorial(N), v).to_mpf()
           + N * log_plus_int(4 * N * (N + 1), v).to_mpf()
           + (4 * N * N * d + Fraction(2 * N - 1, d**N - 1))
           * log_plus_int(2, v).to_mpf())
    return [_interval_le(inst.delta(critical_divisor(f)), rhs)]


def _check_thm_main(inst: Instance):
    rep = thm_main_bounds(inst.f, inst.profile.k_arch)
    ok = rep["verdict"] != "violation"
    lo = float(rep["value"] - rep["error"] - rep["lower_bound"])
    hi = float(rep["upper_bound"] - (rep["value"] + rep["error"]))
    margin = min(lo, hi)
    return [(ok, margin, float(rep["value"]), float(rep["upper_bound"]))], rep["verdict"]


def _check_product_formula(inst: Instance):
    alpha = inst.alpha
    total = log_abs(alpha, INF).to_mpf()
    for p in sorted(support_primes([alpha])):
        total += log_abs(alpha, Place(p)).to_mpf()
    ok = abs(total) <= ARCH_SLACK
    return [(ok, float(ARCH_SLACK - abs(total)), float(total), 0.0)]


def _check_mu_le_lambda(inst: Instance):
    v = inst.place
    D = inst.mu_divisors[0]
    lhs = mu_local(D, v)
    rhs = lambda_local(D, v).scaled(Fraction(1, D.degree))
    return [_le(lhs, rhs)]


# the one list of lemmas, in report order
_CHECKS = {
    "NORM_PROD": _check_norm_prod,
    "NORM_SUMPROD": _check_norm_sumprod,
    "SUM_LAMBDA": _check_sum_lambda,
    "SUM_MU": _check_sum_mu,
    "MU_NONNEG_LAMBDA": _check_mu_nonneg_lambda,
    "MATRIX_XI_LE": _check_matrix_xi_le,
    "MATRIX_LAMBDA_INV": _check_matrix_lambda_inv,
    "POWER_PULL_LAMBDA": _check_power_pull_lambda,
    "POWER_PULL_MU": _check_power_pull_mu,
    "POWER_PUSH_LAMBDA": _check_power_push_lambda,
    "POWER_PUSH_MU": _check_power_push_mu,
    "LINEAR_PULL": partial(_check_linear, push=False),
    "LINEAR_PUSH": partial(_check_linear, push=True),
    "TC_MU": _check_tc_mu,
    "KEY_MU": _check_key_mu,
    "KEY_LAMBDA": _check_key_lambda,
    "BASIN": _check_basin,
    "DELTA_SANDWICH": _check_delta_sandwich,
    "CRIT_LOWER": _check_crit_lower,
    "CRIT_UPPER": _check_crit_upper,
    "THM_MAIN": _check_thm_main,
    "PRODUCT_FORMULA": _check_product_formula,
    "MU_LE_LAMBDA_OVER_DEG": _check_mu_le_lambda,
}
LEMMA_IDS = tuple(_CHECKS)


# ---------------------------------------------------------------------------
# constants audit
# ---------------------------------------------------------------------------

def audit_constants(N: int, d: int, v: Place) -> list[str]:
    """Recompute every constant from independently written formulas and
    compare with the live provider.  Returns a list of mismatch messages."""
    pc = _places.place_constants(N, d, v)
    slack = mp.mpf("1e-30")
    problems = []

    def lp(n: int):
        if v.is_arch:
            return mp.log(n)
        return mp.mpf(0)

    if v.is_arch:
        c3 = (N + 2) * mp.log(2) + (mp.log(N) if N > 1 else mp.mpf(0))
        c4 = mp.mpf(0)
        c5 = lp(N) + N * mp.log(2) + lp(factorial(N)) / N
        c8 = mp.mpf(0) if N == 1 else \
            2 * (N - 1) * (mp.mpf(d) ** (N + 1) - d + 1) / (d - mp.sqrt(d))
    else:
        p = v.p
        c3 = mp.log(p) / (p - 1) if p <= max(d, factorial(N)) else mp.mpf(0)
        c4 = c3
        c5 = mp.mpf(0)
        c8 = mp.mpf(0)
    expected = {
        "c1": (2 * N - 1) * lp(2),
        "c2": lp(4 * N * (N + 1)),
        "c3": c3,
        "c4": c4,
        "c5": c5,
        "c8": c8,
        "c9": max(mp.mpf(0),
                  lp(2 * N) / (d - 1) + N * lp(2) / (d**N - 1)
                  - lp(factorial(N)) / (N * (d - 1)),
                  (c8 * (mp.sqrt(d) - 1) + c3 + c5 + (2 * d * N + 1) * lp(2)
                   + (2 * N - 2 + d * N * (d**N - 1)) * lp(d)) / (d - 1)),
    }
    for name, want in expected.items():
        got = getattr(pc, name).to_mpf()
        if abs(got - want) > slack:
            problems.append(
                f"constant {name} at (N={N}, d={d}, v={v}): "
                f"provider {mp.nstr(got, 20)} != formula {mp.nstr(want, 20)}")
    return problems


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

@dataclass
class LemmaStats:
    total: int = 0
    non_vacuous: int = 0
    failures: int = 0
    worst_margin: float = float("inf")
    failing_seeds: list = field(default_factory=list)


@dataclass
class SuiteReport:
    trials: int
    seed: int
    stats: dict
    audit_problems: list
    profiles: list

    @property
    def ok(self) -> bool:
        return not self.audit_problems and all(
            s.failures == 0 for s in self.stats.values())

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "ok": self.ok,
            "audit_problems": list(self.audit_problems),
            "profiles": list(self.profiles),
            "lemmas": {
                name: {
                    "total": s.total,
                    "non_vacuous": s.non_vacuous,
                    "failures": s.failures,
                    "worst_margin": (None if s.worst_margin == float("inf")
                                     else round(s.worst_margin, 12)),
                    "failing_seeds": s.failing_seeds[:10],
                }
                for name, s in sorted(self.stats.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    def table(self) -> str:
        lines = [f"{'lemma':24} {'total':>6} {'nonvac':>7} {'fail':>5} {'worst margin':>14}"]
        for name in (n for n in LEMMA_IDS if n in self.stats):
            s = self.stats[name]
            wm = "-" if s.worst_margin == float("inf") else f"{s.worst_margin:.6g}"
            lines.append(f"{name:24} {s.total:>6} {s.non_vacuous:>7} "
                         f"{s.failures:>5} {wm:>14}")
        if self.audit_problems:
            lines.append("CONSTANTS AUDIT FAILURES:")
            lines.extend("  " + p for p in self.audit_problems)
        else:
            lines.append("constants audit: ok")
        lines.append(f"suite: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def run_suite(trials: int, seed: int = 42, profiles: list | None = None,
              lemmas: tuple = LEMMA_IDS) -> SuiteReport:
    if trials < 1:
        raise UsageError("trials must be >= 1")
    if profiles is None:
        profiles = default_profiles()
    for lemma in lemmas:
        _registered(lemma)
    stats = {name: LemmaStats() for name in lemmas}
    if not profiles:
        return SuiteReport(trials=trials, seed=seed, stats=stats,
                           audit_problems=[], profiles=[])
    for t in range(trials):
        profile = profiles[t % len(profiles)]
        inst_seed = seed * 1_000_003 + t
        inst = random_instance(inst_seed, profile)
        for lemma in lemmas:
            res = check(lemma, inst)
            s = stats[lemma]
            s.total += 1
            if not res.vacuous:
                s.non_vacuous += 1
                if res.margin < s.worst_margin:
                    s.worst_margin = res.margin
                if not res.holds:
                    s.failures += 1
                    s.failing_seeds.append(inst_seed)
    audit_problems = []
    seen = set()
    for profile in profiles:
        for tok in profile.place_set:
            key = (profile.N, profile.d, tok)
            if key in seen:
                continue
            seen.add(key)
            audit_problems.extend(
                audit_constants(profile.N, profile.d, Place.parse(tok)))
    return SuiteReport(trials=trials, seed=seed, stats=stats,
                       audit_problems=audit_problems,
                       profiles=[p.name for p in profiles])
