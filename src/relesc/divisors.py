"""Divisors on P^N, the local functionals lambda and mu, push-forward and
pull-back under maps f = L o phi, and the truncated relative escape rate
with a certified tail bound.

A divisor is stored by its canonical defining form: primitive integer
coefficients with the first coefficient (in lexicographic term order)
positive.  Everything downstream (heights, the lemma harness) relies on
that normalization being unique.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, prod

import mpmath as mp

from .forms import (HomogeneousForm, _product_raw, _subst_raw, compose_linear,
                    form_product, power_pullback, pushforward_terms, slice_form)
from . import places as _places
from .places import (LocalLog, Place, gauss_norm_log, local_min,
                     log_plus_int, matrix_lambda, matrix_norm_log)
from .rational import (BitBudgetError, DomainError, UsageError, content,
                       det_exact, lcm_denominators, matrix_inverse_exact,
                       parse_rational, format_rational, vp, vp_int)
from .scaled import SlicedForm, step_bytes

DEFAULT_BIT_BUDGET = 1 << 20
# scaled mode refuses a step predicted to need more memory than this
SCALED_STEP_BYTES = 1 << 30
# infinity is exact (exact_fits, asked by delta_estimate(mode=None), the
# heights and the lemma harness) while the iterate at depth k is predicted
# to hold at most this many coefficient bits, terms x bits.  Calibration
# (2 cores, Python 3.11, no gmpy2; ExactOrbit on C_f with A = I or
# [[1,1],[0,1]] and b = (a/p, +-1/2), p in {53, 59, 61}): the exact steps
# to N=2, d=2, k=4 and d=3, k=2 make 0.002-0.5 Mbit in 0.001-0.011 s a
# step; the next ones, d=2 step 5 (3.9-7.2 Mbit) and d=3 step 3
# (10.5-18.5 Mbit), take 0.008-0.29 s and 0.1-1.4 s, where the scaled
# steps take hundredths.  Past this size the unipotent steps cost more
# than scaled ones (U2 at k=5: 0.2-0.6 s exact, 0.1-0.15 s scaled), so the
# value stays.
EXACT_STEP_BITS = 1 << 20


def canonical_form(F: HomogeneousForm) -> HomogeneousForm:
    """Primitive integer model of F with sign-normalized leading term."""
    if F.is_zero():
        raise UsageError("a divisor needs a nonzero defining form")
    den = lcm_denominators(F.coefficients())
    ints = {e: c.numerator * (den // c.denominator) for e, c in F.terms.items()}
    g = content(ints.values())
    ints = {e: c // g for e, c in ints.items()}
    leading = max(ints)  # lexicographically leading exponent tuple
    if ints[leading] < 0:
        ints = {e: -c for e, c in ints.items()}
    return HomogeneousForm(F.num_vars, F.degree,
                           {e: Fraction(c) for e, c in ints.items()})


class Divisor:
    """Effective divisor on P^N given by a canonicalized homogeneous form."""

    __slots__ = ("form", "degree")

    def __init__(self, form: HomogeneousForm):
        object.__setattr__(self, "form", canonical_form(form))
        object.__setattr__(self, "degree", form.degree)

    def __setattr__(self, *a):
        raise AttributeError("Divisor is immutable")

    @property
    def num_vars(self) -> int:
        return self.form.num_vars

    @property
    def N(self) -> int:
        return self.form.num_vars - 1

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.form == other.form

    def __hash__(self):
        return hash(self.form)

    def __add__(self, other: "Divisor") -> "Divisor":
        """Sum of divisors = product of defining forms."""
        return Divisor(form_product([self.form, other.form]))

    def __rmul__(self, m: int) -> "Divisor":
        if not isinstance(m, int) or m < 1:
            raise UsageError("divisor multiple must be a positive integer")
        n = self.num_vars
        return Divisor(HomogeneousForm(n, m * self.degree,
                                       _product_raw([(self.form.terms, m)], n)))

    def __repr__(self):
        return f"Divisor({self.form!r})"

    def contains_hyperplane_at_infinity(self) -> bool:
        return slice_form(self.form, 0).is_zero()

    def contains_origin_point(self) -> bool:
        # the point (0, ..., 0, 1)
        return slice_form(self.form, self.degree).is_zero()

    def to_json_dict(self) -> dict:
        return self.form.to_json_dict()

    @staticmethod
    def from_json_dict(obj: dict) -> "Divisor":
        return Divisor(HomogeneousForm.from_json_dict(obj))

    @staticmethod
    def point(z: Fraction) -> "Divisor":
        """The divisor [z] on P^1 (form X1 - z X2)."""
        z = Fraction(z)
        return Divisor(HomogeneousForm(2, 1, {(1, 0): Fraction(1), (0, 1): -z}))


class MinCritMap:
    """f(X) = A X^d + b with A in SL_N, together with the block matrix
    L = [[A, b], [0, 1]] and its exact inverse; f = L o phi."""

    __slots__ = ("N", "d", "A", "b", "L", "L_inv", "A_inv")

    def __init__(self, N: int, d: int, A, b):
        if N < 1 or d < 2:
            raise UsageError("need N >= 1 and d >= 2")
        A = [[Fraction(x) for x in row] for row in A]
        b = [Fraction(x) for x in b]
        if len(A) != N or any(len(r) != N for r in A) or len(b) != N:
            raise UsageError("A must be NxN and b length N")
        if det_exact(A) != 1:
            raise UsageError("A must have determinant exactly 1")
        L = [row + [b[i]] for i, row in enumerate(A)]
        L.append([Fraction(0)] * N + [Fraction(1)])
        # L is block upper triangular, so A^{-1} is the top-left block of L^{-1}
        L_inv = matrix_inverse_exact(L)
        A_inv = [row[:N] for row in L_inv[:N]]
        self.N, self.d = N, d
        self.A, self.b, self.L, self.L_inv, self.A_inv = A, b, L, L_inv, A_inv

    @staticmethod
    def from_json_dict(obj: dict) -> "MinCritMap":
        try:
            N = int(obj["N"])
            d = int(obj["d"])
            A = [[parse_rational(x) for x in row] for row in obj["A"]]
            b = [parse_rational(x) for x in obj["b"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed map JSON: {exc}") from exc
        return MinCritMap(N, d, A, b)

    @staticmethod
    def from_json(s: str) -> "MinCritMap":
        return MinCritMap.from_json_dict(json.loads(s))

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "d": self.d,
            "A": [[format_rational(x) for x in row] for row in self.A],
            "b": [format_rational(x) for x in self.b],
        }

    def __repr__(self):
        return f"MinCritMap(N={self.N}, d={self.d}, A={self.A}, b={self.b})"


def unicritical_map(d: int, c: Fraction) -> MinCritMap:
    """The N=1 map z -> z^d + c (A is forced to (1) in SL_1)."""
    return MinCritMap(1, d, [[Fraction(1)]], [Fraction(c)])


# ---------------------------------------------------------------------------
# local functionals
# ---------------------------------------------------------------------------

def lambda_local(D: Divisor, v: Place) -> LocalLog:
    """lambda_v(D) = log||F||_v - log||F|_H||_v; +inf if D contains H."""
    return _lambda_terms(_raw_terms(D), v)


def _lambda_terms(terms: dict, v: Place) -> LocalLog:
    """lambda_v of the divisor whose canonical form has the integer terms
    given: log max|c| - log max|c_0| over all coefficients c and those c_0
    of slice 0 at infinity, and v_p(content of slice 0) log p at p, since
    the form is primitive; +inf if slice 0 vanishes."""
    bottom = [c for e, c in terms.items() if not e[-1]]
    if not bottom:
        return LocalLog.pos_inf(v)
    if v.is_arch:
        top, top0 = max(map(abs, terms.values())), max(map(abs, bottom))
        return LocalLog.arch(mp.log(mp.mpf(top)) - mp.log(mp.mpf(top0)))
    p = v.p
    if any(c % p for c in bottom):
        return LocalLog.padic(v, Fraction(0))
    return LocalLog.padic(v, Fraction(min(vp_int(c, p) for c in bottom)))


def mu_local(D: Divisor, v: Place) -> LocalLog:
    """mu_v(D) = min over 0 <= k < deg of
    (log|F_deg|_v - log||F_k||_v) / (deg - k).

    Requires D to contain neither H nor the point (0,...,0,1); slices with
    F_k = 0 contribute +inf and drop out of the min.
    """
    F = D.form
    deg = D.degree
    if slice_form(F, 0).is_zero():
        raise DomainError("mu undefined: slice 0 vanishes (divisor contains H)")
    top = slice_form(F, deg)
    if top.is_zero():
        raise DomainError(
            f"mu undefined: slice {deg} vanishes (divisor contains (0,..,0,1))")
    top_log = gauss_norm_log(top, v)
    candidates = []
    for k in range(deg):
        Fk = slice_form(F, k)
        if Fk.is_zero():
            continue
        gap = (top_log - gauss_norm_log(Fk, v)).scaled(Fraction(1, deg - k))
        candidates.append(gap)
    return local_min(candidates)


# ---------------------------------------------------------------------------
# push-forward / pull-back
# ---------------------------------------------------------------------------

def _push_raw(f: MinCritMap, terms: dict) -> tuple[dict, Fraction]:
    """One exact step on raw terms: (G', r) with G' the primitive integer
    terms, leading coefficient positive as in canonical_form, of f_* of the
    divisor whose form F has the primitive integer terms given, and r the
    step scalar, G' = r * G(L^{-1} X) for G = phi_* F.  ExactOrbit calls it
    once per component of a divisor, so F is one component (a coordinate
    hyperplane's iterate, or a cofactor's), not their product.

    Content invariant: G is primitive (Gauss's content lemma over
    Z[zeta_d]: content(G) = content(F)^(d^N) = 1), so the content g of
    s * G(L^{-1} X), s the scalar _subst_raw returns, divides
    s * den(L)^deg, den(L) the lcm of the denominators of L and deg the
    degree of G.  The gcd is seeded with that small multiple, so it never
    runs on two large coefficients; r = s / g.

    Valuation invariant: slice 0 of G' is r * (phi_* F_0)(A^{-1} X), so at
    a prime p where A is p-integral v_p of its content is v_p(r) +
    d^N v_p(content F_0) (ExactOrbit); elsewhere it must be read off G'."""
    n = f.N + 1
    deg = sum(next(iter(terms))) * f.d ** (f.N - 1)
    terms, s = _subst_raw(pushforward_terms(terms, f.d, n), f.L_inv, n)
    seed = s * lcm_denominators(x for row in f.L for x in row) ** deg
    g = content(chain((seed,), terms.values()))
    if terms[max(terms)] < 0:
        g = -g
    return {e: c // g for e, c in terms.items()}, Fraction(s, g)


def _raw_terms(D: Divisor) -> dict:
    """The integer terms of D's canonical form."""
    return {e: c.numerator for e, c in D.form.terms.items()}


def _raw_divisor(terms: dict) -> Divisor:
    """The divisor of integer terms that are already canonical, as _push_raw
    returns them; their content is not computed again (on a large iterate
    that gcd costs as much as the step's own)."""
    exps = next(iter(terms))
    form = HomogeneousForm(len(exps), sum(exps),
                           {e: Fraction(c) for e, c in terms.items()})
    D = object.__new__(Divisor)
    object.__setattr__(D, "form", form)
    object.__setattr__(D, "degree", form.degree)
    return D


def _components(terms: dict) -> list[tuple[dict, int]]:
    """D = sum_i m_i D_i for D the divisor of the canonical integer terms
    given: the coordinate hyperplanes [X_i = 0], each with its exponent in
    the monomial factor of the form, then the cofactor when it is not
    constant.  A form with no monomial factor (a generic one, or one of
    degree 0) is its own one component.  Each component's terms are
    canonical: the cofactor has the form's coefficients."""
    n = len(next(iter(terms)))
    low = [min(e[i] for e in terms) for i in range(n)]
    comps = [({tuple(int(i == j) for j in range(n)): 1}, m)
             for i, m in enumerate(low) if m]
    rest = {tuple(a - b for a, b in zip(e, low)): c for e, c in terms.items()}
    if len(rest) > 1 or not comps:
        comps.append((rest, 1))
    return comps


class ExactOrbit:
    """The exact iterates f_*^j D of a divisor, j = depth, on raw integer
    terms, with the slice-0 valuations carried along.

    D is carried as components with multiplicities, D = sum_i m_i D_i
    (_components; C_f is [(X_i, d-1)]), and each step pushes every
    component by itself with _push_raw, since f_* is additive.  A step's
    cost grows about as (terms)^2 x M(bits), so pushing the degree-1
    hyperplanes of C_f and multiplying their images is far cheaper than
    pushing (X_1...X_N)^(d-1).  After each step the canonical components
    are multiplied into terms, and the step scalar is r = prod r_i^(m_i).
    Four facts make terms and r bit-identical to one _push_raw of the
    product form:
    - the norm is multiplicative: phi_*(FG) = phi_*F * phi_*G;
    - substitution commutes with products: (FG)(L^{-1} X) is
      F(L^{-1} X) G(L^{-1} X);
    - a product of primitive forms is primitive (Gauss's lemma);
    - the lex-leading coefficient of a product is the product of the
      lex-leading coefficients, so a product of canonical forms is
      canonical.

    components are the (terms, multiplicity) pairs of f_*^depth D_i,
    terms the primitive integer terms of the canonical form of
    f_*^depth D, each step's content taken by _push_raw's seeded gcd, and
    vals maps the prime p of each tracked place at which A is p-integral
    to v_p(content of slice 0 of terms).

    Valuation invariant: slice 0 of the next iterate is
    r * (phi_* F_0)(A^{-1} X), r the step scalar of _push_raw, and
    phi_* F_0 has content content(F_0)^(d^N).  An A that is p-integral has
    det 1, so A^{-1} is p-integral too and the substitution keeps the
    p-adic content: v <- v_p(r) + d^N v, with no valuation of a large
    coefficient.  Where A is not p-integral the substitution can change the
    content, so lambda_p is read off the iterate, as at infinity.
    """

    __slots__ = ("f", "components", "terms", "depth", "vals")

    def __init__(self, f: MinCritMap, D: Divisor, places=()):
        """The orbit of D, tracking the finite places given.  A D that
        contains H tracks none: f_* keeps H, so lambda stays +inf."""
        self.f, self.terms, self.depth = f, _raw_terms(D), 0
        self.components = _components(self.terms)
        if D.contains_hyperplane_at_infinity():
            places = ()
        den_A = lcm_denominators(x for row in f.A for x in row)
        self.vals = {v.p: _lambda_terms(self.terms, v).r
                     for v in places if den_A % v.p}

    def step(self) -> Fraction:
        """Advance one step and return its scalar r; on BitBudgetError (a
        coefficient over DEFAULT_BIT_BUDGET bits) the orbit is left as it
        was."""
        f = self.f
        pushed = [(_push_raw(f, c), m) for c, m in self.components]
        components = [(g, m) for (g, _), m in pushed]
        terms = _product_raw(components, f.N + 1)
        _check_budget(terms)
        r = prod(r_i ** m for (_, r_i), m in pushed)
        dN = f.d ** f.N
        self.vals = {p: vp(r, p) + dN * v for p, v in self.vals.items()}
        self.components, self.terms, self.depth = components, terms, self.depth + 1
        return r

    def lam(self, v: Place) -> LocalLog:
        """lambda_v of the current iterate."""
        if v.p in self.vals:
            return LocalLog.padic(v, self.vals[v.p])
        return _lambda_terms(self.terms, v)


def pushforward_map(f: MinCritMap, D: Divisor) -> Divisor:
    """f_* D = L_* phi_* D with L_* = (L^{-1})^*, exactly.

    Equivalent to compose_linear(power_pushforward(F, d), L_inv) but run on
    raw integer coefficients (the canonical form is integral, and the
    scalar of the substitution drops out in canonicalization), one
    ExactOrbit step, so component by component.
    """
    _check_dim(f, D)
    orbit = ExactOrbit(f, D)
    orbit.step()
    return _raw_divisor(orbit.terms)


def pullback_map(f: MinCritMap, D: Divisor) -> Divisor:
    """f^* D, defined by F(L(X^d))."""
    _check_dim(f, D)
    G = compose_linear(D.form, f.L)
    return Divisor(power_pullback(G, f.d))


def pullback_translation(c, D: Divisor) -> Divisor:
    """T_c^* D for the translation X_i -> X_i + c_i X_{N+1}."""
    n = D.num_vars
    c = [Fraction(x) for x in c]
    if len(c) != n - 1:
        raise UsageError("translation vector must have length N")
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, ci in enumerate(c):
        M[i][n - 1] = ci
    return Divisor(compose_linear(D.form, M))


def critical_divisor(f: MinCritMap) -> Divisor:
    """C_f: the finite part of the critical locus, (X_1...X_N)^(d-1) = 0."""
    exps = tuple([f.d - 1] * f.N + [0])
    return Divisor(HomogeneousForm(f.N + 1, f.N * (f.d - 1), {exps: Fraction(1)}))


def _check_dim(f: MinCritMap, D: Divisor) -> None:
    if D.num_vars != f.N + 1:
        raise UsageError(f"divisor lives on P^{D.N}, map on P^{f.N}")


def _check_budget(terms: dict) -> None:
    """Raise BitBudgetError if an integer coefficient exceeds
    DEFAULT_BIT_BUDGET bits."""
    if max(abs(c).bit_length() for c in terms.values()) > DEFAULT_BIT_BUDGET:
        raise BitBudgetError(f"coefficient exceeds {DEFAULT_BIT_BUDGET} bits; "
                             "use scaled mode or lower k")


# ---------------------------------------------------------------------------
# truncated relative escape rate with certified tail
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """A value with a certified error radius: the limit quantity lies in
    [value - error, value + error]."""

    value: LocalLog
    error: LocalLog
    iterations_used: int
    place: Place
    mode: str = "exact"

    def value_float(self) -> float:
        return self.value.to_float()

    def error_float(self) -> float:
        return self.error.to_float()

    def to_json_dict(self, digits: int = 17) -> dict:
        return {
            "value": mp.nstr(self.value.to_mpf(), digits),
            "error": mp.nstr(self.error.to_mpf(), digits),
            "k": self.iterations_used,
            "place": repr(self.place),
            "mode": self.mode,
        }


def delta_step_constant(f: MinCritMap, v: Place) -> LocalLog:
    """Per-step contraction constant of the telescoping bound:
    d^{-1}(log||L|| - log||A|| + lambda(L) + lambda(A) + c2) + 4N log^+|2|.
    """
    N, d = f.N, f.d
    consts = _places.place_constants(N, d, v)
    inner = (matrix_norm_log(f.L, v) - matrix_norm_log(f.A, v)
             + matrix_lambda(f.L, v) + matrix_lambda(f.A, v) + consts.c2)
    return inner.scaled(Fraction(1, d)) + log_plus_int(2, v).scaled(4 * N)


def delta_tail_bound(f: MinCritMap, deg: int, k: int, v: Place) -> LocalLog:
    """Certified bound on |Delta_f(D) - lambda(f_*^k D)/d^{kN}| for an
    effective divisor of the given degree (telescoped from the one-step
    estimate)."""
    N, d = f.N, f.d
    consts = _places.place_constants(N, d, v)
    step = delta_step_constant(f, v)
    geom = Fraction(d) ** (-k) / (1 - Fraction(1, d))
    tail = step.scaled(deg * geom)
    c1_geom = Fraction(d) ** (-N * (k + 1)) / (1 - Fraction(d) ** (-N))
    return tail + consts.c1.scaled(c1_geom)


def scaled_depth(N: int, d: int, deg: int, k: int) -> int:
    """Deepest j <= k whose scaled steps, from a divisor of degree deg, are
    all predicted to fit SCALED_STEP_BYTES."""
    for j in range(k):
        if step_bytes(N, d, deg) > SCALED_STEP_BYTES:
            return j
        deg *= d ** (N - 1)
    return k


def truncated_estimate(f: MinCritMap, deg: int, lam: LocalLog, k: int,
                       mode: str = "exact") -> Estimate:
    """Estimate of Delta_v(D) for D of degree deg, read off
    lam = lambda_v(f_*^k D): lam / d^{kN} with the certified tail bound as
    error."""
    v = lam.place
    return Estimate(value=lam.scaled(Fraction(1, f.d ** (f.N * k))),
                    error=delta_tail_bound(f, deg, k, v),
                    iterations_used=k, place=v, mode=mode)


def exact_fits(f: MinCritMap, terms: dict, steps: int) -> bool:
    """Whether the exact iterate that many steps past the integer terms
    given is predicted to fit: at most EXACT_STEP_BITS coefficient bits in
    all (terms x bits) and at most DEFAULT_BIT_BUDGET bits a coefficient.
    A step multiplies the degree by d^(N-1), so the number of terms by
    about d^(N(N-1)), capped at C(deg + N, N), the number of monomials of
    the iterate's degree deg, and the coefficient bits by d^N.  This is the
    one size rule for every exact depth: infinity asks it with the steps
    left to k, to choose exact or scaled; a bad prime asks it one step
    ahead, to choose whether to step again."""
    N, d = f.N, f.d
    deg = sum(next(iter(terms))) * d ** ((N - 1) * steps)
    bits = max(abs(c).bit_length() for c in terms.values()) * d ** (N * steps)
    count = min(len(terms) * d ** (N * (N - 1) * steps), comb(deg + N, N))
    return count * bits <= EXACT_STEP_BITS and bits <= DEFAULT_BIT_BUDGET


def delta_estimate(f: MinCritMap, D: Divisor, k: int, v: Place,
                   mode: str | None = None) -> Estimate:
    """Truncation lambda_v(f_*^k D) / d^{kN} of the relative escape rate,
    with the certified tail bound as error.

    mode 'exact' iterates primitive integer forms (any place; aborts past
    DEFAULT_BIT_BUDGET coefficient bits); 'scaled' (archimedean only)
    iterates renormalized floats, refusing up front (BitBudgetError) when a
    step is predicted to need more than SCALED_STEP_BYTES.  Default: exact
    at a finite place; at the archimedean place exact while exact_fits
    predicts, before each step, that the iterate at depth k fits, else
    scaled from D.  The Estimate's mode says which one ran.
    """
    _check_dim(f, D)
    if k < 0:
        raise UsageError("k must be >= 0")
    if D.contains_hyperplane_at_infinity():
        raise DomainError("Delta is undefined for divisors containing H")
    if mode not in (None, "scaled", "exact"):
        raise UsageError(f"unknown mode {mode!r}")
    if mode == "scaled" and not v.is_arch:
        raise UsageError("scaled mode is only valid at the archimedean place")
    d, N = f.d, f.N
    if mode != "scaled":
        orbit = ExactOrbit(f, D, () if v.is_arch else (v,))
        for _ in range(k):
            if (mode is None and v.is_arch
                    and not exact_fits(f, orbit.terms, k - orbit.depth)):
                break
            orbit.step()
        else:
            return truncated_estimate(f, D.degree, orbit.lam(v), k)
    if N >= 3:
        # a cost refusal: SlicedForm takes any N, but this is ~1e10 floats
        # for the critical divisor at N=3, d=2, k=5
        raise UsageError("scaled mode is refused for N >= 3: the k-th iterate "
                         "holds about (deg * d^(k(N-1)))^N floats")
    j = scaled_depth(N, d, D.degree, k)
    if j < k:  # refuse before allocating anything
        raise BitBudgetError(f"scaled step {j + 1} is predicted to need over "
                             f"{SCALED_STEP_BYTES >> 20} MiB; lower k to {j}")
    S = SlicedForm.from_form(D.form)
    for _ in range(k):
        S = S.power_push(d).compose_lshape(f.L_inv)
    return truncated_estimate(f, D.degree, LocalLog.arch(mp.mpf(S.lam())), k, "scaled")


def delta_relative_critical(f: MinCritMap, k: int, v: Place,
                            mode: str | None = None) -> Estimate:
    """delta_estimate at the critical divisor C_f."""
    return delta_estimate(f, critical_divisor(f), k, v, mode=mode)
