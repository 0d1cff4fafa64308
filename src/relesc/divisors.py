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
from math import comb

import mpmath as mp

from .forms import (HomogeneousForm, _elementary, _product_raw, _subst_raw,
                    compose_linear, form_product, power_pullback,
                    pushforward_terms, slice_form)
from . import places as _places
from .places import (INF, LocalLog, Place, gauss_norm_log, local_min,
                     log_plus_int, matrix_lambda, matrix_norm_log)
from .rational import (BitBudgetError, DomainError, UsageError, content,
                       det_exact, lcm_denominators, matrix_inverse_exact,
                       parse_rational, format_rational, vp, vp_int)
from .scaled import SlicedForm, step_bytes

DEFAULT_BIT_BUDGET = 1 << 20
# the float read at infinity stops before a step predicted to need more
# memory than this (scaled_depth)
SCALED_STEP_BYTES = 1 << 30
# exact_fits' bound on an iterate's coefficient bits, terms x bits, and
# _components_fit's on the sum over the reduced components of one step.
# Past it infinity reads in floats off the components: on six N=2, d=2
# global-heights maps at k=5 (A = I or [[1,1],[0,1]], b = (a/11, c/13);
# best of 5, 2-core Xeon, Python 3.11, no gmpy2) the components take
# 0.3-4.2 ms and their float product 4.3-4.5 ms, against 3.6 ms (A = I) to
# 146 ms for the exact product.  The value stays: moving it moves the
# benchmark digests that read the exact product.
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
    L = [[A, b], [0, 1]], its exact inverse and the elementary operations
    of the inverse (L_inv_ops, as _subst_raw takes them); f = L o phi."""

    __slots__ = ("N", "d", "A", "b", "L", "L_inv", "A_inv", "L_inv_ops")

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
        self.L_inv_ops = _elementary(L_inv, N + 1)

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

def _push_raw(f: MinCritMap, terms: dict,
              twisted: tuple[int, ...] | None = None) -> tuple[dict, Fraction]:
    """One exact step on raw terms: (G', r) with G' the primitive integer
    terms, leading coefficient positive as in canonical_form, of f_* of the
    divisor whose form F has the primitive integer terms given, and r the
    step scalar, G' = r * G(L^{-1} X) for G = phi_* F.  ExactOrbit calls it
    once per component of a divisor, so F is one component (a coordinate
    hyperplane's iterate, or a cofactor's), not their product.

    twisted, when given, holds every twisted variable x_v (v < N) that F
    contains, and the push runs over those u variables alone
    (pushforward_terms): then f_* [F] = d^(N - u) [G'], and r is the
    d^(N - u)-th root of the full push's scalar.  With u = 0 (H, or a form
    of degree 0) F is kept and r = 1, with f_* [F] = d^(N - 1) [F]: L^{-1}
    fixes X_{N+1}.  None pushes all N variables.

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
    if twisted is None:
        twisted = tuple(range(f.N))
    elif not twisted:
        return terms, Fraction(1)
    deg = sum(next(iter(terms))) * f.d ** (len(twisted) - 1)
    terms, s = _subst_raw(pushforward_terms(terms, f.d, n, twisted), f.L_inv_ops, n)
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

    D is carried as reduced components with multiplicities,
    D = sum_i m_i D_i (_components; C_f is [(X_i, d-1)]), and each step
    pushes every component by itself with _push_raw, since f_* is
    additive, over only the u twisted variables it contains:
    f_* D_i = d^(N - u) [D_i'], so the multiplicity of D_i' is
    m_i d^(N - u), or m_i d^(N - 1) for u = 0.  A step's cost grows about
    as (terms)^2 x M(bits), so pushing lines is far cheaper than pushing
    their product: for A = I every component stays a line in
    (x_i, X_{N+1}), an N=1 point orbit, and under an upper-triangular A
    the last one stays a line in (x_N, X_{N+1}).  The step scalar is
    r = prod r_i^(m_i'), m_i' the new multiplicities.

    terms, the primitive integer terms of the canonical form of f_*^depth D,
    is the product prod_i (D_i')^(m_i') (_product_raw, by repeated
    squaring), formed the first time it is read at a depth; lam at a
    prime never reads it, and infinity's float read (infinity_estimate)
    steps the components on in floats instead.  Five facts make terms and r
    bit-identical to one full _push_raw of the product form:
    - the mu_d norm in a variable x of a form without x is its d-th
      power, so the full push of D_i is the reduced one to d^(N - u);
    - the norm is multiplicative: phi_*(FG) = phi_*F * phi_*G;
    - substitution commutes with products: (FG)(L^{-1} X) is
      F(L^{-1} X) G(L^{-1} X);
    - a product of primitive forms is primitive (Gauss's lemma);
    - the lex-leading coefficient of a product is the product of the
      lex-leading coefficients, so a product of canonical forms is
      canonical.

    components are the (terms, multiplicity) pairs of the reduced
    f_*^depth D_i, each step's content taken by _push_raw's seeded gcd,
    and vals maps the prime p of each tracked place at which A is
    p-integral to v_p(content of slice 0 of terms).

    Valuation invariant: slice 0 of the next iterate is
    r * (phi_* F_0)(A^{-1} X), r the step scalar, and phi_* F_0 has
    content content(F_0)^(d^N).  An A that is p-integral has det 1, so
    A^{-1} is p-integral too and the substitution keeps the p-adic
    content: v <- v_p(r) + d^N v, with no valuation of a large
    coefficient.  Where A is not p-integral the substitution can change the
    content, so lambda_p is summed over the components (lam).
    """

    __slots__ = ("f", "components", "depth", "vals", "_terms")

    def __init__(self, f: MinCritMap, D: Divisor, places=()):
        """The orbit of D, tracking the finite places given.  A D that
        contains H tracks none: f_* keeps H, so lambda stays +inf."""
        self.f, self._terms, self.depth = f, _raw_terms(D), 0
        self.components = _components(self._terms)
        if D.contains_hyperplane_at_infinity():
            places = ()
        den_A = lcm_denominators(x for row in f.A for x in row)
        self.vals = {v.p: _lambda_terms(self._terms, v).r
                     for v in places if den_A % v.p}

    @property
    def terms(self) -> dict:
        """The integer terms of the current iterate, the product of the
        components, formed once a depth."""
        if self._terms is None:
            self._terms = _product_raw(self.components, self.f.N + 1)
        return self._terms

    def step(self) -> Fraction:
        """Advance one step and return its scalar r; on BitBudgetError
        (_check_budget of the new components) the orbit is left as it
        was."""
        f = self.f
        N, d = f.N, f.d
        components, r = [], Fraction(1)
        for c, m in self.components:
            twisted = tuple(v for v in range(N) if any(e[v] for e in c))
            g, r_i = _push_raw(f, c, twisted)
            m *= d ** (N - max(len(twisted), 1))
            components.append((g, m))
            r *= r_i ** m
        _check_budget(components)
        dN = d ** N
        self.vals = {p: vp(r, p) + dN * v for p, v in self.vals.items()}
        self.components, self._terms, self.depth = components, None, self.depth + 1
        return r

    def lam(self, v: Place) -> LocalLog:
        """lambda_v of the current iterate: at infinity off terms, at a
        tracked prime the carried valuation, and at any other prime
        sum_i m_i lambda_p(D_i), +inf if a component contains H.  That sum
        is exact (Gauss's lemma): slice 0 of the product is the product of
        the components' slices 0, and the p-adic content is
        multiplicative."""
        if v.is_arch:
            return _lambda_terms(self.terms, v)
        if v.p in self.vals:
            return LocalLog.padic(v, self.vals[v.p])
        parts = [(_lambda_terms(c, v), m) for c, m in self.components]
        if any(lam.kind == "pos" for lam, _ in parts):
            return LocalLog.pos_inf(v)
        return LocalLog.padic(v, sum(m * lam.r for lam, m in parts))


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


def _check_budget(components: list[tuple[dict, int]]) -> None:
    """Raise BitBudgetError if the components (terms of D_i, m_i) of an
    iterate have sum_i m_i * bits(max |c| of D_i) over DEFAULT_BIT_BUDGET.
    That is the bit length of prod_i (max |c| of D_i)^(m_i), within
    sum_i m_i log2(terms of D_i) bits of the largest coefficient of the
    product, and it is read without forming the product; for one component
    of multiplicity 1 it is that coefficient's bit length."""
    bits = sum(m * max(abs(c) for c in terms.values()).bit_length()
               for terms, m in components)
    if bits > DEFAULT_BIT_BUDGET:
        raise BitBudgetError(f"coefficient exceeds {DEFAULT_BIT_BUDGET} bits; "
                             "lower k")


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


def delta_step_constant(f: MinCritMap, v: Place, consts) -> LocalLog:
    """Per-step contraction constant of the telescoping bound:
    d^{-1}(log||L|| - log||A|| + lambda(L) + lambda(A) + c2) + 4N log^+|2|,
    consts the place_constants(N, d, v)."""
    inner = (matrix_norm_log(f.L, v) - matrix_norm_log(f.A, v)
             + matrix_lambda(f.L, v) + matrix_lambda(f.A, v) + consts.c2)
    return inner.scaled(Fraction(1, f.d)) + log_plus_int(2, v).scaled(4 * f.N)


def delta_tail_bound(f: MinCritMap, deg: int, k: int, v: Place) -> LocalLog:
    """Certified bound on |Delta_f(D) - lambda(f_*^k D)/d^{kN}| for an
    effective divisor of the given degree (telescoped from the one-step
    estimate)."""
    N, d = f.N, f.d
    consts = _places.place_constants(N, d, v)
    step = delta_step_constant(f, v, consts)
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


def _predicted_bits(f: MinCritMap, terms: dict, steps: int) -> int:
    """The coefficient bits in all (terms x bits) predicted for the exact
    iterate that many steps past the integer terms given.  A step
    multiplies the degree by d^(N-1), so the number of terms by about
    d^(N(N-1)), capped at C(deg + N, N), the number of monomials of the
    iterate's degree deg, and the coefficient bits by d^N."""
    N, d = f.N, f.d
    deg = sum(next(iter(terms))) * d ** ((N - 1) * steps)
    bits = max(abs(c).bit_length() for c in terms.values()) * d ** (N * steps)
    count = min(len(terms) * d ** (N * (N - 1) * steps), comb(deg + N, N))
    return count * bits


def exact_fits(f: MinCritMap, terms: dict, steps: int) -> bool:
    """Whether the exact iterate that many steps past the integer terms
    given is predicted to fit EXACT_STEP_BITS.  This is the size rule for
    the exact product, which only infinity's first read forms
    (infinity_estimate).  Steps that read no product (the float read's
    components, the bad primes of a height) ask _components_fit."""
    return _predicted_bits(f, terms, steps) <= EXACT_STEP_BITS


def _components_fit(f: MinCritMap, components: list[tuple[dict, int]]) -> bool:
    """Whether the next step of an orbit's reduced components is predicted
    to fit EXACT_STEP_BITS: exact_fits' prediction one step ahead, summed
    over the components (each is pushed by itself, so its multiplicity
    costs nothing)."""
    return sum(_predicted_bits(f, c, 1) for c, _ in components) <= EXACT_STEP_BITS


def infinity_estimate(f: MinCritMap, D: Divisor, orbit: ExactOrbit,
                      k: int) -> Estimate:
    """lambda at infinity of f_*^j D over d^{jN}, j <= k, by the library's
    rule, stepping orbit (of D) on; two reads:

    1. While exact_fits admits the steps left to k (N <= 2, where a float
       read can take over) or the next one (N >= 3), step; read lambda off
       the exact product at k, or for N >= 3 where the steps stopped (mode
       'exact').
    2. Else, for N <= 2, a float read at j = scaled_depth(N, d, deg D, k),
       or the exact product if read 1 already went past j.  For N = 2 the
       exact components first step on towards j while _components_fit
       admits the next step.  Each component then steps on in floats from
       the orbit's depth to j as ExactOrbit.step does exactly (power_push
       over the twisted variables it contains, multiplicity times
       d^(N - max(u, 1)), compose_lshape), and lambda is read off their
       float product (mode 'scaled').  The orbit is left at its exact depth.

    A BitBudgetError of a step leaves the orbit where it was; for N <= 2 it
    ends the exact phase, for N >= 3 it is raised."""
    N, deg = f.N, D.degree
    try:
        while orbit.depth < k and exact_fits(f, orbit.terms, k - orbit.depth if N <= 2 else 1):
            orbit.step()
    except BitBudgetError:
        if N >= 3:
            raise
    j = orbit.depth if orbit.depth == k or N >= 3 else scaled_depth(N, f.d, deg, k)
    if orbit.depth >= j:
        return truncated_estimate(f, deg, orbit.lam(INF), orbit.depth)
    try:
        while N == 2 and orbit.depth < j and _components_fit(f, orbit.components):
            orbit.step()
    except BitBudgetError:
        pass
    lam = _float_lam(f, orbit.components, j - orbit.depth)
    return truncated_estimate(f, deg, LocalLog.arch(mp.mpf(lam)), j, "scaled")


def _float_lam(f: MinCritMap, components: list[tuple[dict, int]], steps: int) -> float:
    """lambda at infinity of the iterate that many steps past the reduced
    components (terms of D_i, m_i) given, in floats: each component steps
    on by itself as in ExactOrbit.step, and lambda is read off the product
    of the components raised to their multiplicities by squaring."""
    N, d = f.N, f.d
    product = None
    for c, m in components:
        S = SlicedForm.from_terms(c)
        for _ in range(steps):
            twisted = S.twisted_vars()
            if twisted:
                S = S.power_push(d, twisted).compose_lshape(f.L_inv)
            m *= d ** (N - max(len(twisted), 1))
        S = S.pow(m)
        product = S if product is None else product.mul(S)
    return product.lam()


def delta_estimate(f: MinCritMap, D: Divisor, k: int, v: Place,
                   mode: str | None = None) -> Estimate:
    """Truncation lambda_v(f_*^k D) / d^{kN} of the relative escape rate,
    with the certified tail bound as error.

    mode 'exact' iterates primitive integer forms to k at any place,
    raising BitBudgetError at a step whose components (terms of D_i, m_i)
    have sum_i m_i * bits(max |c| of D_i) over DEFAULT_BIT_BUDGET
    (_check_budget); at a prime the estimate never multiplies the
    components.  The default, None, is that at a finite place; at infinity
    it is infinity_estimate, the exact product or the float read off the
    exact orbit's components, and a read below k raises BitBudgetError with
    the depth to ask for.  The Estimate's mode says whether a float read
    ran.
    """
    _check_dim(f, D)
    if k < 0:
        raise UsageError("k must be >= 0")
    if D.contains_hyperplane_at_infinity():
        raise DomainError("Delta is undefined for divisors containing H")
    if mode not in (None, "exact"):
        raise UsageError(f"unknown mode {mode!r}")
    orbit = ExactOrbit(f, D, () if v.is_arch else (v,))
    if mode is None and v.is_arch:
        est = infinity_estimate(f, D, orbit, k)
        j = est.iterations_used
        if j < k and est.mode == "scaled":
            raise BitBudgetError(f"scaled step {j + 1} is predicted to need over "
                                 f"{SCALED_STEP_BYTES >> 20} MiB; lower k to {j}")
        if j < k:
            raise BitBudgetError(f"exact step {j + 1} is predicted over "
                                 f"{EXACT_STEP_BITS} bits; lower k to {j}")
        return est
    while orbit.depth < k:
        orbit.step()
    return truncated_estimate(f, D.degree, orbit.lam(v), k)


def delta_relative_critical(f: MinCritMap, k: int, v: Place) -> Estimate:
    """delta_estimate at the critical divisor C_f, by the library's rule."""
    return delta_estimate(f, critical_divisor(f), k, v)
