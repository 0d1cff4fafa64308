"""Renormalized floating-point forms for archimedean escape rates.

Pushing a divisor forward k times scales log||F|| by d^{kN}, so raw
coefficients overflow/underflow any fixed-precision format almost
immediately.  This backend, for N = 1 and 2, stores a homogeneous form in
X_1..X_{N+1} slice by slice in the last variable.  Slice s is a dense numpy
array over the exponent of X_1 for N = 2 (0-d for N = 1), the exponent of
X_N being implied by the degree, together with a log-scale offset; it is
renormalized to unit max-norm after every operation.  lambda and the Gauss
log-norm only need coefficient ratios, so the offsets carry all the
magnitude information.

compose_lshape works on slabs: a batch of forms of one degree t held as one
zero-padded array with a batch axis, a slice axis and, for N = 2, an X_1
exponent axis of length t+1, beside a (batch, slice) array of offsets in
which -inf marks an absent slice.  Nested Horner over X_1..X_N is one Horner
chain per head of X_1..X_{j-1} exponents at each level j: one chain in X_1,
and for N = 2 one chain in X_2 per exponent of X_1.  The chains of a level
are independent and every live one has degree t at step t, so a level
advances as one slab, its chains ordered so that the live ones are a
prefix; the chains that finish at step t are the next level's step-t
summands.  That is a few dozen array operations per step instead of a
handful per chain and slice.  Its rounding is not in any error bound.

The backend serves the float read at infinity (divisors.infinity_estimate).
It takes the reduced components of an exact orbit where the exact steps
stopped, steps each one on by itself (from_terms, power_push over the
twisted variables it contains, compose_lshape), and reads lambda off their
product, each raised to its multiplicity by squaring (pow, mul).

A slice of a degree-D form holds (D - s + 1)^(N-1) floats and the degree
grows like d^{N-1} per push-forward step, which is why the float read stops
at divisors.scaled_depth, the deepest depth whose steps step_bytes predicts
to fit; the float product has the degree of that iterate.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .rational import InternalError, UsageError

_NEG_INF = float("-inf")


def _log_abs_fraction(x) -> float:
    # robust for huge numerators/denominators
    if x == 0:
        return _NEG_INF
    n, d = abs(x.numerator), x.denominator
    return (math.log2(n) - math.log2(d)) * math.log(2.0)


def _max_abs(arr: np.ndarray) -> float:
    # the ufunc's own reduce skips np.max's wrapper, which is most of the
    # cost on small slices
    return float(np.maximum.reduce(np.abs(arr), axis=None))


def _renorm(off: float, arr: np.ndarray):
    m = _max_abs(arr)
    if m == 0.0 or not math.isfinite(m):
        return None
    return (off + math.log(m), arr / m)


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two slices: scalars for N = 1, vectors for N = 2."""
    return np.convolve(a, b) if a.ndim else a * b


# -- slabs: batches of forms of one degree ------------------------------------

def _exp_diff(x: np.ndarray, o: np.ndarray) -> np.ndarray:
    """exp(x - o) where x is finite, 0 where x is -inf (an absent row)."""
    f = np.zeros(x.shape)
    live = x != _NEG_INF
    f[live] = np.exp(x[live] - o[live])
    return f


def _renorm_rows(acc: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Scale the rows of acc (its leading axes are those of o) to unit
    max-norm in place and return their new offsets; a row whose max is 0
    or not finite gets offset -inf and is zeroed."""
    # max |x| as max(max x, -min x): the same float, without an |acc| copy
    box = tuple(range(o.ndim, acc.ndim))
    m = np.maximum(np.maximum.reduce(acc, axis=box), -np.minimum.reduce(acc, axis=box))
    keep = np.isfinite(m) & (m != 0)
    out = np.full(o.shape, _NEG_INF)
    out[keep] = o[keep] + np.log(m[keep])
    acc /= np.where(keep, m, 1.0).reshape(m.shape + (1,) * len(box))
    acc[~keep] = 0
    return out


def _add_rows(X: np.ndarray, O: np.ndarray, Y: np.ndarray, P: np.ndarray) -> None:
    """X, O += Y, P in place, row by row (the leading axes are those of O)."""
    o = np.maximum(O, P)
    to_rows = o.shape + (1,) * (X.ndim - O.ndim)
    X *= _exp_diff(O, o).reshape(to_rows)
    X += Y * _exp_diff(P, o).reshape(to_rows)
    O[...] = _renorm_rows(X, o)


def _mul_linear_rows(A: np.ndarray, O: np.ndarray, off_l: float, coeffs):
    """Multiply each form of a degree-(t-1) slab (A of shape (B, t), or
    (B, t, t) for N = 2, offsets O of shape (B, t)) by exp(off_l) * (c[0]
    X_1 + ... + c[N] X_{N+1}), coeffs of max-norm <= 1; returns the
    degree-t slab.

    Slice s of a product gathers the X_{N+1} part of slice s-1, the X_N
    part of slice s (the implied exponent grows) and, for N = 2, its X_1
    part (the index moves up).  A zero coefficient takes no part in the
    slice's offset."""
    N = len(coeffs) - 1
    B, t = O.shape
    up = np.full((B, t + 1), _NEG_INF)  # the offsets of the X_{N+1} parts
    same = up.copy()  # and of the X_1..X_N parts
    if coeffs[N] != 0:
        up[:, 1:] = O + off_l
    if np.any(coeffs[:N]):
        same[:, :t] = O + off_l
    o = np.maximum(up, same)
    to_rows = (B, t) + (1,) * (N - 1)
    f_up = _exp_diff(up, o)[:, 1:].reshape(to_rows)
    f = _exp_diff(same, o)[:, :t].reshape(to_rows)
    acc = np.zeros((B, t + 1) + (t + 1,) * (N - 1), dtype=np.result_type(A, coeffs))
    corner = (slice(0, t),) * (N - 1)
    acc[(slice(None), slice(1, None)) + corner] += coeffs[N] * f_up * A
    acc[(slice(None), slice(0, t)) + corner] += coeffs[N - 1] * f * A
    if N == 2:
        acc[:, :t, 1:] += coeffs[0] * f * A
    return acc, _renorm_rows(acc, o)


def step_bytes(N: int, d: int, degree: int) -> int:
    """Predicted peak memory of one scaled step, power_push(d) and then
    compose_lshape, on a degree-`degree` form in N + 1 variables.

    Each product of power_push holds the convolutions of all its slice
    pairs at once (complex for d > 2), about 256 bytes of Python objects
    each besides the floats; compose_lshape holds about five slabs of its
    innermost level at the widest step."""
    item = 16 if d > 2 else 8
    peak = 0
    for _ in range(N):
        for j in range(1, d):
            a, b = j * degree, degree
            # the pairs with s1 + s2 = m convolve to (a + b - m + 1)^(N-1) floats
            floats = sum((min(m, a, b, a + b - m) + 1) * (a + b - m + 1) ** (N - 1)
                         for m in range(a + b + 1))
            peak = max(peak, floats * item + (a + 1) * (b + 1) * 256)
        degree *= d
    degree //= d
    widest = max(math.comb(degree - t + N - 1, N - 1) * (t + 1) ** N
                 for t in range(degree + 1))
    return max(peak, 5 * 8 * widest)


class SlicedForm:
    """slices[s] = (offset, arr); the true coefficient of
    X_1^e X_2^(deg-s-e) X_3^s (N = 2) is exp(offset) * arr[e], arr of
    length deg-s+1, and that of X_1^(deg-s) X_2^s (N = 1) is
    exp(offset) * arr, arr 0-d.
    """

    __slots__ = ("N", "degree", "slices")

    def __init__(self, N: int, degree: int, slices: dict):
        if N not in (1, 2):
            raise UsageError("scaled forms serve N = 1 and 2 only")
        self.N = N
        self.degree = degree
        self.slices = slices

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(terms: dict) -> "SlicedForm":
        """The form with the nonzero coefficients given (int or Fraction)
        by exponent tuple."""
        exps = next(iter(terms))
        N, deg = len(exps) - 1, sum(exps)
        raw: dict[int, dict[tuple, object]] = {}
        for exps, c in terms.items():
            raw.setdefault(exps[-1], {})[exps[:N - 1]] = c
        slices = {}
        for s, bucket in raw.items():
            big = max(abs(c) for c in bucket.values())
            arr = np.zeros((deg - s + 1,) * (N - 1))
            for idx, c in bucket.items():
                arr[idx] = float(c / big)
            slices[s] = (_log_abs_fraction(big), arr)
        return SlicedForm(N, deg, slices)

    def to_slab(self) -> tuple:
        """(arr, offs): this form as a one-form slab, arr of shape
        (1, deg+1, deg+1, ...) zero-padded and offs of shape (1, deg+1)."""
        D = self.degree
        arr = np.zeros((1, D + 1) + (D + 1,) * (self.N - 1),
                       dtype=np.result_type(*(a for _, a in self.slices.values())))
        offs = np.full((1, D + 1), _NEG_INF)
        for s, (o, a) in self.slices.items():
            arr[(0, s) + tuple(map(slice, a.shape))] = a
            offs[0, s] = o
        return arr, offs

    @staticmethod
    def from_slab(N: int, arr: np.ndarray, offs: np.ndarray) -> "SlicedForm":
        """The form in row 0 of a slab; its present slices are copied out."""
        D = offs.shape[1] - 1
        return SlicedForm(N, D, {
            s: (float(offs[0, s]), arr[(0, s) + (slice(0, D - s + 1),) * (N - 1)].copy())
            for s in range(D + 1) if offs[0, s] != _NEG_INF})

    # -- norms -------------------------------------------------------------

    def slice_log_norm(self, s: int) -> float:
        if s not in self.slices:
            return _NEG_INF
        off, arr = self.slices[s]
        return off + math.log(_max_abs(arr))

    def log_norm(self) -> float:
        return max(self.slice_log_norm(s) for s in self.slices)

    def lam(self) -> float:
        """log||F|| - log||F_0||; +inf when the slice-0 part vanishes."""
        top = self.log_norm()
        bottom = self.slice_log_norm(0)
        if bottom == _NEG_INF:
            return float("inf")
        return top - bottom

    # -- ring-ish operations -------------------------------------------------

    def mul(self, other: "SlicedForm") -> "SlicedForm":
        if self.N != other.N:
            raise UsageError("N mismatch in scaled mul")
        buckets: dict[int, list] = {}
        for s1, (o1, a1) in self.slices.items():
            for s2, (o2, a2) in other.slices.items():
                buckets.setdefault(s1 + s2, []).append((o1 + o2, _convolve(a1, a2)))
        slices = {}
        for s, parts in buckets.items():
            # each part brought to the largest offset, the sum renormalized
            o = max(po for po, _ in parts)
            ren = _renorm(o, sum(a * math.exp(po - o) for po, a in parts))
            if ren is not None:
                slices[s] = ren
        return SlicedForm(self.N, self.degree + other.degree, slices)

    def pow(self, m: int) -> "SlicedForm":
        """self^m for m >= 1 by left-to-right repeated squaring: one square
        per bit of m below the top one, and one mul by self per further set
        bit."""
        acc = self
        for bit in bin(m)[3:]:
            acc = acc.mul(acc)
            if bit == "1":
                acc = acc.mul(self)
        return acc

    # -- power-map push-forward ----------------------------------------------

    def _twisted(self, var: int, zeta) -> "SlicedForm":
        """Coefficients multiplied by zeta^(exponent of X_{var+1}); var < N."""
        slices = {}
        for s, (o, arr) in self.slices.items():
            idx = np.indices(arr.shape, sparse=True)
            exps = idx[var] if var < arr.ndim else self.degree - s - sum(idx)
            slices[s] = (o, arr * zeta ** exps)
        return SlicedForm(self.N, self.degree, slices)

    def twisted_vars(self) -> tuple[int, ...]:
        """The twisted variables v < N whose X_{v+1} has a nonzero
        coefficient, as ExactOrbit.step reads them off exact terms."""
        N, used = self.N, set()
        for s, (_, arr) in self.slices.items():
            e = np.flatnonzero(arr)  # the X_1 exponents for N = 2
            if N == 2 and e[-1] > 0:
                used.add(0)
            if e[0] < self.degree - s:  # X_N's exponent is implied
                used.add(N - 1)
        return tuple(sorted(used))

    def power_push(self, d: int, twisted=None) -> "SlicedForm":
        """phi_* : the root-of-unity product with exponents divided by d.
        twisted, as in forms.pushforward_terms, holds every twisted variable
        the form contains, and the product runs over those alone; None
        twists all N."""
        if d < 2:
            raise UsageError("power_push needs d >= 2")
        prod = self
        for var in range(self.N) if twisted is None else twisted:
            acc = prod
            for j in range(1, d):
                zeta = cmath.exp(2j * cmath.pi * j / d) if d > 2 else -1.0
                acc = acc.mul(prod._twisted(var, zeta))
            prod = acc
        deg = prod.degree
        if deg % d:
            raise InternalError("push-forward degree not divisible by d")
        every_dth = (slice(None, None, d),) * (self.N - 1)
        out = {}
        for s, (o, arr) in prod.slices.items():
            if s % d:
                # exact cancellation structurally; float residue is noise
                continue
            kept = arr[every_dth]
            if np.iscomplexobj(kept):
                kept = kept.real
            ren = _renorm(o, np.array(kept, dtype=float))
            if ren is not None:
                out[s // d] = ren
        return SlicedForm(self.N, deg // d, out)

    # -- linear substitution by an L-shaped matrix ----------------------------

    def compose_lshape(self, M) -> "SlicedForm":
        """F(M X) for M with last row (0,...,0,1) (exact rational entries).

        Nested Horner over X_1..X_N, every chain of a level advancing in one
        slab (see the module docstring); every intermediate is
        renormalized, so arbitrarily large matrix entries are fine.
        """
        N, D = self.N, self.degree
        n = N + 1
        if len(M) != n or any(len(r) != n for r in M):
            raise UsageError(f"matrix must be {n}x{n}")
        if any(M[n - 1][j] != (1 if j == n - 1 else 0) for j in range(n)):
            raise UsageError("compose_lshape needs last row (0,...,0,1)")
        lins = []
        for i in range(n - 1):
            big = max(abs(x) for x in M[i])
            if big == 0:
                raise UsageError("zero row in matrix")
            off = _log_abs_fraction(big)
            lins.append((off, np.array([float(x / big) for x in M[i]])))
        arr, offs = self.to_slab()
        dtype = arr.dtype
        # the chains of level j (0-based) are in l_{j+1}; before step 0 none
        # has started, so each is a degree -1 form with no slices
        levels = [(np.zeros((math.comb(D + j, j), 0) + (0,) * (N - 1), dtype=dtype),
                   np.full((math.comb(D + j, j), 0), _NEG_INF)) for j in range(N)]
        for t in range(D + 1):
            rest = D - t
            for j in range(N - 1, -1, -1):
                live = math.comb(rest + j, j)
                A, O = _mul_linear_rows(*levels[j], *lins[j])
                if j == N - 1:
                    if offs[0, t] != _NEG_INF:  # the term c X_{N+1}^t of each chain
                        # chain e_1 (N = 2) takes the X_1^e_1 entry of slice t
                        c = arr[0, t].reshape(-1)[:live]
                        term = np.zeros((live,) + (t + 1,) * (N - 1), dtype=dtype)
                        term[(slice(None),) + (0,) * (N - 1)] = c
                        _add_rows(A[:, t], O[:, t], term,
                                  np.where(c != 0, offs[0, t], _NEG_INF))
                else:
                    _add_rows(A, O, *done)
                # the chains that finish at t: the summands of level j - 1
                cut = live - math.comb(rest + j - 1, j - 1) if j else live
                done = (A[cut:], O[cut:])
                levels[j] = (A[:cut], O[:cut])
        out = SlicedForm.from_slab(N, *levels[0])
        if not out.slices:
            raise InternalError("empty scaled form")
        return out
