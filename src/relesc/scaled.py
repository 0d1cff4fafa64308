"""Renormalized floating-point forms for archimedean escape-rate iteration.

Pushing a divisor forward k times scales log||F|| by d^{kN}, so raw
coefficients overflow/underflow any fixed-precision format almost
immediately.  This backend stores a homogeneous form in X_1..X_{N+1} slice
by slice in the last variable.  Slice s is a dense numpy array over the
exponents of X_1..X_{N-1} (0-d for N = 1, a vector for N = 2, a matrix for
N = 3), the exponent of X_N being implied by the degree, together with a
log-scale offset; it is renormalized to unit max-norm after every
operation.  lambda and the Gauss log-norm only need coefficient ratios, so
the offsets carry all the magnitude information.

compose_lshape works on slabs: a batch of forms of one degree t held as one
zero-padded array with a batch axis, a slice axis and N-1 exponent axes of
length t+1, beside a (batch, slice) array of offsets in which -inf marks an
absent slice.  Nested Horner over X_1..X_N is one Horner chain per head of
X_1..X_{j-1} exponents at each level j.  The chains of a level are
independent and every live one has degree t at step t, so a level advances
as one slab, its chains ordered so that the live ones are a prefix; the
chains that finish at step t are the next level's step-t summands.  That is
a few dozen array operations per step instead of a handful per chain and
slice.  The output is bit-identical to the per-slice Horner this replaced:
each element is summed in its order (the X_{N+1} part, then X_1..X_{N-1},
then X_N; a sum's left side first), and the offset factors and logs go
through math.exp / math.log entry by entry as there, since np.exp and
np.log round differently from them on some platforms.

A slice of a degree-D form holds (D - s + 1)^(N-1) floats and the degree
grows like d^{N-1} per push-forward step, which is why
divisors.delta_estimate runs the float orbit only for N <= 2, and refuses
a step whose step_bytes is over its budget.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from operator import sub

import numpy as np

from .forms import HomogeneousForm
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
    # asarray keeps N = 1 slices 0-d arrays, so they multiply through the
    # same ufunc loops as longer slices rather than numpy's scalar math
    return (off + math.log(m), np.asarray(arr / m))


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two slices: full convolution over every axis."""
    if a.ndim == 1:
        return np.convolve(a, b)
    if a.ndim == 0:
        # not a * b: np.convolve's complex product is a BLAS dot, which
        # rounds differently from a complex multiply
        return np.convolve(a, b).reshape(())
    out = np.zeros(tuple(m + n - 1 for m, n in zip(a.shape, b.shape)),
                   dtype=np.result_type(a, b))
    for i, row in enumerate(a):
        for j, col in enumerate(b):
            out[i + j] += _convolve(row, col)
    return out


# -- slabs: batches of forms of one degree ------------------------------------

def _exp_diff(x: np.ndarray, o: np.ndarray) -> np.ndarray:
    """exp(x - o) by math.exp, entry by entry, where x is finite; 0 where x
    is -inf.  Where x == o the factor is exp(0) = 1, written directly."""
    live = x != _NEG_INF
    f = (live & (x == o)).astype(np.float64)
    need = live & (x != o)
    f[need] = list(map(math.exp, (x[need] - o[need]).tolist()))
    return f


def _renorm_rows(acc: np.ndarray, o: np.ndarray, rows=True) -> np.ndarray:
    """Scale the rows of acc (its leading axes are those of o) picked by
    rows to unit max-norm in place and return the new offsets; a picked row
    whose max is 0 or not finite gets offset -inf and is zeroed.  The other
    rows keep their values and their offsets o."""
    # max |x| as max(max x, -min x): the same float, without an |acc| copy
    box = tuple(range(o.ndim, acc.ndim))
    m = np.maximum(np.maximum.reduce(acc, axis=box), -np.minimum.reduce(acc, axis=box))
    finite = np.isfinite(m)
    keep = rows & (m != 0) & finite
    out = np.where(rows, _NEG_INF, o)
    out[keep] = o[keep] + list(map(math.log, m[keep].tolist()))
    acc /= np.where(keep, m, 1.0).reshape(m.shape + (1,) * (acc.ndim - o.ndim))
    bad = rows & ~finite
    if bad.any():
        acc[bad] = 0
    return out


def _add_rows(X: np.ndarray, O: np.ndarray, Y: np.ndarray, P: np.ndarray) -> None:
    """X, O += Y, P in place, row by row (the leading axes are those of O).
    A row present on one side only passes through as it is: its sum is that
    side times 1 plus an all-zero row, and it is not renormalized.

    X is scaled in place rather than added to zeros: one side of a present
    row has factor 1 and holds no -0.0, so no element's sign of zero or
    value changes."""
    o = np.maximum(O, P)
    to_rows = o.shape + (1,) * (X.ndim - O.ndim)
    X *= _exp_diff(O, o).reshape(to_rows)
    X += Y * _exp_diff(P, o).reshape(to_rows)
    O[...] = _renorm_rows(X, o, (O != _NEG_INF) & (P != _NEG_INF))


def _mul_linear_rows(A: np.ndarray, O: np.ndarray, off_l: float, coeffs):
    """Multiply each form of a degree-(t-1) slab (A of shape (B, t, t, ...),
    offsets O of shape (B, t)) by exp(off_l) * (c[0] X_1 + ... + c[N]
    X_{N+1}), coeffs of max-norm <= 1; returns the degree-t slab.

    Slice s of a product gathers the X_{N+1} part of slice s-1, then the
    X_1..X_{N-1} parts (the index moves up one axis) and the X_N part (the
    implied exponent grows) of slice s.  A zero coefficient adds no part
    and so takes no part in the slice's offset."""
    N = len(coeffs) - 1
    B, t = O.shape
    src = O + off_l
    absent = np.full((B, 1), _NEG_INF)
    up = np.concatenate((absent, src), axis=1)
    same = np.concatenate((src, absent), axis=1)
    if coeffs[N] == 0:
        up[:] = _NEG_INF
    if not np.any(coeffs[:N]):
        same[:] = _NEG_INF
    o = np.maximum(up, same)
    acc = np.zeros((B, t + 1) + (t + 1,) * (N - 1),
                   dtype=np.result_type(A, coeffs))
    to_rows = (B, t) + (1,) * (N - 1)
    corner = (slice(0, t),) * (N - 1)
    parts = []  # (coefficient, offset factors, where in acc), in summing order
    if coeffs[N] != 0:
        parts.append((coeffs[N], _exp_diff(up, o)[:, 1:],
                      (slice(None), slice(1, None)) + corner))
    f = _exp_diff(same, o)[:, :t]
    for i in range(N - 1):
        if coeffs[i] != 0:
            at = corner[:i] + (slice(1, None),) + corner[i + 1:]
            parts.append((coeffs[i], f, (slice(None), slice(0, t)) + at))
    if coeffs[N - 1] != 0:
        parts.append((coeffs[N - 1], f, (slice(None), slice(0, t)) + corner))
    part = np.empty(A.shape, dtype=acc.dtype)
    for c, fac, at in parts:  # acc[at] += (A * c) * fac with one temporary
        np.multiply(A, c, out=part)
        part *= fac.reshape(to_rows)
        acc[at] += part
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


def _chain_heads(N: int, D: int) -> np.ndarray:
    """The heads (e_1, ..., e_{N-1}) of the innermost Horner chains of a
    degree-D form, by total degree and, within one, in the order of their
    parents (the heads with the last exponent dropped).  The chains live at
    step t are then the first comb(D - t + N - 1, N - 1), and the last
    comb(D - t + N - 2, N - 2) of those, which finish at t, line up with
    the live parents one level up."""
    order = [()]
    for _ in range(N - 1):
        order = [h + (n - sum(h),) for n in range(D + 1) for h in order
                 if sum(h) <= n]
    return np.array(order, dtype=np.intp).reshape(len(order), N - 1)


class SlicedForm:
    """slices[s] = (offset, arr); the true coefficient of
    X_1^e_1 ... X_{N-1}^e_{N-1} X_N^(deg-s-e_1-...-e_{N-1}) X_{N+1}^s
    is exp(offset) * arr[e_1, ..., e_{N-1}], arr of shape (deg-s+1,)*(N-1).
    """

    __slots__ = ("N", "degree", "slices")

    def __init__(self, N: int, degree: int, slices: dict):
        if N < 1:
            raise UsageError("scaled forms need N >= 1")
        self.N = N
        self.degree = degree
        self.slices = slices

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_form(F: HomogeneousForm) -> "SlicedForm":
        N = F.num_vars - 1
        if F.is_zero():
            raise UsageError("cannot scale the zero form")
        deg = F.degree
        raw: dict[int, dict[tuple, object]] = {}
        for exps, c in F.terms.items():
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

    def _gather(self, deg: int, buckets: dict) -> "SlicedForm":
        """The degree-deg form whose slice s is the sum of buckets[s], a list
        of parts (offset, arr, at): each part is brought to the largest
        offset and added into the slice array at index at, and the sum is
        renormalized."""
        slices = {}
        for s, parts in buckets.items():
            o = max(p[0] for p in parts)
            acc = np.zeros((deg - s + 1,) * (self.N - 1),
                           dtype=np.result_type(*(p[1] for p in parts)))
            for po, parr, at in parts:
                acc[at] += parr * math.exp(po - o)
            ren = _renorm(o, acc)
            if ren is not None:
                slices[s] = ren
        return SlicedForm(self.N, deg, slices)

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
                buckets.setdefault(s1 + s2, []).append(
                    (o1 + o2, _convolve(a1, a2), ...))
        return self._gather(self.degree + other.degree, buckets)

    # -- power-map push-forward ----------------------------------------------

    def _twisted(self, var: int, zeta) -> "SlicedForm":
        """Coefficients multiplied by zeta^(exponent of X_{var+1}); var < N."""
        slices = {}
        for s, (o, arr) in self.slices.items():
            idx = np.indices(arr.shape, sparse=True)
            # the implied X_N exponent, deg - s - e_1 - ... - e_{N-1}, stays a
            # plain int for N = 1: Python's complex power rounds differently
            # from numpy's
            exps = idx[var] if var < arr.ndim else reduce(sub, idx, self.degree - s)
            slices[s] = (o, arr * zeta ** exps)
        return SlicedForm(self.N, self.degree, slices)

    def power_push(self, d: int) -> "SlicedForm":
        """phi_* : the root-of-unity product with exponents divided by d."""
        if d < 2:
            raise UsageError("power_push needs d >= 2")
        prod = self
        for var in range(self.N):
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
        heads = _chain_heads(N, D)
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
                        c = arr[0, t][tuple(heads[:live].T)].reshape(live)
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
