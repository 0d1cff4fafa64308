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

A slice of a degree-D form holds (D - s + 1)^(N-1) floats and the degree
grows like d^{N-1} per push-forward step, which is why
divisors.delta_estimate refuses scaled mode for N >= 3.
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

    def _gather(self, deg: int, buckets: dict, keep_single=False) -> "SlicedForm":
        """The degree-deg form whose slice s is the sum of buckets[s], a list
        of parts (offset, arr, at): each part is brought to the largest
        offset and added into the slice array at index at, and the sum is
        renormalized.  keep_single passes one-part slices through as is."""
        slices = {}
        for s, parts in buckets.items():
            if keep_single and len(parts) == 1:
                slices[s] = parts[0][:2]
                continue
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

    def add(self, other: "SlicedForm") -> "SlicedForm":
        if self.N != other.N or self.degree != other.degree:
            raise UsageError("degree/N mismatch in scaled add")
        buckets = {s: [src.slices[s] + (...,) for src in (self, other)
                       if s in src.slices]
                   for s in set(self.slices) | set(other.slices)}
        return self._gather(self.degree, buckets, keep_single=True)

    def mul(self, other: "SlicedForm") -> "SlicedForm":
        if self.N != other.N:
            raise UsageError("N mismatch in scaled mul")
        buckets: dict[int, list] = {}
        for s1, (o1, a1) in self.slices.items():
            for s2, (o2, a2) in other.slices.items():
                buckets.setdefault(s1 + s2, []).append(
                    (o1 + o2, _convolve(a1, a2), ...))
        return self._gather(self.degree + other.degree, buckets)

    def mul_linear(self, off_l: float, coeffs) -> "SlicedForm":
        """Multiply by exp(off_l) * (c[0] X_1 + ... + c[N] X_{N+1});
        coeffs is a length-(N+1) array with max-norm <= 1."""
        axes = self.N - 1
        buckets: dict[int, list] = {}
        for s, (o, arr) in self.slices.items():
            o += off_l
            corner = tuple(map(slice, arr.shape))
            for i in range(axes):  # X_{i+1}: the index moves up along axis i
                if coeffs[i] != 0:
                    at = corner[:i] + (slice(1, None),) + corner[i + 1:]
                    buckets.setdefault(s, []).append((o, arr * coeffs[i], at))
            if coeffs[axes] != 0:  # X_N: the implied exponent grows
                buckets.setdefault(s, []).append((o, arr * coeffs[axes], corner))
            if coeffs[self.N] != 0:  # X_{N+1}: the slice moves up
                buckets.setdefault(s + 1, []).append((o, arr * coeffs[self.N], ...))
        return self._gather(self.degree + 1, buckets)

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

        Uses nested Horner over X_1..X_N; every intermediate is
        renormalized, so arbitrarily large matrix entries are fine.
        """
        n = self.N + 1
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
        out = self._horner(lins, ())
        if out is None:
            raise InternalError("empty scaled form")
        return out

    def _horner(self, lins: list, head: tuple) -> "SlicedForm | None":
        """G(l_j, ..., l_N, X_{N+1}), j = len(head) + 1, where G is the part
        of self whose exponents of X_1..X_{j-1} are head, divided by those
        variables; Horner in l_j, the X_j exponent descending.  None if G
        is zero."""
        m = self.degree - sum(head)
        lin = lins[len(head)]
        out = None
        if len(head) < self.N - 1:
            for e in range(m, -1, -1):
                if out is not None:
                    out = out.mul_linear(*lin)
                inner = self._horner(lins, head + (e,))
                if inner is not None:
                    out = inner if out is None else out.add(inner)
            return out
        # j = N: the X_N exponent m - s is implied by the slice s
        for s in range(m + 1):
            if out is not None:
                out = out.mul_linear(*lin)
            if s in self.slices:
                o, arr = self.slices[s]
                c = float(arr[head])
                if c != 0.0:
                    term = SlicedForm(self.N, s, {s: (o, np.array(c, ndmin=self.N - 1))})
                    out = term if out is None else out.add(term)
        return out
