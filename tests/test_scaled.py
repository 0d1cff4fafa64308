"""The float backend SlicedForm against the exact form operations, for
every N it is written for (the layout is the same code for N = 1, 2, 3),
and its slab compose_lshape against the per-slice Horner it replaced, bit
for bit."""

import math
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

from relesc.divisors import (SCALED_STEP_BYTES, Divisor, MinCritMap,
                             critical_divisor, delta_estimate, lambda_local,
                             pushforward_map)
from relesc.forms import (HomogeneousForm as HF, compose_linear, form_product,
                          power_pushforward)
from relesc.heights import relative_critical_height
from relesc.places import INF
from relesc.rational import BitBudgetError, InternalError, UsageError
from relesc.scaled import (SlicedForm, _log_abs_fraction, _mul_linear_rows,
                           _renorm, step_bytes)

CASES = [(N, d) for N in (1, 2, 3) for d in (2, 3)]
REL_TOL = 1e-9
SRC = Path(__file__).resolve().parents[1] / "src"


class PerSliceHorner(SlicedForm):
    """The per-slice nested Horner that compose_lshape ran before it worked
    on slabs, kept as the oracle of its bits: one mul_linear or add per
    chain step, each gathering slice by slice.  One change: add takes the
    slices in ascending order.  It took them in set order, which for sparse
    forms of degree >= 10 could hand mul_linear slice s before slice s - 1
    and so add the X_{N+1} part of slice s after its own parts."""

    def _gather(self, deg: int, buckets: dict, keep_single=False) -> "PerSliceHorner":
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
        return PerSliceHorner(self.N, deg, slices)

    def add(self, other: "PerSliceHorner") -> "PerSliceHorner":
        if self.N != other.N or self.degree != other.degree:
            raise UsageError("degree/N mismatch in scaled add")
        buckets = {s: [src.slices[s] + (...,) for src in (self, other)
                       if s in src.slices]
                   for s in sorted(set(self.slices) | set(other.slices))}
        return self._gather(self.degree, buckets, keep_single=True)

    def mul_linear(self, off_l: float, coeffs) -> "PerSliceHorner":
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

    def _horner(self, lins: list, head: tuple) -> "PerSliceHorner | None":
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
                    term = PerSliceHorner(self.N, s, {s: (o, np.array(c, ndmin=self.N - 1))})
                    out = term if out is None else out.add(term)
        return out


def lin_rows(M):
    """The scaled rows (log offset, coefficients) compose_lshape multiplies by."""
    out = []
    for row in M[:-1]:
        big = max(abs(x) for x in row)
        out.append((_log_abs_fraction(big), np.array([float(x / big) for x in row])))
    return out


def horner_compose(S, M):
    out = PerSliceHorner(S.N, S.degree, dict(S.slices))._horner(lin_rows(M), ())
    if out is None:
        raise InternalError("empty scaled form")
    return out


def assert_same_bits(S, T):
    """Equal degree, slices, offsets and array bytes."""
    assert (S.N, S.degree) == (T.N, T.degree)
    assert sorted(S.slices) == sorted(T.slices)
    for s, (o, a) in S.slices.items():
        p, b = T.slices[s]
        assert float(o).hex() == float(p).hex(), s
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), s


def random_form(rng, n, degree, terms=6):
    """A small form in n variables; its X_n^degree term keeps it nonzero."""
    coeffs = {(0,) * (n - 1) + (degree,): Q(rng.choice([-3, -1, 2, 5]), 2)}
    for _ in range(terms):
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        coeffs[tuple(exps)] = Q(rng.randint(-9, 9), rng.randint(1, 4))
    return HF(n, degree, coeffs)


def random_lshape(rng, n):
    M = [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n - 1)]
    for i in range(n - 1):
        M[i][i] = Q(rng.choice([1, 2, -3]))
    return M + [[Q(0)] * (n - 1) + [Q(1)]]


def float_terms(S):
    """{exponent tuple: float coefficient} of a SlicedForm, read off its
    layout; entries of a slice box outside the simplex must be zero."""
    out = {}
    for s, (off, arr) in S.slices.items():
        assert arr.shape == (S.degree - s + 1,) * (S.N - 1)
        for idx in np.ndindex(arr.shape):
            c = complex(arr[idx])
            rest = S.degree - s - sum(idx)
            if rest < 0:
                assert c == 0
            elif c != 0:
                out[idx + (rest, s)] = math.exp(off) * c.real
    return out


def assert_matches(S, F):
    """S equals the exact form F within REL_TOL of each slice's norm."""
    assert S.N == F.num_vars - 1 and S.degree == F.degree
    got = float_terms(S)
    norms: dict = {}
    for exps, c in F.terms.items():
        norms[exps[-1]] = max(norms.get(exps[-1], 0.0), abs(float(c)))
    assert {e[-1] for e in got} <= set(norms)
    for exps in set(got) | set(F.terms):
        want = float(F.terms.get(exps, 0))
        assert abs(got.get(exps, 0.0) - want) <= REL_TOL * norms[exps[-1]], exps


@pytest.mark.parametrize("N,d", CASES)
def test_mul_linear_is_form_product(N, d):
    rng = random.Random(100 * N + d)
    F = random_form(rng, N + 1, d)
    lin = [Q(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(N + 1)]
    lin[rng.randrange(N + 1)] = Q(0)
    lin[-1] = Q(11, 3)
    big = max(abs(c) for c in lin)
    off, coeffs = math.log(big), np.array([float(c / big) for c in lin])
    S = SlicedForm.from_form(F)
    P = SlicedForm.from_slab(N, *_mul_linear_rows(*S.to_slab(), off, coeffs))
    L = HF(N + 1, 1, {tuple(int(i == j) for j in range(N + 1)): c
                      for i, c in enumerate(lin)})
    assert_matches(P, form_product([F, L]))
    assert_same_bits(P, PerSliceHorner(N, S.degree, S.slices).mul_linear(off, coeffs))


@pytest.mark.parametrize("N,d", CASES)
def test_compose_lshape_is_compose_linear(N, d):
    rng = random.Random(200 * N + d)
    F = random_form(rng, N + 1, d)
    M = random_lshape(rng, N + 1)
    assert_matches(SlicedForm.from_form(F).compose_lshape(M), compose_linear(F, M))


@pytest.mark.parametrize("N,d", CASES)
def test_power_push_is_power_pushforward(N, d):
    rng = random.Random(300 * N + d)
    F = random_form(rng, N + 1, 2 if N < 3 else 1)
    assert_matches(SlicedForm.from_form(F).power_push(d), power_pushforward(F, d))


@pytest.mark.parametrize("N,d", CASES)
def test_one_step_lambda_is_exact(N, d):
    rng = random.Random(400 * N + d)
    A = [[Q(int(i == j)) for j in range(N)] for i in range(N)]
    if N > 1:
        A[0][1] = Q(1)
    b = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(N)]
    f = MinCritMap(N, d, A, b)
    D = critical_divisor(f) if d == 2 else Divisor(random_form(rng, N + 1, 1))
    S = SlicedForm.from_form(D.form).power_push(d).compose_lshape(f.L_inv)
    want = float(lambda_local(pushforward_map(f, D), INF).to_mpf())
    assert abs(S.lam() - want) <= REL_TOL * max(1.0, abs(want))


def test_scaled_mode_refused_promptly_at_n3():
    f = MinCritMap(3, 2, [[Q(int(i == j)) for j in range(3)] for i in range(3)],
                   [Q(1), Q(-1, 2), Q(2)])
    t0 = time.perf_counter()
    with pytest.raises(UsageError):
        delta_estimate(f, critical_divisor(f), 5, INF, mode="scaled")
    with pytest.raises(UsageError):
        delta_estimate(f, critical_divisor(f), 5, INF)
    with pytest.raises(UsageError):
        relative_critical_height(f)
    assert time.perf_counter() - t0 < 10.0


def sparse_form(rng, n, degree):
    """A form whose X_n exponents all lie in the top half, so that the
    Horner chains start late and their slice sets do not begin at 0."""
    coeffs = {}
    while not coeffs:
        for _ in range(12):
            s = rng.randint(degree // 2, degree)
            exps = [0] * (n - 1)
            for _ in range(degree - s):
                exps[rng.randrange(n - 1)] += 1
            coeffs[tuple(exps) + (s,)] = Q(rng.choice([-5, -1, 1, 3, 7]),
                                          rng.randint(1, 4))
    return HF(n, degree, coeffs)


def compose_cases(N, d, rng):
    """(form, matrix) pairs: dense, pushed and sparse forms against a random
    L-shape, an identity A with a zero coordinate in b (so the X_{N+1}
    coefficient of a row is 0) and, for N >= 2, a unipotent A."""
    F = random_form(rng, N + 1, d)
    forms = [SlicedForm.from_form(F),
             SlicedForm.from_form(random_form(rng, N + 1, 1 if N == 3 else 2)).power_push(d),
             SlicedForm.from_form(sparse_form(rng, N + 1, 6 if N == 3 else 14))]
    I = [[Q(int(i == j)) for j in range(N)] for i in range(N)]
    b = [Q(rng.randint(-5, 5) or 1, rng.randint(1, 3)) for _ in range(N)]
    b[rng.randrange(N)] = Q(0)
    mats = [random_lshape(rng, N + 1), MinCritMap(N, d, I, b).L_inv]
    if N > 1:
        U = [row[:] for row in I]
        U[0][1] = Q(1)
        mats.append(MinCritMap(N, d, U, b[::-1]).L_inv)
    return [(S, M) for S in forms for M in mats]


@pytest.mark.parametrize("N,d", CASES)
def test_slab_compose_is_per_slice_horner(N, d):
    for S, M in compose_cases(N, d, random.Random(500 * N + d)):
        assert_same_bits(S.compose_lshape(M), horner_compose(S, M))


@pytest.mark.parametrize("N", [2, 3])
def test_slab_sums_parts_in_slice_order(N):
    """Sparse forms of degree 14 and 20, where the per-slice code's set
    order used to reach mul_linear out of order (see PerSliceHorner)."""
    for seed in range(8):
        rng = random.Random(seed)
        S = SlicedForm.from_form(sparse_form(rng, N + 1, 14 if N == 2 else 20))
        M = random_lshape(rng, N + 1)
        assert_same_bits(S.compose_lshape(M), horner_compose(S, M))


@pytest.mark.parametrize("A", [[[1, 1], [0, 1]], [[1, 0], [0, 1]]])
@pytest.mark.parametrize("b", [(Q(-3, 2), Q(-3, 2)), (Q(-9, 4), Q(-3, 2)), (Q(0), Q(0))])
def test_slab_compose_bits_on_bench_cells(A, b):
    """Every step of d = 2, k = 4 arch-slice cells, two of them the ones the
    benchmark fails and one at 4.8e-7 from its reference."""
    f = MinCritMap(2, 2, [[Q(x) for x in r] for r in A], list(b))
    S = SlicedForm.from_form(critical_divisor(f).form)
    for _ in range(4):
        P = S.power_push(2)
        S = P.compose_lshape(f.L_inv)
        assert_same_bits(S, horner_compose(P, f.L_inv))


def test_step_budget_admits_bench_depths_only():
    # the deepest scaled steps the benchmark and the lemma suite take: N=2
    # d=2 from degree 32 (k=5) and N=2 d=3 from degree 12 (k=2) ...
    assert step_bytes(2, 2, 32) < SCALED_STEP_BYTES // 100
    assert step_bytes(2, 3, 12) < SCALED_STEP_BYTES // 100
    # ... and the fourth N=2 d=3 step, which took ~1.7 GB and ~64 s
    assert step_bytes(2, 3, 108) > SCALED_STEP_BYTES


def test_scaled_step_refused_before_allocating():
    f = MinCritMap(2, 3, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(2), Q(-1, 2)])
    t0 = time.perf_counter()
    with pytest.raises(BitBudgetError):
        delta_estimate(f, critical_divisor(f), 5, INF)
    assert time.perf_counter() - t0 < 1.0


def test_n2_d3_height_ends_under_memory_cap():
    """The default k=5 at infinity is over budget: the height runs at the
    deepest predicted depth, k=3, and answers in a child capped at 3 GiB of
    address space."""
    code = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
        sys.path.insert(0, sys.argv[1])
        from fractions import Fraction as Q
        from relesc.divisors import MinCritMap
        from relesc.heights import relative_critical_height
        g = relative_critical_height(MinCritMap(2, 3, [[1, 0], [0, 1]], [2, Q(-1, 2)]))
        inf = g.per_place["inf"]
        print(inf.iterations_used, inf.error_float(), g.warnings)
    """)
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("3 ") and "budget at inf" in out.stdout
    assert float(out.stdout.split()[1]) < 2
