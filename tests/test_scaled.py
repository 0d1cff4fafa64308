"""The float backend SlicedForm against the exact form operations for the
N it serves, 1 and 2 (it refuses N = 3), its slab compose_lshape against
the per-slice Horner it replaced, to float rounding, and its orbit against
the exact truncation at infinity."""

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

from relesc import divisors
from relesc.divisors import (SCALED_STEP_BYTES, Divisor, ExactOrbit, MinCritMap,
                             _float_lam, critical_divisor, delta_estimate,
                             lambda_local, pushforward_map)
from relesc.forms import (HomogeneousForm as HF, _product_raw, compose_linear,
                          form_product, power_pushforward, pushforward_terms)
from relesc.heights import relative_critical_height
from relesc.places import INF
from relesc.rational import BitBudgetError, InternalError, UsageError
from relesc.scaled import (SlicedForm, _log_abs_fraction, _mul_linear_rows,
                           _renorm, step_bytes)

CASES = [(N, d) for N in (1, 2, 3) for d in (2, 3)]
REL_TOL = 1e-9
# slab against per-slice Horner, the same sums in another order: float64
# rounding of a degree-D Horner is about D * 1.1e-16 of the sums of
# absolute values (at most 7.1e-15 on the cases below, degree <= 32)
CLOSE = 1e-12
SRC = Path(__file__).resolve().parents[1] / "src"


class PerSliceHorner(SlicedForm):
    """The per-slice nested Horner that compose_lshape ran before it worked
    on slabs, kept as its reference: one mul_linear or add per chain step,
    each gathering slice by slice, in ascending slice order."""

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


def assert_compose_close(S, M):
    """The slab compose_lshape of S by M is the per-slice Horner's."""
    R = absolute(S).compose_lshape([[abs(x) for x in row] for row in M])
    assert_close(S.compose_lshape(M), horner_compose(S, M), R)


def absolute(S):
    """S with every coefficient replaced by its absolute value."""
    return SlicedForm(S.N, S.degree, {s: (o, np.abs(a)) for s, (o, a) in S.slices.items()})


def assert_close(S, T, R):
    """S and T are the same form within CLOSE of each slice's max norm in R,
    the same operation on absolute values: a slice can cancel far below
    the terms it sums, and their rounding stays."""
    assert (S.N, S.degree) == (T.N, T.degree)
    for s in set(S.slices) | set(T.slices):
        top = R.slice_log_norm(s)
        a, b = (U.slices[s][1] * math.exp(U.slices[s][0] - top) if s in U.slices else 0.0
                for U in (S, T))
        assert np.max(np.abs(a - b)) <= CLOSE, s


def served(N):
    """Whether the float layout serves N; it must refuse N = 3, which only
    the exact orbit reads."""
    if N <= 2:
        return True
    with pytest.raises(UsageError, match="N = 1 and 2 only"):
        SlicedForm(N, 1, {})
    return False


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
    if not served(N):
        return
    rng = random.Random(100 * N + d)
    F = random_form(rng, N + 1, d)
    lin = [Q(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(N + 1)]
    lin[rng.randrange(N + 1)] = Q(0)
    lin[-1] = Q(11, 3)
    big = max(abs(c) for c in lin)
    off, coeffs = math.log(big), np.array([float(c / big) for c in lin])
    S = SlicedForm.from_terms(F.terms)
    P = SlicedForm.from_slab(N, *_mul_linear_rows(*S.to_slab(), off, coeffs))
    L = HF(N + 1, 1, {tuple(int(i == j) for j in range(N + 1)): c
                      for i, c in enumerate(lin)})
    assert_matches(P, form_product([F, L]))
    R = SlicedForm.from_slab(N, *_mul_linear_rows(*absolute(S).to_slab(), off, abs(coeffs)))
    assert_close(P, PerSliceHorner(N, S.degree, S.slices).mul_linear(off, coeffs), R)


@pytest.mark.parametrize("N,d", CASES)
def test_compose_lshape_is_compose_linear(N, d):
    if not served(N):
        return
    rng = random.Random(200 * N + d)
    F = random_form(rng, N + 1, d)
    M = random_lshape(rng, N + 1)
    assert_matches(SlicedForm.from_terms(F.terms).compose_lshape(M), compose_linear(F, M))


@pytest.mark.parametrize("N,d", CASES)
def test_power_push_is_power_pushforward(N, d):
    if not served(N):
        return
    rng = random.Random(300 * N + d)
    F = random_form(rng, N + 1, 2)
    assert_matches(SlicedForm.from_terms(F.terms).power_push(d), power_pushforward(F, d))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("twisted", [(0,), (1,), (0, 1)])
def test_power_push_over_twisted_is_pushforward_terms(d, twisted):
    """power_push over the twisted variables a form contains is the exact
    pushforward_terms over the same variables, and twisted_vars reads
    those variables back."""
    rng = random.Random(10 * d + len(twisted))
    for degree in (1, 3):
        terms = {}
        while not all(any(e[v] for e in terms) for v in twisted):
            for _ in range(5):
                e = [0, 0, 0]
                for _ in range(degree):
                    e[rng.choice(twisted + (2,))] += 1
                terms[tuple(e)] = Q(rng.choice([-7, -2, 1, 3, 5]), rng.randint(1, 4))
        S = SlicedForm.from_terms(terms)
        assert S.twisted_vars() == twisted
        want = HF(3, degree * d ** (len(twisted) - 1),
                  pushforward_terms(terms, d, 3, twisted))
        assert_matches(S.power_push(d, twisted), want)


@pytest.mark.parametrize("N,d", CASES)
def test_one_step_lambda_is_exact(N, d):
    if not served(N):
        return
    rng = random.Random(400 * N + d)
    A = [[Q(int(i == j)) for j in range(N)] for i in range(N)]
    if N > 1:
        A[0][1] = Q(1)
    b = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(N)]
    f = MinCritMap(N, d, A, b)
    D = critical_divisor(f) if d == 2 else Divisor(random_form(rng, N + 1, 1))
    S = SlicedForm.from_terms(D.form.terms).power_push(d).compose_lshape(f.L_inv)
    want = float(lambda_local(pushforward_map(f, D), INF).to_mpf())
    assert abs(S.lam() - want) <= REL_TOL * max(1.0, abs(want))


def test_sliced_form_refuses_n3():
    F = random_form(random.Random(3), 4, 2)
    with pytest.raises(UsageError, match="N = 1 and 2 only"):
        SlicedForm.from_terms(F.terms)


# the N = 2 heights of the global-heights benchmark at seeds 11 and 12, and
# one more A, all d = 2 at k = 5
N2_D2_MAPS = [
    ([[1, 0], [0, 1]], (Q(-2, 11), Q(-23, 13))),
    ([[1, 1], [0, 1]], (Q(-1, 13), Q(-19, 11))),
    ([[1, 1], [0, 1]], (Q(-8, 11), Q(-17, 13))),
    ([[1, 0], [0, 1]], (Q(12, 13), Q(-6, 11))),
    ([[1, 1], [0, 1]], (Q(15, 11), Q(-23, 13))),
    ([[1, 1], [0, 1]], (Q(9, 11), Q(-20, 13))),
    ([[2, 1], [1, 1]], (Q(1, 2), Q(-1, 3))),
]


@pytest.mark.parametrize("A,b", N2_D2_MAPS)
def test_float_orbit_within_radius_of_exact(A, b, monkeypatch):
    """At k = 5 the float read with every step in floats (no exact step
    admitted) is within 1e-10 of the exact truncation (5.1e-12 at most
    here), far inside its radius (about 1.1): it steps C_f's reduced
    components, where the float orbit of their product was up to 2.6e-2
    off on these maps."""
    f = MinCritMap(2, 2, A, list(b))
    C = critical_divisor(f)
    exact = delta_estimate(f, C, 5, INF, mode="exact").value.to_mpf()
    monkeypatch.setattr(divisors, "EXACT_STEP_BITS", 0)
    orbit = ExactOrbit(f, C)
    est = divisors.infinity_estimate(f, C, orbit, 5)
    assert orbit.depth == 0 and est.mode == "scaled"
    assert abs(est.value.to_mpf() - exact) <= 1e-10 < est.error.to_mpf()


@pytest.mark.parametrize("d,A,b,k", [(2, A, b, 5) for A, b in N2_D2_MAPS] + [
    # the shape of the lemma suite's n2d3-big at infinity: ~114-bit b
    (3, [[1, 0], [0, 1]], (5 * 2 ** 111, -7 * 2 ** 111), 2),
])
def test_float_product_of_components_is_the_exact_product(d, A, b, k):
    """lambda read off the float product of the exact components is the
    exact product's to 1e-12 at the escape-rate scale (lambda / d^(Nk)),
    and the default read at infinity is that float product."""
    f = MinCritMap(2, d, A, list(b))
    C = critical_divisor(f)
    orbit = ExactOrbit(f, C)
    for _ in range(k):
        orbit.step()
    scale = d ** (2 * k)
    exact = orbit.lam(INF).to_mpf()
    assert abs(_float_lam(f, orbit.components, 0) - exact) / scale <= 1e-12
    est = delta_estimate(f, C, k, INF)
    assert est.mode == "scaled" and est.iterations_used == k
    assert abs(est.value.to_mpf() - exact / scale) <= 1e-12


# FOUND 51's map (U2 at d = 3; the float orbit from D read 4.5e-2 off at
# k = 3) and W, the benchmark's W2 word T S T^-1 with T = [[1,1],[0,1]]
CONTINUED_MAPS = [
    (3, [[1, 1], [0, 1]], (Q(1, 2), Q(-1, 3)), 3),
    (2, [[1, -2], [1, -1]], (Q(1, 2), Q(-1, 3)), 5),
]


@pytest.mark.parametrize("d,A,b,k,step_bits", [
    CONTINUED_MAPS[0] + (None,), CONTINUED_MAPS[1] + (None,), CONTINUED_MAPS[0] + (0,),
], ids=["U3", "W", "U3-all-float"])
def test_default_infinity_read_is_the_exact_truncation(d, A, b, k, step_bits,
                                                       monkeypatch):
    """The default read at infinity is within 1e-12 of mode="exact" at the
    escape-rate scale, by the library's rule and, on U3, with no exact
    step admitted: then every step runs in floats on the reduced
    components, each with its multiplicity times d^(N - u).  (W's mixed
    components are float-limited at about 1e-11 that way.)"""
    f = MinCritMap(2, d, A, list(b))
    C = critical_divisor(f)
    exact = delta_estimate(f, C, k, INF, mode="exact")
    if step_bits is not None:
        monkeypatch.setattr(divisors, "EXACT_STEP_BITS", step_bits)
    est = delta_estimate(f, C, k, INF)
    assert est.mode == "scaled" and est.iterations_used == k
    assert abs(est.value.to_mpf() - exact.value.to_mpf()) <= 1e-12
    assert est.error == exact.error


@pytest.mark.parametrize("N,m", [(1, 1), (1, 6), (2, 2), (2, 5), (2, 8)])
def test_pow_is_the_exact_power(N, m):
    rng = random.Random(500 * N + m)
    F = random_form(rng, N + 1, 2)
    terms = {e: c.numerator for e, c in Divisor(F).form.terms.items()}
    want = HF(N + 1, 2 * m, _product_raw([(terms, m)], N + 1))
    assert_matches(SlicedForm.from_terms(terms).pow(m), want)


def test_scaled_mode_refused_promptly_at_n3():
    # there is no float orbit at N=3: a k past the exact orbit's reach is
    # refused with the depth to ask for, which answers exactly, and the
    # height reads infinity at that depth
    f = MinCritMap(3, 2, [[Q(int(i == j)) for j in range(3)] for i in range(3)],
                   [Q(1), Q(-1, 2), Q(2)])
    C = critical_divisor(f)
    t0 = time.perf_counter()
    with pytest.raises(BitBudgetError, match=r"lower k to \d+$") as refused:
        delta_estimate(f, C, 5, INF)
    j = int(str(refused.value).rsplit(" ", 1)[1])
    assert 1 <= j < 5
    assert delta_estimate(f, C, j, INF).mode == "exact"
    with pytest.raises(UsageError):
        delta_estimate(f, C, 5, INF, mode="scaled")
    assert relative_critical_height(f).per_place["inf"].iterations_used == j
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
    coefficient of a row is 0) and, for N = 2, a unipotent A."""
    F = random_form(rng, N + 1, d)
    forms = [SlicedForm.from_terms(F.terms),
             SlicedForm.from_terms(random_form(rng, N + 1, 2).terms).power_push(d),
             SlicedForm.from_terms(sparse_form(rng, N + 1, 14).terms)]
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
    if not served(N):
        return
    for S, M in compose_cases(N, d, random.Random(500 * N + d)):
        assert_compose_close(S, M)


@pytest.mark.parametrize("N", [2, 3])
def test_slab_sums_parts_in_slice_order(N):
    """Sparse forms of degree 14, whose Horner chains start late and whose
    slice sets have gaps."""
    if not served(N):
        return
    for seed in range(8):
        rng = random.Random(seed)
        S = SlicedForm.from_terms(sparse_form(rng, N + 1, 14).terms)
        assert_compose_close(S, random_lshape(rng, N + 1))


@pytest.mark.parametrize("A", [[[1, 1], [0, 1]], [[1, 0], [0, 1]]])
@pytest.mark.parametrize("b", [(Q(-3, 2), Q(-3, 2)), (Q(-9, 4), Q(-3, 2)), (Q(0), Q(0))])
def test_slab_compose_bits_on_bench_cells(A, b):
    """Every step of d = 2, k = 4 arch-slice cells, two of them the ones the
    benchmark fails and one at 4.8e-7 from its reference."""
    f = MinCritMap(2, 2, [[Q(x) for x in r] for r in A], list(b))
    S = SlicedForm.from_terms(critical_divisor(f).form.terms)
    for _ in range(4):
        P = S.power_push(2)
        assert_compose_close(P, f.L_inv)
        S = P.compose_lshape(f.L_inv)


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
