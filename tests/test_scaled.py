"""The float backend SlicedForm against the exact form operations, for
every N it is written for (the layout is the same code for N = 1, 2, 3)."""

import math
import random
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from relesc.divisors import (Divisor, MinCritMap, critical_divisor,
                             delta_estimate, lambda_local, pushforward_map)
from relesc.forms import (HomogeneousForm as HF, compose_linear, form_product,
                          power_pushforward)
from relesc.heights import relative_critical_height
from relesc.places import INF
from relesc.rational import UsageError
from relesc.scaled import SlicedForm

CASES = [(N, d) for N in (1, 2, 3) for d in (2, 3)]
REL_TOL = 1e-9


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
    S = SlicedForm.from_form(F).mul_linear(
        math.log(big), np.array([float(c / big) for c in lin]))
    L = HF(N + 1, 1, {tuple(int(i == j) for j in range(N + 1)): c
                      for i, c in enumerate(lin)})
    assert_matches(S, form_product([F, L]))


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
