import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from math import factorial

import mpmath as mp
import pytest

import relesc
from relesc.forms import HomogeneousForm as HF, form_product
from relesc.places import (ARCH_SLACK, INF, LocalLog, Place, gauss_norm_log,
                           log_abs, log_plus_int, matrix_lambda, matrix_xi,
                           place_constants, vector_norm_log)
from relesc.rational import UsageError, support_primes, vp_int

P2, P3, P5, P7 = Place(2), Place(3), Place(5), Place(7)


def near(x, y, tol=1e-25):
    return abs(mp.mpf(x) - mp.mpf(y)) < tol


class TestLogAbs:
    def test_arch(self):
        assert near(log_abs(Q(3, 2), INF).to_mpf(), mp.log(mp.mpf(3) / 2))

    def test_padic_exact(self):
        v = log_abs(Q(3, 2), P2)
        assert v.r == 1  # |3/2|_2 = 2
        assert log_abs(Q(8), P2).r == -3
        assert log_abs(Q(7), P3).r == 0

    def test_zero_is_neg_inf(self):
        for v in (INF, P2):
            assert log_abs(Q(0), v).kind == "neg"


class TestLogPlusInt:
    def test_arch(self):
        assert near(log_plus_int(2, INF).to_mpf(), mp.log(2))

    def test_padic_always_zero(self):
        # non-archimedean iff log+|n| = 0 for all integers n
        for n in (2, 3, 24, factorial(5)):
            for v in (P2, P3, P5, P7):
                assert log_plus_int(n, v).r == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            log_plus_int(0, INF)


class TestLocalLogArithmetic:
    def test_infinity_conventions(self):
        neg = LocalLog.neg_inf(INF)
        pos = LocalLog.pos_inf(INF)
        fin = LocalLog.arch(1.5)
        assert (pos + fin).kind == "pos"
        assert (neg + fin).kind == "neg"
        assert neg < fin < pos
        with pytest.raises(UsageError):
            pos + neg

    def test_mixed_place_forbidden(self):
        with pytest.raises(UsageError):
            LocalLog.arch(1) + LocalLog.padic(P2, Q(1))
        with pytest.raises(UsageError):
            LocalLog.padic(P2, Q(1)) + LocalLog.padic(P3, Q(1))

    def test_scaled_and_log_plus(self):
        x = LocalLog.padic(P2, Q(-3))
        assert x.scaled(Q(1, 2)).r == Q(-3, 2)
        assert x.log_plus().r == 0
        assert LocalLog.padic(P2, Q(5)).log_plus().r == 5


class TestGaussNorm:
    def test_examples(self):
        F = HF(2, 1, {(1, 0): Q(1), (0, 1): Q(-3)})
        assert near(gauss_norm_log(F, INF).to_mpf(), mp.log(3))
        G = HF(2, 2, {(2, 0): Q(2), (0, 2): Q(4)})
        assert gauss_norm_log(G, P2).r == -1
        assert gauss_norm_log(HF(2, 1, {}), P5).kind == "neg"

    def test_multiplicativity_nonarch(self):
        rng = random.Random(17)
        from test_forms import rand_form
        for p in (P2, P3, P5):
            for _ in range(8):
                F, G = rand_form(rng, 3, 2), rand_form(rng, 3, 2)
                lhs = gauss_norm_log(form_product([F, G]), p)
                assert lhs.r == (gauss_norm_log(F, p) + gauss_norm_log(G, p)).r

    def test_arch_two_sided_bound(self):
        # |log||FG|| - log||F|| - log||G||| <= 2N(degF+degG) log 2
        rng = random.Random(19)
        from test_forms import rand_form
        N = 2
        for _ in range(8):
            F, G = rand_form(rng, 3, 2), rand_form(rng, 3, 1)
            lhs = gauss_norm_log(form_product([F, G]), INF).to_mpf() \
                - gauss_norm_log(F, INF).to_mpf() - gauss_norm_log(G, INF).to_mpf()
            bound = 2 * N * (F.degree + G.degree) * mp.log(2)
            assert abs(lhs) <= bound + ARCH_SLACK


def _vp_brute(n: int, p: int) -> int:
    """v_p of a nonzero integer by repeated division."""
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestFiniteShortcuts:
    """vector_norm_log at p reads as few valuations as its answer needs, and
    vp_int descends towers once; both against brute force."""

    def _unit(self, rng, p):
        u = rng.randrange(1, 10**rng.randrange(1, 30))
        return u if u % p else u + 1

    def _entry(self, rng, p, how):
        if how == "zero":
            return 0
        x = rng.choice((-1, 1)) * self._unit(rng, p) * p ** rng.randrange(
            1 if how == "divisible" else 0, 40)
        if how == "den":
            return Q(x, self._unit(rng, p) * p ** rng.randrange(1, 40))
        return Q(x, self._unit(rng, p)) if rng.random() < 0.5 else x

    def test_vector_norm_log_is_min_vp(self):
        rng = random.Random(61)
        for p in (2, 3, 5, 999983):
            v = Place(p)
            for trial in range(120):
                kinds = ["mixed", "divisible", "den"][trial % 3]
                xs = []
                for _ in range(rng.randrange(1, 9)):
                    how = rng.choice(("zero", kinds, "mixed"))
                    if kinds == "divisible" and how == "mixed":
                        how = "divisible"
                    xs.append(self._entry(rng, p, how))
                rng.shuffle(xs)
                nz = [Q(x) for x in xs if x != 0]
                got = vector_norm_log(xs, v)
                if not nz:
                    assert got.kind == "neg"
                    continue
                want = min(_vp_brute(x.numerator, p) - _vp_brute(x.denominator, p)
                           for x in nz)
                assert got.kind == "fin" and got.r == -want, (p, xs)
        assert vector_norm_log([0, Q(0)], P3).kind == "neg"
        assert vector_norm_log([0, 9, Q(27, 2)], P3).r == -2
        assert vector_norm_log([0, 9, Q(1, 3)], P3).r == 1

    def test_vp_int_is_repeated_division(self):
        rng = random.Random(67)
        for p in (2, 3, 999983):
            for v in range(301):
                n = rng.choice((-1, 1)) * self._unit(rng, p) * p**v
                assert vp_int(n, p) == _vp_brute(n, p) == v
            assert vp_int(p**300, p) == 300
            assert vp_int(-(p**300) + 1, p) == 0
        with pytest.raises(ValueError):
            vp_int(0, 2)


class TestMatrixFunctionals:
    def test_identity_examples(self):
        I2 = [[Q(1), Q(0)], [Q(0), Q(1)]]
        assert near(matrix_lambda(I2, INF).to_mpf(), mp.log(2))
        assert matrix_lambda(I2, P5).r == 0
        assert near(matrix_xi(I2, INF).to_mpf(), mp.log(2))

    def test_diagonal_valuations(self):
        A = [[Q(2), Q(0)], [Q(0), Q(1, 2)]]
        assert matrix_xi(A, P2).r == 2  # log||A|| + log||A^-1|| = 2 log 2

    def test_det_checked(self):
        with pytest.raises(UsageError):
            matrix_lambda([[Q(2), Q(0)], [Q(0), Q(1)]], INF)

    def test_inequalities_on_random_sl2(self):
        rng = random.Random(23)
        for _ in range(20):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            A = [[Q(1), Q(a)], [Q(0), Q(1)]]
            B = [[Q(1), Q(0)], [Q(b), Q(1)]]
            M = [[sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)]
                 for i in range(2)]
            for v in (INF, P2, P3):
                lam = matrix_lambda(M, v)
                xi = matrix_xi(M, v)
                Minv = [[M[1][1], -M[0][1]], [-M[1][0], M[0][0]]]
                lam_inv = matrix_lambda(Minv, v)
                zero = LocalLog.zero(v)
                assert zero <= lam and zero <= xi
                assert xi <= lam + log_plus_int(2, v) + _slack(v)
                assert lam_inv <= lam.scaled(1) + _slack(v)  # (N-1) = 1


def _slack(v):
    return LocalLog.arch(ARCH_SLACK) if v.is_arch else LocalLog.zero(v)


class TestPlaceConstants:
    def test_all_zero_beyond_bound(self):
        pc = place_constants(2, 2, P7)
        for name in ("c1", "c2", "c3", "c4", "c5", "c8", "c9"):
            assert getattr(pc, name).cmp(LocalLog.zero(P7)) == 0, name

    def test_n1_d2_arch_values(self):
        pc = place_constants(1, 2, INF)
        l2 = mp.log(2)
        assert near(pc.c1.to_mpf(), l2)
        assert near(pc.c2.to_mpf(), 3 * l2)       # log 8
        assert near(pc.c3.to_mpf(), 3 * l2)       # (N+2) log2 + log 1
        assert near(pc.c4.to_mpf(), 0)
        assert near(pc.c5.to_mpf(), l2)
        assert near(pc.c8.to_mpf(), 0)            # 2(N-1) factor vanishes
        assert near(pc.c9.to_mpf(), 11 * l2)

    def test_n1_d2_at_2(self):
        pc = place_constants(1, 2, P2)
        assert pc.c3.r == Q(1)  # log 2 / (2 - 1)
        assert pc.c4.r == Q(1)

    def test_nonnegative_everywhere(self):
        for N, d in ((1, 2), (1, 3), (2, 2), (2, 3)):
            for v in (INF, P2, P3, P5):
                pc = place_constants(N, d, v)
                for name in ("c1", "c2", "c3", "c4", "c5", "c8", "c9"):
                    assert getattr(pc, name).cmp(LocalLog.zero(v)) >= 0

    def test_n2_d2_arch_c8(self):
        pc = place_constants(2, 2, INF)
        want = 2 * (8 - 2 + 1) / (2 - mp.sqrt(2))
        assert near(pc.c8.to_mpf(), want, tol=1e-20)


def _child_dps(precision: str) -> int:
    """mpmath's working precision in a fresh interpreter that imports relesc
    with RELESC_PRECISION=precision.

    The child inherits the environment, with the directory holding the
    relesc under test put first on PYTHONPATH, so that it imports the same
    copy whether or not that copy is installed.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(relesc.__file__)))
    env = dict(os.environ, RELESC_PRECISION=precision,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import mpmath, relesc; print(mpmath.mp.dps)"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.strip())


class TestPrecisionControl:
    def test_env_override(self):
        assert _child_dps("80") >= 80

    def test_floor_is_50(self):
        assert _child_dps("10") >= 50


class TestProductFormula:
    def test_exact_cancellation(self):
        rng = random.Random(29)
        for _ in range(20):
            alpha = Q(0)
            while alpha == 0:
                alpha = Q(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            total = log_abs(alpha, INF).to_mpf()
            exact = Q(0)
            for p in support_primes([alpha]):
                contrib = log_abs(alpha, Place(p))
                total += contrib.to_mpf()
                exact += contrib.r * 1  # stays rational
            assert abs(total) < ARCH_SLACK
