import time
from fractions import Fraction as Q

import pytest

from relesc.heights import good_reduction, relative_critical_height
from relesc.places import INF, Place
from relesc.rational import UsageError, primes_upto
from relesc.unicritical import (UnicriticalMap, cross_check,
                                escape_rate_oracle, is_pcf, mandelbrot_member)

P2, P3 = Place(2), Place(3)


class TestOracle:
    def test_preperiodic(self):
        est = escape_rate_oracle(UnicriticalMap(2, Q(-1)), 25, INF)
        assert est.value_float() == 0.0

    def test_c3(self):
        est = escape_rate_oracle(UnicriticalMap(2, Q(3)), 20, INF)
        assert abs(est.value_float() - 0.6238127498859630) < 1e-10

    def test_chalf_2adic(self):
        # v2 orbit -1, -2, -4, ...: every truncation equals (1/2) log 2
        for k in (1, 3, 6):
            est = escape_rate_oracle(UnicriticalMap(2, Q(1, 2)), k, P2)
            assert est.value.r == Q(1, 2)

    def test_needs_k(self):
        with pytest.raises(UsageError):
            escape_rate_oracle(UnicriticalMap(2, Q(1)), 0, INF)


class TestMandelbrot:
    def test_inside_cycle(self):
        v = mandelbrot_member(UnicriticalMap(2, Q(-2)))
        assert v.verdict == "inside"

    def test_escaped(self):
        v = mandelbrot_member(UnicriticalMap(2, Q(1)))
        assert v.verdict == "escaped" and v.step <= 5

    def test_parabolic_boundary_never_escapes(self):
        # orbit increases monotonically toward 1/2
        v = mandelbrot_member(UnicriticalMap(2, Q(1, 4)), max_iter=10000)
        assert v.verdict in ("inside", "undecided")
        assert v.verdict != "escaped"

    def test_escaped_implies_positive_rate(self):
        for c in (Q(1), Q(3), Q(-3)):
            m = UnicriticalMap(2, c)
            assert mandelbrot_member(m).verdict == "escaped"
            assert escape_rate_oracle(m, 25, INF).value_float() > 0

    def test_inside_implies_zero_rate(self):
        for c in (Q(0), Q(-1), Q(-2)):
            m = UnicriticalMap(2, c)
            assert mandelbrot_member(m).verdict == "inside"
            assert escape_rate_oracle(m, 25, INF).value_float() <= 1e-7


class TestPcf:
    def test_examples(self):
        assert is_pcf(UnicriticalMap(2, Q(-2))).pcf
        assert not is_pcf(UnicriticalMap(2, Q(1, 2))).pcf
        assert not is_pcf(UnicriticalMap(3, Q(-1))).pcf

    def test_non_integral_c_needs_no_factoring(self):
        # 2^89 - 1 is a prime too large to certify: factoring it refuses
        t = time.perf_counter()
        assert not is_pcf(UnicriticalMap(2, Q(1, 2**89 - 1))).pcf
        assert time.perf_counter() - t < 1

    def test_d2_integer_list(self):
        # exhaustive over Z cap [-2, 2]; the escape bound makes this complete
        got = sorted(c for c in range(-2, 3) if is_pcf(UnicriticalMap(2, Q(c))).pcf)
        assert got == [-2, -1, 0]

    def test_pcf_implies_good_reduction_everywhere(self):
        for c in (Q(0), Q(-1), Q(-2)):
            f = UnicriticalMap(2, c).to_map()
            for p in primes_upto(100):
                assert good_reduction(f, p)[0] == "good"

    def test_pcf_implies_tiny_relative_critical_height(self):
        for c in (Q(0), Q(-1), Q(-2)):
            g = relative_critical_height(UnicriticalMap(2, c).to_map())
            assert abs(float(g.value)) <= float(g.error)
            assert abs(float(g.value)) <= 1e-5


class TestCrossCheck:
    def test_arch(self):
        r = cross_check(UnicriticalMap(2, Q(3)), 20, INF)
        assert r["agree"] and r["difference"] <= 1e-9

    def test_preperiodic(self):
        r = cross_check(UnicriticalMap(2, Q(-1)), 20, INF)
        assert r["agree"]
        assert abs(r["generic"].value_float()) <= 1e-7
        assert abs(r["oracle"].value_float()) <= 1e-7

    def test_2adic_exact(self):
        r = cross_check(UnicriticalMap(2, Q(1, 2)), 8, P2)
        assert r["agree"] and r["exact_match"]

    def test_3adic_d3(self):
        r = cross_check(UnicriticalMap(3, Q(5, 3)), 5, P3)
        assert r["agree"] and r["exact_match"]
