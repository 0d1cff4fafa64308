import math
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction as Q
from pathlib import Path

import mpmath as mp
import pytest

import relesc
from relesc import divisors
from relesc.divisors import (Divisor, ExactOrbit, MinCritMap, _components_fit,
                             critical_divisor, delta_estimate, exact_fits,
                             lambda_local, pushforward_map, unicritical_map)
from relesc.forms import HomogeneousForm as HF
from relesc.heights import (PADIC_K_MAX, good_reduction, height_divisor,
                            main_bound_constants, map_bad_primes, matrix_height,
                            point_height, relative_canonical_height,
                            relative_critical_height, relative_height,
                            relative_height_by_places, thm_main_bounds)
from relesc.places import INF, Place
from relesc.rational import DomainError, UsageError, vp, vp_int

SRC = Path(__file__).resolve().parents[1] / "src"
I3 = [[Q(int(i == j)) for j in range(3)] for i in range(3)]


def near(x, y, tol=1e-25):
    return abs(mp.mpf(x) - mp.mpf(y)) < tol


def random_sl2z(rng, word=3, bound=2):
    A = [[Q(1), Q(0)], [Q(0), Q(1)]]
    for _ in range(word):
        m = Q(rng.randint(-bound, bound))
        if rng.random() < 0.5:
            A = [[A[0][0] + m * A[1][0], A[0][1] + m * A[1][1]], A[1]]
        else:
            A = [A[0], [A[1][0] + m * A[0][0], A[1][1] + m * A[0][1]]]
    return A


class TestNaiveHeights:
    def test_height_divisor(self):
        assert near(height_divisor(Divisor.point(Q(3))), mp.log(3))
        assert near(height_divisor(Divisor.point(Q(2, 3))), mp.log(3))
        f = MinCritMap(2, 2, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(5), Q(7)])
        assert near(height_divisor(critical_divisor(f)), 0)

    def test_height_scale_invariant(self):
        F = HF(2, 2, {(2, 0): Q(6), (0, 2): Q(-10)})
        assert near(height_divisor(Divisor(F)),
                    height_divisor(Divisor(F.scale(Q(-7, 3)))))

    def test_relative_height_is_weil_height(self):
        assert near(relative_height(Divisor.point(Q(3))), mp.log(3))
        assert near(relative_height(Divisor.point(Q(2, 3))), mp.log(3))
        f = MinCritMap(2, 2, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(5), Q(7)])
        assert near(relative_height(critical_divisor(f)), 0)

    def test_relative_height_matches_place_sum(self):
        rng = random.Random(47)
        from test_forms import rand_form
        for _ in range(12):
            D = Divisor(rand_form(rng, 3, rng.randint(1, 3), bound=30))
            if D.contains_hyperplane_at_infinity():
                continue
            assert near(relative_height(D), relative_height_by_places(D))
            assert relative_height(D) >= -mp.mpf("1e-30")

    def test_relative_height_rejects_H(self):
        with pytest.raises(DomainError):
            relative_height(Divisor(HF(2, 1, {(0, 1): Q(1)})))

    def test_point_and_matrix_heights(self):
        assert near(point_height([Q(3, 2)]), mp.log(3))
        assert near(point_height([Q(0), Q(0)]), 0)
        assert near(matrix_height([[Q(1), Q(0)], [Q(0), Q(1)]]), 0)
        assert near(matrix_height([[Q(1, 2), Q(0)], [Q(0), Q(2)]]), mp.log(4))


# N=2, d=2 maps like the benchmark's global heights: A in
# {I, [[1,1],[0,1]]}, b = (a/11, c/13)
BENCH_LIKE_N2 = [MinCritMap(2, 2, A, [Q(a, 11), Q(c, 13)]) for A, a, c in (
    ([[1, 0], [0, 1]], -2, -23), ([[1, 0], [0, 1]], 12, -6),
    ([[1, 1], [0, 1]], -8, -17), ([[1, 1], [0, 1]], 15, 19))]


class TestRelativeCanonicalHeight:
    def test_fixed_point_zero(self):
        g = relative_canonical_height(unicritical_map(2, Q(0)),
                                      Divisor.point(Q(0)))
        assert abs(float(g.value)) <= 1e-6
        assert float(g.error) < 1e-4

    def test_c3_only_infinity_contributes(self):
        g = relative_canonical_height(unicritical_map(2, Q(3)),
                                      Divisor.point(Q(0)))
        assert "inf" in g.per_place
        # 3 is integral everywhere: every finite place contributes exactly 0
        for key, est in g.per_place.items():
            if key != "inf":
                assert est.value.r == 0 and est.error.r == 0
        assert abs(float(g.value) - 0.6238127498859630) < 1e-6

    def test_chalf_adds_2adic_part(self):
        g = relative_canonical_height(unicritical_map(2, Q(1, 2)),
                                      Divisor.point(Q(0)))
        assert "2" in g.per_place
        arch = g.per_place["inf"].value.to_mpf()
        two = g.per_place["2"].value
        assert two.r == Q(1, 2)
        assert near(g.value, arch + mp.log(2) / 2, tol=1e-20)

    def test_per_place_json_sums_to_totals(self):
        g = relative_canonical_height(unicritical_map(2, Q(5, 6)),
                                      Divisor.point(Q(0)))
        obj = g.to_json_dict(40)
        parts = obj["per_place"]
        assert list(parts) == list(g.per_place)
        assert parts["3"]["mode"] == "exact" and parts["3"]["k"] >= 1
        assert near(sum(mp.mpf(e["value"]) for e in parts.values()), g.value)
        assert near(sum(mp.mpf(e["error"]) for e in parts.values()), g.error)

    @pytest.mark.parametrize("f, D, k, alone", [
        (unicritical_map(2, Q(5, 3)), Divisor.point(Q(2)), 10, PADIC_K_MAX),
        (MinCritMap(2, 2, [[Q(1), Q(1)], [Q(0), Q(1)]], [Q(1, 2), Q(3)]),
         Divisor(HF(3, 5, {(5, 0, 0): Q(1), (0, 5, 0): Q(1), (1, 2, 2): Q(1),
                           (0, 0, 5): Q(4)})), 3, 3),
    ], ids=["n1", "n2"])
    def test_exact_infinity_reads_one_iterate(self, f, D, k, alone):
        # an exact infinity takes the bad primes to its own depth k; without
        # infinity they stop at PADIC_K_MAX (n1), or reach k too, since an
        # exact infinity means exact_fits admitted every step (n2)
        primes = relative_canonical_height(
            f, D, k, places=[Place(p) for p in map_bad_primes(f)])
        assert {e.iterations_used for e in primes.per_place.values()} == {alone}
        g = relative_canonical_height(f, D, k)
        assert g.per_place["inf"].mode == "exact"
        assert {e.iterations_used for e in g.per_place.values()} == {k}
        # oracle: the relative height of the k-th push-forward
        G = D
        for _ in range(k):
            G = pushforward_map(f, G)
        assert near(g.value, relative_height(G) / mp.mpf(f.d) ** (f.N * k), tol=1e-30)
        assert near(sum(e.value.to_mpf() for e in g.per_place.values()), g.value)
        # infinity is delta_estimate's exact read of the same iterate
        assert g.per_place["inf"] == delta_estimate(f, D, k, INF, mode="exact")

    @pytest.mark.parametrize("f, k, mode", [
        (unicritical_map(2, Q(3, 2)), 12, "exact"),
        (MinCritMap(2, 2, [[Q(1), Q(1)], [Q(0), Q(1)]], [Q(-3, 2), Q(-3, 2)]), 4, "exact"),
        (MinCritMap(2, 3, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(2), Q(-1, 2)]), 2, "exact"),
        (MinCritMap(2, 2, [[Q(1), Q(1)], [Q(0), Q(1)]], [Q(-3, 2), Q(-3, 2)]), 5, "scaled"),
    ], ids=["n1c3/2k12", "U2k4", "I3k2", "U2k5"])
    def test_one_rule_at_infinity(self, f, k, mode):
        # the height's infinity takes delta_estimate's default mode, and
        # the same value when both read the exact iterate
        D = Divisor.point(Q(0)) if f.N == 1 else critical_divisor(f)
        inf = relative_canonical_height(f, D, k).per_place["inf"]
        est = delta_estimate(f, D, k, INF)
        assert inf.mode == est.mode == mode
        if mode == "exact":
            assert inf == est

    def test_bad_primes_share_one_iterate(self, monkeypatch):
        f = unicritical_map(2, Q(1, 143))
        D = Divisor.point(Q(0))
        calls = []

        push = divisors._push_raw

        def counted(*a, **kw):
            calls.append(1)
            return push(*a, **kw)

        monkeypatch.setattr(divisors, "_push_raw", counted)
        g = relative_canonical_height(f, D)
        assert len(calls) == 8
        monkeypatch.undo()
        for p in (11, 13):
            assert g.per_place[str(p)] == delta_estimate(f, D, 8, Place(p), mode="exact")

    def test_no_valuation_of_a_big_coefficient(self, monkeypatch):
        # the slice-0 coefficient of the k=8 iterate has 174 kbit and
        # v_p = 4374 at both primes; the orbit carries that valuation
        f = unicritical_map(3, Q(17, 900007 * 999983))
        original, seen = vp_int, []

        def recorded(n, p):
            seen.append(abs(n).bit_length())
            return original(n, p)

        for mod in vars(relesc).values():
            if getattr(mod, "vp_int", None) is original:
                monkeypatch.setattr(mod, "vp_int", recorded)
        g = relative_critical_height(f)
        monkeypatch.undo()
        assert seen and max(seen) <= 4096
        G = critical_divisor(f)
        for _ in range(8):
            G = pushforward_map(f, G)
        for p in (900007, 999983):
            est = g.per_place[str(p)]
            assert est.iterations_used == 8
            assert est.value.r * 3 ** 8 == lambda_local(G, Place(p)).r == 4374

    def test_places_restrict_the_sum(self):
        f = unicritical_map(2, Q(5, 6))
        D = Divisor.point(Q(0))
        g = relative_canonical_height(f, D, places=[INF, Place(3)])
        assert g.per_place["inf"].mode == "scaled"
        assert list(g.per_place) == ["inf", "3"]

    def test_budget_fallback_warns(self, monkeypatch):
        # the k=9 iterate is predicted over the tiny budget, so infinity
        # runs scaled, flagged, without an exact step that overflows, and
        # agrees with the exact value in the default budget
        f = unicritical_map(2, Q(10))
        monkeypatch.setattr(divisors, "EXACT_STEP_BITS", 256)
        g = relative_canonical_height(f, Divisor.point(Q(0)), 9)
        monkeypatch.undo()
        assert g.per_place["inf"].mode == "scaled"
        assert any("rounding" in w for w in g.warnings)
        assert not any("bit budget" in w for w in g.warnings)
        exact = relative_canonical_height(f, Divisor.point(Q(0)), 9)
        assert exact.per_place["inf"].mode == "exact"
        assert abs(float(g.value) - float(exact.value)) < 1e-6

    def test_scaled_infinity_is_flagged(self):
        # one warning when infinity runs scaled (the k=30 iterate is past
        # the exact budget), none when it reads the exact iterate; the two
        # agree within their radii
        f = unicritical_map(2, Q(3, 2))
        D = Divisor.point(Q(0))
        scaled = relative_canonical_height(f, D, 30)
        flags = [w for w in scaled.warnings if "rounding" in w]
        assert scaled.per_place["inf"].mode == "scaled"
        assert flags == ["scaled at inf: the radius covers the truncation "
                         "tail, not float rounding"]
        exact = relative_canonical_height(f, D, 10)
        assert exact.per_place["inf"].mode == "exact"
        assert not any("rounding" in w for w in exact.warnings)
        assert abs(scaled.value - exact.value) <= scaled.error + exact.error

    def test_padic_budget_degrades_depth(self, monkeypatch):
        # a bad prime whose exact orbit meets the bit budget before its
        # default depth (8) reads the deepest iterate that fit, and the
        # orbit's stop says so
        f = unicritical_map(2, Q(999998, 7))
        monkeypatch.setattr(divisors, "DEFAULT_BIT_BUDGET", 2048)
        g = relative_canonical_height(f, Divisor.point(Q(0)), 12)
        est = g.per_place["7"]
        assert est.iterations_used < 8
        assert any(w.startswith(f"exact iterate stops at k={est.iterations_used}, "
                                "over bit budget") for w in g.warnings)

    def test_bad_prime_steps_while_components_fit(self):
        # N=2, d=3, A=I: C_f's components stay two lines, so their next
        # step fits EXACT_STEP_BITS at every depth and p=2 is read at the
        # default k=5 (radius 8/243 log 2, 0.0228 nats), where the product
        # rule stopped it at depth 2 (0.616): the depth-3 product is
        # predicted over.  No budget event, so no warning
        f = MinCritMap(2, 3, [[1, 0], [0, 1]], [2, Q(-1, 2)])
        g = relative_critical_height(f, places=[Place(2)])
        est = g.per_place["2"]
        assert est.iterations_used == 5
        assert abs(est.error_float() - 8 / 243 * math.log(2)) < 1e-12
        assert est == delta_estimate(f, critical_divisor(f), 5, Place(2), mode="exact")
        assert g.warnings == []
        orbit = ExactOrbit(f, critical_divisor(f))
        for _ in range(5):
            assert _components_fit(f, orbit.components)
            orbit.step()
        orbit = ExactOrbit(f, critical_divisor(f))
        orbit.step()
        orbit.step()
        assert not exact_fits(f, orbit.terms, 1)

    def test_bench_like_n2_bad_primes_read_depth_5(self):
        # N=2, d=2, A in {I, [[1,1],[0,1]]}, b = (a/11, c/13): infinity
        # steps the reduced components to the default k=5, and both primes
        # read that depth; infinity's float product of the components is
        # the exact truncation's value to 1e-12
        for f in BENCH_LIKE_N2:
            g = relative_critical_height(f)
            assert [est.iterations_used for est in g.per_place.values()] == [5, 5, 5]
            assert list(g.per_place) == ["inf", "11", "13"]
            inf = g.per_place["inf"]
            exact = delta_estimate(f, critical_divisor(f), 5, INF, mode="exact")
            assert inf.mode == "scaled"
            assert abs(inf.value.to_mpf() - exact.value.to_mpf()) <= 1e-12
            assert inf.error.to_mpf() == exact.error.to_mpf()

    def test_component_budget_falls_back_to_the_float_orbit(self, monkeypatch):
        # components that meet DEFAULT_BIT_BUDGET before k end their exact
        # steps: both delta_estimate and the height then step them on to k
        # in floats, within 1e-12 of the exact truncation, and the height
        # says where its orbit stopped
        f = BENCH_LIKE_N2[0]
        C = critical_divisor(f)
        exact = delta_estimate(f, C, 5, INF, mode="exact").value.to_mpf()
        monkeypatch.setattr(divisors, "DEFAULT_BIT_BUDGET", 2000)
        want = delta_estimate(f, C, 5, INF).value.to_mpf()
        assert abs(want - exact) <= 1e-12
        g = relative_critical_height(f)
        assert g.per_place["inf"].value.to_mpf() == want
        depth = g.per_place["11"].iterations_used
        assert 1 <= depth < 5
        assert any(w.startswith(f"exact iterate stops at k={depth}, over bit budget")
                   for w in g.warnings)

    def test_bench_like_n2_forms_the_product_once(self, monkeypatch):
        # the product rule at infinity reads the depth-1 iterate, finds k
        # out of its reach and hands over to the components; from there on
        # neither infinity nor the bad primes form the product
        calls = []

        def counted(factors, n):
            calls.append(n)
            return product_raw(factors, n)

        product_raw = divisors._product_raw
        monkeypatch.setattr(divisors, "_product_raw", counted)
        for f in BENCH_LIKE_N2:
            calls.clear()
            relative_critical_height(f)
            assert len(calls) == 1

    def test_n1_height_forms_no_product(self, monkeypatch):
        # d=3: the first exact step at infinity is predicted over, so the
        # float read starts at D's components, and the bad primes step by
        # _components_fit and read their carried valuations
        def refused(*a, **kw):
            raise AssertionError("_product_raw called")

        monkeypatch.setattr(divisors, "_product_raw", refused)
        g = relative_critical_height(unicritical_map(3, Q(-7, 2)))
        assert g.per_place["inf"].mode == "scaled"
        assert g.per_place["2"].iterations_used == PADIC_K_MAX

    def test_bench_like_n2_bad_primes_do_not_warn(self):
        # the size rule, not a budget, stops those primes below k, so
        # neither warns; infinity reads in floats at k and says so
        for f in BENCH_LIKE_N2:
            g = relative_critical_height(f)
            assert g.warnings == ["scaled at inf: the radius covers the "
                                  "truncation tail, not float rounding"]

    def test_n1_bad_primes_stop_at_padic_k_max(self):
        # PADIC_K_MAX stops these primes, not _components_fit, which admits
        # the next step (the size rule alone would read them at depth 14)
        f = unicritical_map(2, Q(-17, 999983 * 1000003))
        g = relative_critical_height(f)
        for p in (999983, 1000003):
            assert g.per_place[str(p)].iterations_used == 8
        orbit = ExactOrbit(f, critical_divisor(f))
        for _ in range(8):
            orbit.step()
        assert _components_fit(f, orbit.components)

    def test_divisor_of_another_dimension_refused(self):
        f = MinCritMap(2, 2, [[1, 0], [0, 1]], [Q(1, 3), Q(1)])
        with pytest.raises(UsageError):
            relative_canonical_height(f, Divisor.point(Q(0)), 3)

    def test_divisor_content_primes_counted(self):
        # D = [1/5]: Delta_5 = log 5 exactly even at a good-reduction place
        f = unicritical_map(2, Q(3))
        g = relative_canonical_height(f, Divisor.point(Q(1, 5)))
        assert "5" in g.per_place
        assert g.per_place["5"].value.r == 1
        assert g.per_place["5"].error.r == 0


class TestCriticalHeight:
    def test_preperiodic_families(self):
        assert abs(float(relative_critical_height(unicritical_map(2, Q(0))).value)) <= 1e-5
        assert abs(float(relative_critical_height(unicritical_map(2, Q(-1))).value)) <= 1e-5

    def test_c3_value(self):
        g = relative_critical_height(unicritical_map(2, Q(3)))
        assert abs(float(g.value) - 0.6238127498859630) < 1e-6

    def test_two_large_denominator_primes_end_promptly(self):
        """c = 1/(1000000007 * 998244353) takes both primes as places in a
        child capped at 3 GiB of address space and 10 s (trial division up
        to sqrt(c's denominator) did not end in 30 s)."""
        code = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
            sys.path.insert(0, sys.argv[1])
            from fractions import Fraction as Q
            from relesc.divisors import unicritical_map
            from relesc.heights import relative_critical_height
            g = relative_critical_height(unicritical_map(2, Q(1, 1000000007 * 998244353)))
            print(" ".join(g.per_place))
        """)
        out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                             capture_output=True, text=True, timeout=10)
        assert out.returncode == 0, out.stderr
        assert {"1000000007", "998244353"} <= set(out.stdout.split())

    def test_n3_small_k_answers(self):
        # N=3 at k=2 fits the exact budget at infinity; the default k=5
        # does not, and infinity reads the exact orbit where the size rule
        # stops it, and says so
        f = MinCritMap(3, 2, I3, [Q(1, 2), Q(-1), Q(3)])
        t0 = time.perf_counter()
        g = relative_critical_height(f, 2)
        assert time.perf_counter() - t0 < 10.0
        assert g.warnings == []
        assert g.per_place["inf"] == delta_estimate(f, critical_divisor(f), 2,
                                                    INF, mode="exact")
        t0 = time.perf_counter()
        g = relative_critical_height(f)
        assert time.perf_counter() - t0 < 10.0
        inf = g.per_place["inf"]
        assert inf.mode == "exact" and 1 <= inf.iterations_used < 5
        assert g.warnings == [f"budget at inf: read at k={inf.iterations_used}"]

    def test_n3_product_map_meets_its_factors(self):
        # A = I makes f the product of z -> z^2 + b_i, and its relative
        # critical height the sum of theirs; infinity reads the exact
        # orbit at the depth the size rule admits (1 here), not a float one
        b = (Q(1, 2), Q(-1, 3), Q(1, 5))
        f = MinCritMap(3, 2, I3, b)
        t0 = time.perf_counter()
        g = relative_critical_height(f)
        assert time.perf_counter() - t0 < 1.0
        inf = g.per_place["inf"]
        assert inf.mode == "exact" and inf.iterations_used >= 1
        parts = [relative_critical_height(unicritical_map(2, c)) for c in b]
        assert abs(g.value - sum(p.value for p in parts)) \
            <= g.error + sum(p.error for p in parts)

    def test_n2_b0_preperiodic(self):
        f = MinCritMap(2, 2, [[Q(2), Q(5)], [Q(1), Q(3)]], [Q(0), Q(0)])
        g = relative_critical_height(f)
        assert abs(float(g.value)) <= 1e-5


class TestTheoremBounds:
    def test_c3_containment(self):
        rep = thm_main_bounds(unicritical_map(2, Q(3)))
        assert rep["verdict"] == "within-bounds"
        # N=1 instantiation: hand-checkable sandwich around 0.6238
        assert float(rep["lower_bound"]) <= 0.6238 <= float(rep["upper_bound"])
        C1, C2 = main_bound_constants(1, 2)
        assert near(rep["lower_bound"], mp.log(3) / 2 - C1, tol=1e-15)

    def test_b0_lower_nonpositive(self):
        rep = thm_main_bounds(unicritical_map(2, Q(0)))
        assert float(rep["lower_bound"]) <= 0
        assert rep["verdict"] == "within-bounds"

    def test_constants_positive(self):
        for N, d in ((1, 2), (1, 3), (2, 2), (2, 3)):
            C1, C2 = main_bound_constants(N, d)
            assert C1 > 0 and C2 > 0

    def test_prime_sum_in_c1(self):
        # C1 contains the exact finite sum over p <= d of log p/((p-1)(d-1))
        C1_d2, _ = main_bound_constants(1, 2)
        from relesc.places import place_constants, Place
        arch_c9 = place_constants(1, 2, INF).c9.to_mpf()
        padic_c9 = place_constants(1, 2, Place(2)).c9.to_mpf()
        want = Q(1, 2) * (arch_c9 + padic_c9)
        assert near(C1_d2, want, tol=1e-20)


class TestGoodReduction:
    def test_examples(self):
        assert good_reduction(unicritical_map(2, Q(1, 2)), 2)[0] == "bad"
        assert good_reduction(unicritical_map(2, Q(3)), 2)[0] == "good"
        A = [[Q(0), Q(-1)], [Q(1), Q(0)]]
        f = MinCritMap(2, 2, A, [Q(1, 3), Q(0)])
        assert good_reduction(f, 3)[0] == "bad"
        assert good_reduction(f, 2)[0] == "good"

    def test_hypothesis_gate(self):
        f = MinCritMap(2, 2, [[Q(1, 5), Q(0)], [Q(0), Q(5)]], [Q(0), Q(0)])
        assert good_reduction(f, 5)[0] == "hypothesis-not-met"
        # but at other primes A is integral, so the criterion applies
        assert good_reduction(f, 3)[0] == "good"

    def test_integrality_matches_resultant_scan(self):
        rng = random.Random(53)
        for _ in range(40):
            A = random_sl2z(rng)
            b = [Q(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(2)]
            f = MinCritMap(2, 2, A, b)
            for p in (2, 3, 5, 7):
                status, _ = good_reduction(f, p)
                expect = "good" if all(
                    x == 0 or vp(x, p) >= 0 for x in b) else "bad"
                assert status == expect
