import random
from fractions import Fraction as Q
from itertools import product

import mpmath as mp
import pytest

from relesc import divisors
from relesc.divisors import (Divisor, ExactOrbit, MinCritMap, _lambda_terms,
                             _push_raw, _raw_terms,
                             canonical_form, critical_divisor, delta_estimate,
                             exact_fits,
                             delta_relative_critical, lambda_local, mu_local,
                             pullback_map, pullback_translation,
                             pushforward_map, unicritical_map)
from relesc.forms import (HomogeneousForm as HF, _elementary, _subst_raw, compose_linear,
                          power_pullback, power_pushforward, pushforward_terms,
                          slice_form)
from relesc.heights import map_bad_primes
from relesc.places import INF, Place, LocalLog, gauss_norm_log
from relesc.rational import (BitBudgetError, DomainError, UsageError, content,
                             lcm_denominators, vp)

P2, P3, P5 = Place(2), Place(3), Place(5)


def near(x, y, tol=1e-25):
    return abs(mp.mpf(x) - mp.mpf(y)) < tol


class TestCanonicalization:
    def test_scale_invariance(self):
        F = HF(2, 1, {(1, 0): Q(2, 3), (0, 1): Q(-4, 9)})
        G = F.scale(Q(-7, 5))
        assert Divisor(F) == Divisor(G)

    def test_primitive_and_sign(self):
        D = Divisor(HF(2, 1, {(1, 0): Q(-2), (0, 1): Q(4)}))
        assert D.form.terms == {(1, 0): Q(1), (0, 1): Q(-2)}

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            Divisor(HF(2, 1, {}))

    def test_sum_is_form_product(self):
        D = Divisor.point(Q(2))
        E = Divisor.point(Q(-2))
        assert (D + E).form == HF(2, 2, {(2, 0): Q(1), (0, 2): Q(-4)})
        assert (2 * D).degree == 2


class TestMinCritMap:
    def test_block_structure(self):
        f = MinCritMap(2, 2, [[Q(0), Q(-1)], [Q(1), Q(0)]], [Q(1, 2), Q(3)])
        assert f.L[0] == [Q(0), Q(-1), Q(1, 2)]
        assert f.L[2] == [Q(0), Q(0), Q(1)]
        n = 3
        prod = [[sum(f.L[i][k] * f.L_inv[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]

    def test_det_one_required(self):
        with pytest.raises(UsageError):
            MinCritMap(2, 2, [[Q(2), Q(0)], [Q(0), Q(1)]], [Q(0), Q(0)])

    def test_json_roundtrip(self):
        f = MinCritMap(2, 2, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(5), Q(7)])
        g = MinCritMap.from_json_dict(f.to_json_dict())
        assert g.A == f.A and g.b == f.b and (g.N, g.d) == (2, 2)


class TestLambdaMu:
    def test_lambda_point(self):
        # lambda([z]) = log+|z|
        assert near(lambda_local(Divisor.point(Q(3)), INF).to_mpf(), mp.log(3))
        assert near(lambda_local(Divisor.point(Q(1, 3)), INF).to_mpf(), 0)
        assert lambda_local(Divisor.point(Q(1, 4)), P2).r == 2

    def test_lambda_critical_zero_everywhere(self):
        f = MinCritMap(2, 2, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(5), Q(7)])
        C = critical_divisor(f)
        for v in (INF, P2, P3, P5):
            assert lambda_local(C, v).cmp(LocalLog.zero(v)) == 0

    def test_lambda_infinite_for_H(self):
        D = Divisor(HF(2, 1, {(0, 1): Q(1)}))
        assert lambda_local(D, INF).kind == "pos"

    def test_mu_examples(self):
        assert near(mu_local(Divisor.point(Q(3)), INF).to_mpf(), mp.log(3))
        F = HF(2, 2, {(2, 0): Q(1), (1, 1): Q(5), (0, 2): Q(1)})
        assert near(mu_local(Divisor(F), INF).to_mpf(), -mp.log(5))

    def test_mu_preconditions(self):
        with pytest.raises(DomainError):
            mu_local(Divisor(HF(2, 1, {(0, 1): Q(1)})), INF)  # contains H
        with pytest.raises(DomainError):
            mu_local(Divisor(HF(2, 1, {(1, 0): Q(1)})), INF)  # contains origin

    def test_mu_le_lambda_over_deg(self):
        rng = random.Random(31)
        from test_forms import rand_form
        for _ in range(15):
            F = rand_form(rng, 3, rng.randint(1, 3))
            D = Divisor(F)
            if D.contains_hyperplane_at_infinity() or D.contains_origin_point():
                continue
            for v in (INF, P2, P3):
                lhs = mu_local(D, v)
                rhs = lambda_local(D, v).scaled(Q(1, D.degree))
                if v.is_arch:
                    assert lhs.to_mpf() <= rhs.to_mpf() + mp.mpf("1e-30")
                else:
                    assert lhs.r <= rhs.r


class TestPushPull:
    def test_point_images(self):
        f = unicritical_map(2, Q(-1))
        D = Divisor.point(Q(0))
        assert pushforward_map(f, D) == Divisor.point(Q(-1))
        assert pushforward_map(f, pushforward_map(f, D)) == Divisor.point(Q(0))
        fsq = unicritical_map(2, Q(0))
        assert pushforward_map(fsq, Divisor.point(Q(5))) == Divisor.point(Q(25))

    def test_pullback_critical_value(self):
        f = unicritical_map(2, Q(3))
        assert pullback_map(f, Divisor.point(Q(3))) == \
            Divisor(HF(2, 2, {(2, 0): Q(1)}))

    def test_pullback_coordinate(self):
        f = MinCritMap(2, 2, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(0), Q(0)])
        D = Divisor(HF(3, 1, {(1, 0, 0): Q(1)}))
        assert pullback_map(f, D) == Divisor(HF(3, 2, {(2, 0, 0): Q(1)}))

    def test_fixed_line(self):
        f = MinCritMap(2, 2, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(0), Q(0)])
        line = Divisor(HF(3, 1, {(1, 0, 0): Q(1), (0, 1, 0): Q(-1)}))
        pushed = pushforward_map(f, line)
        # f_* (line) = d^(N-1) * (line), supported on the same fixed line
        assert pushed == Divisor(HF(3, 2, {(2, 0, 0): Q(1), (1, 1, 0): Q(-2),
                                           (0, 2, 0): Q(1)}))
        # phi^* pullback identity checks it is the right divisor class
        assert pullback_map(f, pushed).degree == 2 * f.d

    def test_degree_laws(self):
        rng = random.Random(37)
        from test_forms import rand_form
        for N, d in ((1, 2), (1, 3), (2, 2)):
            A = [[Q(int(i == j)) for j in range(N)] for i in range(N)]
            f = MinCritMap(N, d, A, [Q(rng.randint(-3, 3)) for _ in range(N)])
            F = rand_form(rng, N + 1, rng.randint(1, 2))
            D = Divisor(F)
            assert pushforward_map(f, D).degree == d ** (N - 1) * D.degree
            assert pullback_map(f, D).degree == d * D.degree

    def test_push_pull_multiplies_by_dN(self):
        f = unicritical_map(2, Q(1, 2))
        D = Divisor.point(Q(3, 5))
        roundtrip = pushforward_map(f, pullback_map(f, D))
        assert roundtrip == 2 * D  # d^N = 2 copies

    def test_matches_form_level_composition(self):
        # the integer-cleared raw path equals L_* phi_* on forms
        rng = random.Random(23)
        mats = {1: [[[Q(1)]]],
                2: [[[Q(1), Q(0)], [Q(0), Q(1)]], [[Q(1), Q(1)], [Q(0), Q(1)]],
                    [[Q(2), Q(1)], [Q(1), Q(1)]]]}
        for N in (1, 2):
            for d in (2, 3):
                for A in mats[N]:
                    b = [Q(rng.randint(-9, 9), rng.choice((2, 3, 5)))
                         for _ in range(N)]
                    f = MinCritMap(N, d, A, b)
                    for deg in (1, 2):
                        D = Divisor(HF(N + 1, deg, {
                            e: Q(rng.randint(-9, 9), rng.randint(1, 4))
                            for e in product(range(deg + 1), repeat=N + 1)
                            if sum(e) == deg}))
                        expected = Divisor(compose_linear(
                            power_pushforward(D.form, d), f.L_inv))
                        assert pushforward_map(f, D) == expected

    def test_translation(self):
        assert pullback_translation([Q(5)], Divisor.point(Q(3))) == \
            Divisor.point(Q(-2))
        D = Divisor(HF(3, 2, {(1, 1, 0): Q(1), (0, 0, 2): Q(7)}))
        assert pullback_translation([Q(0), Q(0)], D) == D

    def test_critical_divisor(self):
        f = MinCritMap(2, 2, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(5), Q(7)])
        assert critical_divisor(f) == Divisor(HF(3, 2, {(1, 1, 0): Q(1)}))
        f3 = unicritical_map(3, Q(1))
        C = critical_divisor(f3)
        assert C.degree == 2 and C == 2 * Divisor.point(Q(0))


class TestLambdaMuTransforms:
    def test_power_pull_exact_laws(self):
        rng = random.Random(41)
        from test_forms import rand_form
        for _ in range(8):
            F = rand_form(rng, 3, rng.randint(1, 3))
            D = Divisor(F)
            if D.contains_hyperplane_at_infinity() or D.contains_origin_point():
                continue
            for d in (2, 3):
                pulled = Divisor(power_pullback(D.form, d))
                for v in (P2, P3):
                    assert lambda_local(pulled, v).r == lambda_local(D, v).r
                    assert mu_local(pulled, v).r == mu_local(D, v).r / d
                assert near(lambda_local(pulled, INF).to_mpf(),
                            lambda_local(D, INF).to_mpf())


class TestDeltaEstimate:
    def test_preperiodic_zero(self):
        # the default read is in floats at k=30; the exact truncation of
        # the preperiodic orbit 0 -> -1 -> 0 is 0
        f = unicritical_map(2, Q(-1))
        est = delta_estimate(f, Divisor.point(Q(0)), 30, INF)
        exact = delta_estimate(f, Divisor.point(Q(0)), 30, INF, mode="exact")
        assert est.mode == "scaled" and exact.value.to_mpf() == 0
        assert abs(est.value_float()) <= 1e-12

    def test_escape_rate_c3(self):
        f = unicritical_map(2, Q(3))
        est = delta_estimate(f, Divisor.point(Q(0)), 20, INF)
        assert abs(est.value_float() - 0.6238127498859630) < 1e-9

    def test_2adic_exact_half_log2(self):
        f = unicritical_map(2, Q(1, 2))
        for k in (1, 4, 8):
            est = delta_estimate(f, Divisor.point(Q(0)), k, P2)
            assert est.value.r == Q(1, 2)
        # the lower bound (1/2) log 2 is consistent with the critical bound
        assert est.value.to_mpf() >= mp.log(2) / 2 - mp.mpf("1e-30")

    def test_exact_vs_scaled(self, monkeypatch):
        # with no exact step admitted every step of the default read runs
        # in floats; f23 at k=2 read 0.30 above the exact value when the
        # float orbit pushed the product of C_f's components (cancellation
        # in the twisted product), and reads it now that each component
        # steps by itself
        f23 = MinCritMap(2, 3, [[Q(2), Q(1)], [Q(1), Q(1)]], [Q(1, 2), Q(-1)])
        cases = [
            (unicritical_map(2, Q(3)), Divisor.point(Q(0)), 8),
            (unicritical_map(3, Q(-2)), Divisor.point(Q(1, 2)), 5),
            (MinCritMap(2, 2, [[Q(1), Q(1)], [Q(0), Q(1)]], [Q(2), Q(-1)]),
             Divisor(HF(3, 1, {(1, 0, 0): Q(1), (0, 1, 0): Q(2), (0, 0, 1): Q(3)})), 3),
            (f23, critical_divisor(f23), 2),
        ]
        exact = [delta_estimate(f, D, k, INF, mode="exact") for f, D, k in cases]
        monkeypatch.setattr(divisors, "EXACT_STEP_BITS", 0)
        for (f, D, k), e1 in zip(cases, exact):
            e2 = delta_estimate(f, D, k, INF)
            assert e2.mode == "scaled"
            assert abs(e1.value_float() - e2.value_float()) <= 1e-12

    def test_default_mode_keeps_no_wasted_exact_steps(self, monkeypatch):
        # the iterate at depth 20 is predicted over EXACT_STEP_BITS after
        # one step, so the estimate turns to floats there, not 19 steps
        # later, and continues the exact orbit from that step
        f = unicritical_map(2, Q(3))
        D = Divisor.point(Q(0))
        calls = []
        push = divisors._push_raw

        def counted(*a, **kw):
            calls.append(1)
            return push(*a, **kw)

        monkeypatch.setattr(divisors, "_push_raw", counted)
        est = delta_estimate(f, D, 20, INF)
        monkeypatch.undo()
        assert len(calls) <= 1
        exact = delta_estimate(f, D, 20, INF, mode="exact")
        assert est.mode == "scaled"
        assert abs(est.value.to_mpf() - exact.value.to_mpf()) <= 1e-12
        assert est.error == exact.error

    def test_term_count_is_capped_by_the_monomials(self):
        # n2d2-big at suite seed 66008, trial 4: from the 12-term depth-1
        # iterate of C_f, 12 * 16^2 = 192 terms are predicted at depth 3,
        # more than the C(16 + 2, 2) = 153 monomials of degree 16; capped,
        # the k=3 iterate (117 terms, 0.65 Mbit) is predicted to fit
        from relesc.harness import default_profiles, random_instance
        prof = next(p for p in default_profiles() if p.name == "n2d2-big")
        f = random_instance(66008 * 1_000_003 + 4, prof).f
        C = critical_divisor(f)
        orbit = ExactOrbit(f, C)
        orbit.step()
        assert len(orbit.terms) == 12
        assert exact_fits(f, orbit.terms, 2)
        est = delta_estimate(f, C, 3, INF)
        assert est.mode == "exact"
        assert est == delta_estimate(f, C, 3, INF, mode="exact")

    def test_crit_lower_bound_example(self):
        # N=2, d=2, A=I, b=(5,7): value >= (1/2)log 7 - c9/2 - constants
        from relesc.places import place_constants, matrix_lambda, matrix_xi
        f = MinCritMap(2, 2, [[Q(1), Q(0)], [Q(0), Q(1)]], [Q(5), Q(7)])
        est = delta_relative_critical(f, 5, INF)
        pc = place_constants(2, 2, INF)
        rhs = (mp.log(7) / 2 - matrix_lambda(f.A_inv, INF).to_mpf() / 4
               - matrix_xi(f.A, INF).to_mpf() - pc.c9.to_mpf() / 2)
        assert est.value.to_mpf() + est.error.to_mpf() >= rhs

    def test_refuses_H(self):
        f = unicritical_map(2, Q(1))
        D = Divisor(HF(2, 1, {(0, 1): Q(1)}))
        with pytest.raises(DomainError):
            delta_estimate(f, D, 3, INF)

    def test_float_orbit_is_not_a_mode(self):
        # only the default rule reaches the float orbit, at no place on request
        f = unicritical_map(2, Q(1))
        for v in (INF, P2):
            with pytest.raises(UsageError):
                delta_estimate(f, Divisor.point(Q(0)), 3, v, mode="scaled")

    def test_bit_budget(self, monkeypatch):
        f = unicritical_map(2, Q(12345, 7))
        monkeypatch.setattr(divisors, "DEFAULT_BIT_BUDGET", 64)
        with pytest.raises(BitBudgetError):
            delta_estimate(f, Divisor.point(Q(0)), 12, P5, mode="exact")

    def test_error_decreases_and_brackets(self):
        f = unicritical_map(2, Q(3))
        D = Divisor.point(Q(0))
        limit = mp.mpf("0.62381274988596298047")
        prev = None
        for k in (2, 5, 10, 15):
            est = delta_estimate(f, D, k, INF)
            err = est.error.to_mpf()
            assert abs(est.value.to_mpf() - limit) <= err
            if prev is not None:
                assert err < prev
            prev = err


class TestDeltaScalingLaws:
    def test_functoriality_within_errors(self):
        rng = random.Random(43)
        f = unicritical_map(2, Q(2))
        D = Divisor.point(Q(3, 2))
        E = Divisor.point(Q(-4))
        k = 14
        dD = delta_estimate(f, D, k, INF)
        dE = delta_estimate(f, E, k, INF)
        dPush = delta_estimate(f, pushforward_map(f, D), k, INF)
        dPull = delta_estimate(f, pullback_map(f, D), k, INF)
        dSum = delta_estimate(f, D + E, k, INF)
        dN = 2  # d^N
        tol = lambda *es: sum(float(e.error.to_mpf()) for e in es) + 1e-9
        assert abs(dPush.value_float() - dN * dD.value_float()) \
            <= float(dPush.error.to_mpf()) + dN * float(dD.error.to_mpf()) + 1e-9
        assert abs(dPull.value_float() - dD.value_float()) <= tol(dPull, dD)
        assert abs(dSum.value_float() - dD.value_float() - dE.value_float()) \
            <= tol(dSum, dD, dE)

    def test_n2_functoriality(self):
        f = MinCritMap(2, 2, [[Q(1), Q(1)], [Q(0), Q(1)]], [Q(1), Q(2)])
        D = Divisor(HF(3, 1, {(1, 0, 0): Q(2), (0, 1, 0): Q(1), (0, 0, 1): Q(5)}))
        k = 4
        dD = delta_estimate(f, D, k, INF)
        dPush = delta_estimate(f, pushforward_map(f, D), k, INF)
        assert abs(dPush.value_float() - 4 * dD.value_float()) \
            <= float(dPush.error.to_mpf()) + 4 * float(dD.error.to_mpf()) + 1e-9


SL2_SAMPLES = [
    [[Q(1), Q(0)], [Q(0), Q(1)]],
    [[Q(1), Q(1)], [Q(0), Q(1)]],
    [[Q(2), Q(0)], [Q(0), Q(1, 2)]],
    [[Q(1, 2), Q(1)], [Q(-1, 2), Q(1)]],
]


def _seeded_maps():
    """Maps over N in {1, 2}, d in {2, 3, 4, 5} and, for N = 2, the SL2
    samples, with b drawn from a seeded generator."""
    rng = random.Random(15)

    def rand_b(N):
        return [Q(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 9, 10]))
                for _ in range(N)]

    out = []
    for d in (2, 3, 4, 5):
        out.append(pytest.param(unicritical_map(d, rand_b(1)[0]), id=f"N1d{d}"))
        out += [pytest.param(MinCritMap(2, d, A, rand_b(2)), id=f"N2d{d}A{i}")
                for i, A in enumerate(SL2_SAMPLES)]
    return out


def _component_map(N, d):
    """A map with an integral A, unipotent for N >= 2, and b the first N of
    (1/2, -1/3, 1)."""
    A = [[Q(int(j in (i, i + 1))) for j in range(N)] for i in range(N)]
    return MinCritMap(N, d, A, [Q(1, 2), Q(-1, 3), Q(1)][:N])


def _component_divisors(f):
    """(D, multiplicities of its components): C_f, X1^2 X2,
    X1 (X1 + 2 X2 + 3 X3 ...), a generic line, X1 X_{N+1}, which contains
    H, and a form of degree 0."""
    n = f.N + 1

    def e(*ones):
        return tuple(sum(1 for i in ones if i == j) for j in range(n))

    return [
        (critical_divisor(f), [f.d - 1] * f.N),
        (Divisor(HF(n, 3, {e(0, 0, 1): Q(1)})), [2, 1]),
        (Divisor(HF(n, 2, {e(0, j): Q(j + 1) for j in range(n)})), [1, 1]),
        (Divisor(HF(n, 1, {e(j): Q([3, -1, 5, 2][j]) for j in range(n)})), [1]),
        (Divisor(HF(n, 2, {e(0, n - 1): Q(1)})), [1, 1]),
        (Divisor(HF(n, 0, {e(): Q(7)})), [1]),
    ]


def _full_push(f, terms):
    """One step of the form layer on the whole form, independent of the
    orbit's components: (G', r) with G' the integer terms of
    canonical_form(compose_linear(power_pushforward(F, d), L_inv)) and r
    the ratio of its leading coefficient to the substituted form's.  The
    norm over all N twisted variables is pushforward_terms on the integer
    terms: what power_pushforward computes on F's Fraction coefficients,
    at a quarter of the cost."""
    n = f.N + 1
    deg = sum(next(iter(terms))) * f.d ** (f.N - 1)
    G = compose_linear(HF(n, deg, pushforward_terms(terms, f.d, n)), f.L_inv)
    C = canonical_form(G)
    top = max(C.terms)
    return {e: c.numerator for e, c in C.terms.items()}, C.terms[top] / G.terms[top]


def _slice0_vals(terms, primes):
    """v_p of the content of slice 0 of the integer terms, at each p."""
    bottom = [c for e, c in terms.items() if not e[-1]]
    return {p: min(vp(c, p) for c in bottom) for p in primes}


class TestExactOrbit:
    """The exact step's seeded content and the carried slice-0 valuations,
    against the full gcd and a direct reading of every iterate."""

    @pytest.mark.parametrize("f", _seeded_maps())
    def test_seeded_content_is_the_full_content(self, f):
        n = f.N + 1
        den_L = lcm_denominators(x for row in f.L for x in row)
        line = {tuple(int(i == j) for j in range(n)): i + 1 for i in range(n)}
        for terms in (_raw_terms(critical_divisor(f)), line):
            # at least one step, then while the next iterate stays small
            for steps in range(5):
                if steps and not exact_fits(f, terms, 1):
                    break
                G = pushforward_terms(terms, f.d, n)
                assert content(G.values()) == 1  # Gauss's content lemma
                T, s = _subst_raw(G, _elementary(f.L_inv, n), n)
                g = content(T.values())
                assert s * den_L ** sum(next(iter(G))) % g == 0
                if T[max(T)] < 0:
                    g = -g
                terms, r = _push_raw(f, terms)
                assert r == Q(s, g)
                assert terms == {e: c // g for e, c in T.items()}

    def test_carried_valuation_reads_the_iterate(self):
        cases = [
            (unicritical_map(3, Q(17, 7 * 11)), 5),
            (unicritical_map(2, Q(5, 12)), 6),
            (MinCritMap(2, 2, SL2_SAMPLES[0], [Q(3, 4), Q(1, 5)]), 3),
            (MinCritMap(2, 2, SL2_SAMPLES[1], [Q(1, 2), Q(-1, 3)]), 3),
            (MinCritMap(2, 3, SL2_SAMPLES[2], [Q(1, 3), Q(5, 2)]), 2),
            (MinCritMap(2, 2, SL2_SAMPLES[3], [Q(1, 3), Q(1)]), 3),
        ]
        for f, k in cases:
            bad = map_bad_primes(f)
            orbit = ExactOrbit(f, critical_divisor(f), [Place(p) for p in bad])
            for _ in range(k):
                orbit.step()
                for p in bad:
                    v = Place(p)
                    assert orbit.lam(v) == _lambda_terms(orbit.terms, v)
            assert orbit.depth == k

    def test_non_integral_A_reads_the_iterate(self):
        # A is not 2-integral: the recurrence alone reads 80 log 2 at k=3,
        # the iterate reads 0
        f = MinCritMap(2, 2, SL2_SAMPLES[3], [Q(1, 3), Q(1)])
        terms = _raw_terms(critical_divisor(f))
        v = _lambda_terms(terms, P2).r
        for _ in range(3):
            terms, r = _push_raw(f, terms)
            v = vp(r, 2) + f.d ** f.N * v
        assert v == 80
        orbit = ExactOrbit(f, critical_divisor(f), [P2, P3])
        assert set(orbit.vals) == {3}
        for _ in range(3):
            orbit.step()
        assert orbit.terms == terms
        assert orbit.lam(P2) == LocalLog.padic(P2, Q(0))
        assert delta_estimate(f, critical_divisor(f), 3, P2).value.r == 0

    def test_failed_step_leaves_the_orbit(self, monkeypatch):
        P7 = Place(7)
        orbit = ExactOrbit(unicritical_map(2, Q(12345, 7)), Divisor.point(Q(0)), [P7])
        monkeypatch.setattr(divisors, "DEFAULT_BIT_BUDGET", 256)
        while True:
            before = (orbit.terms, dict(orbit.vals), orbit.depth)
            try:
                orbit.step()
            except BitBudgetError:
                break
        assert (orbit.terms, orbit.vals, orbit.depth) == before
        assert orbit.lam(P7) == _lambda_terms(orbit.terms, P7)

    @pytest.mark.parametrize("N, d, k", [(1, 2, 4), (1, 3, 3), (2, 2, 3),
                                         (2, 3, 2), (3, 2, 1), (3, 3, 1)])
    def test_components_step_like_the_product(self, N, d, k):
        # the reduced component orbit against one full push of the whole
        # form a step, by the form layer
        f = _component_map(N, d)
        places = [Place(p) for p in map_bad_primes(f)]
        cases = _component_divisors(f)
        assert [[m for _, m in ExactOrbit(f, D).components] for D, _ in cases] == \
            [want for _, want in cases]
        for D, _ in cases:
            # X1^2 X2 contains H at N = 1, where no valuation is carried
            tracked = [] if D.contains_hyperplane_at_infinity() else places
            terms = _raw_terms(D)
            primes = [v.p for v in tracked]
            orbit = ExactOrbit(f, D, tracked)
            assert orbit.vals == _slice0_vals(terms, primes)
            for _ in range(k):
                terms, r = _full_push(f, terms)
                assert orbit.step() == r
                assert orbit.terms == terms
                assert orbit.vals == _slice0_vals(terms, primes)
                assert content(terms.values()) == 1 and terms[max(terms)] > 0

    # the degrees of the _push_raw inputs of C_f's components at each
    # depth under the unipotent _component_map: after one step X_i's image
    # holds the u = N - i + 1 variables x_i, ..., x_N of row i of A^{-1},
    # and then its degree grows by d^(u-1) a step, while X_N's stays a line
    UNIPOTENT_PUSH_DEGREES = {
        (2, 3, 3): [[1, 1], [1, 1], [3, 1]],
        (3, 2, 3): [[1, 1, 1], [1, 1, 1], [4, 2, 1]],
        (2, 2, 5): [[1, 1], [1, 1], [2, 1], [4, 1], [8, 1]],
    }

    def test_pushes_one_component_at_a_time(self, monkeypatch):
        push, calls = divisors._push_raw, []

        def counted(f, terms, twisted=None):
            calls.append((sum(next(iter(terms))), twisted, terms))
            return push(f, terms, twisted)

        monkeypatch.setattr(divisors, "_push_raw", counted)
        for N, d, k in self.UNIPOTENT_PUSH_DEGREES:
            self._check_pushes(calls, N, d, k)

    def _check_pushes(self, calls, N, d, k):
        unipotent = _component_map(N, d)
        diagonal = MinCritMap(N, d, [[Q(int(i == j)) for j in range(N)]
                                     for i in range(N)], unipotent.b)
        for f in (diagonal, unipotent):
            orbit = ExactOrbit(f, critical_divisor(f))
            degs = []
            for j in range(k):
                calls.clear()
                orbit.step()
                degs.append([deg for deg, _, _ in calls])
                # each push runs over exactly the twisted variables its
                # input contains, and the multiplicities keep the degree
                # of f_*^(j+1) C_f
                for _, twisted, terms in calls:
                    assert twisted == tuple(v for v in range(N)
                                            if any(e[v] for e in terms))
                assert sum(m * sum(next(iter(c))) for c, m in orbit.components) \
                    == N * (d - 1) * d ** ((N - 1) * (j + 1))
                if f is diagonal:
                    # every component stays a line in (x_i, X_{N+1}), of
                    # multiplicity (d-1) d^((N-1)(j+1))
                    assert [tw for _, tw, _ in calls] == [(i,) for i in range(N)]
                    assert [m for _, m in orbit.components] == \
                        [(d - 1) * d ** ((N - 1) * (j + 1))] * N
                else:
                    # the last one stays a line in (x_N, X_{N+1})
                    assert calls[-1][1] == (N - 1,)
                    assert all(not any(e[:N - 1]) for e in calls[-1][2])
            if f is diagonal:
                assert degs == [[1] * N] * k
            else:
                assert degs == self.UNIPOTENT_PUSH_DEGREES[N, d, k]

    @pytest.mark.parametrize("d, A, b, k", [
        (2, SL2_SAMPLES[0], [Q(12, 13), Q(-6, 11)], 5),
        (2, SL2_SAMPLES[1], [Q(5, 11), Q(-7, 13)], 5),
        (2, [[2, 1], [1, 1]], [Q(55, 59), Q(-1, 2)], 4),
        (3, SL2_SAMPLES[1], [Q(1, 2), Q(-1, 3)], 3),
    ], ids=["I2", "U2", "A211", "U3"])
    def test_reduced_orbit_is_the_full_push(self, d, A, b, k):
        # C_f's reduced components against one full push of the product a
        # step: terms, r and the carried valuations at every depth
        f = MinCritMap(2, d, A, b)
        primes = sorted(map_bad_primes(f))
        orbit = ExactOrbit(f, critical_divisor(f), [Place(p) for p in primes])
        terms = orbit.terms
        for _ in range(k):
            terms, r = _full_push(f, terms)
            assert orbit.step() == r
            assert orbit.vals == _slice0_vals(terms, primes)
            assert orbit.terms == terms
        assert set(orbit.vals) == set(primes) and any(orbit.vals.values())

    def test_exact_estimate_at_p_forms_no_product(self, monkeypatch):
        # at a tracked prime lam reads the carried valuation, so the
        # components are never multiplied
        f = MinCritMap(2, 2, SL2_SAMPLES[1], [Q(5, 11), Q(-7, 13)])
        C = critical_divisor(f)
        terms = _raw_terms(C)
        for _ in range(4):
            terms, _ = _full_push(f, terms)
        want = _slice0_vals(terms, [11])[11]

        def refused(*a, **kw):
            raise AssertionError("_product_raw called")

        monkeypatch.setattr(divisors, "_product_raw", refused)
        est = delta_estimate(f, C, 4, Place(11), "exact")
        assert est.value.r == Q(want, 2 ** 8)
        with pytest.raises(AssertionError, match="_product_raw called"):
            delta_estimate(f, C, 4, INF, "exact")

    def test_lam_at_a_non_integral_prime_reads_the_components(self, monkeypatch):
        # A = [[1, 1/3], [0, 1]] is not 3-integral, so no valuation is
        # carried at 3: lambda_3 is sum_i m_i lambda_3(D_i) over the
        # components, and matches the full push-forward chain without
        # forming the product
        f = MinCritMap(2, 2, [[1, Q(1, 3)], [0, 1]], [Q(1, 2), Q(-1, 3)])
        C = critical_divisor(f)
        chain, D = [], C
        for _ in range(4):
            D = pushforward_map(f, D)
            chain.append(lambda_local(D, P3).r)
        assert all(chain)

        def refused(*a, **kw):
            raise AssertionError("_product_raw called")

        monkeypatch.setattr(divisors, "_product_raw", refused)
        orbit = ExactOrbit(f, C, [P3])
        assert orbit.vals == {}
        for want in chain:
            orbit.step()
            assert orbit.lam(P3).r == want
        assert delta_estimate(f, C, 4, P3, "exact").value.r == chain[-1] / 2 ** 8

    def test_budget_rule_stops_where_the_product_check_did(self, monkeypatch):
        # N=1 orbits have one component of multiplicity 1 here, so the
        # component rule is the old check on the iterate's largest
        # coefficient: it refuses the first step whose iterate is over
        f = unicritical_map(2, Q(12345, 7))
        D = Divisor.point(Q(0))
        monkeypatch.setattr(divisors, "DEFAULT_BIT_BUDGET", 64)
        terms, depth = _raw_terms(D), 0
        while max(abs(c) for c in terms.values()).bit_length() <= 64:
            terms, _ = _full_push(f, terms)
            depth += 1
        assert depth == 4
        orbit = ExactOrbit(f, D, [P5])
        for _ in range(depth - 1):
            orbit.step()
        with pytest.raises(BitBudgetError):
            orbit.step()
        assert orbit.depth == depth - 1
        with pytest.raises(BitBudgetError):
            delta_estimate(f, D, depth, P5, mode="exact")
        assert delta_estimate(f, D, depth - 1, P5, mode="exact").iterations_used == depth - 1

    def test_budget_rule_reads_the_components(self, monkeypatch):
        # C_f at N=2: sum_i m_i bits(D_i) is the bit length of the product
        # of the components' largest coefficients, read without the product
        f = _component_map(2, 2)
        orbit = ExactOrbit(f, critical_divisor(f))
        orbit.step()
        orbit.step()
        bits = sum(m * max(abs(c) for c in t.values()).bit_length()
                   for t, m in orbit.components)
        top = max(abs(c) for c in orbit.terms.values()).bit_length()
        assert top <= bits
        monkeypatch.setattr(divisors, "_product_raw", None)
        monkeypatch.setattr(divisors, "DEFAULT_BIT_BUDGET", bits)
        divisors._check_budget(orbit.components)
        monkeypatch.setattr(divisors, "DEFAULT_BIT_BUDGET", bits - 1)
        with pytest.raises(BitBudgetError):
            divisors._check_budget(orbit.components)

    def test_failed_step_leaves_a_multi_component_orbit(self, monkeypatch):
        f = _component_map(2, 3)
        D = critical_divisor(f)
        orbit = ExactOrbit(f, D, [P2, P3])
        monkeypatch.setattr(divisors, "DEFAULT_BIT_BUDGET", 200)
        while True:
            before = ([(dict(t), m) for t, m in orbit.components],
                      dict(orbit.terms), dict(orbit.vals), orbit.depth)
            try:
                orbit.step()
            except BitBudgetError:
                break
        monkeypatch.undo()
        assert len(orbit.components) == 2 and orbit.depth == 1
        assert (orbit.components, orbit.terms, orbit.vals, orbit.depth) == before
        orbit.step()
        fresh = ExactOrbit(f, D, [P2, P3])
        fresh.step()
        fresh.step()
        assert (orbit.components, orbit.terms, orbit.vals) == \
            (fresh.components, fresh.terms, fresh.vals)

    def test_divisor_containing_H_tracks_no_place(self):
        # f_* keeps H, so lambda stays +inf at every depth and no valuation
        # is carried
        f = unicritical_map(2, Q(1, 3))
        D = Divisor(HF(2, 2, {(1, 1): Q(1)}))
        orbit = ExactOrbit(f, D, [P3])
        assert orbit.vals == {}
        for _ in range(2):
            orbit.step()
            assert orbit.lam(P3).kind == orbit.lam(INF).kind == "pos"
        assert orbit.terms == _raw_terms(pushforward_map(f, pushforward_map(f, D)))

    def test_lambda_local_is_the_slice_formula(self):
        # bit-identical to log||F||_v - log||F_0||_v read through Gauss norms
        rng = random.Random(7)
        Ds = [Divisor.point(Q(rng.randint(-50, 50), rng.randint(1, 60)))
              for _ in range(20)]
        for _ in range(20):
            N = rng.choice([1, 2])
            deg = rng.randint(1, 4)
            terms = {}
            for _ in range(6):
                e = [0] * (N + 1)
                for _ in range(deg):
                    e[rng.randrange(N + 1)] += 1
                terms[tuple(e)] = Q(rng.randint(-10**12, 10**12), rng.choice([1, 8, 27, 35]))
            if any(terms.values()):
                Ds.append(Divisor(HF(N + 1, deg, terms)))
        Ds += [pushforward_map(unicritical_map(3, Q(17, 77)), Ds[0])]
        for D in Ds:
            F0 = slice_form(D.form, 0)
            for v in (INF, P2, P3, P5, Place(7)):
                got = lambda_local(D, v)
                if F0.is_zero():
                    assert got.kind == "pos"
                    continue
                want = gauss_norm_log(D.form, v) - gauss_norm_log(F0, v)
                if v.is_arch:
                    assert got.x == want.x
                else:
                    assert got.r == want.r
