import json
from fractions import Fraction

import mpmath as mp
import pytest

from relesc.divisors import critical_divisor, delta_estimate
from relesc.harness import (_CHECKS, LEMMA_IDS, _abs_le, _eq, _le,
                            audit_constants, check, default_profiles,
                            random_instance, run_suite)
from relesc.forms import form_product
from relesc.places import ARCH_SLACK, INF, LocalLog, Place, gauss_norm_log
from relesc.rational import UsageError


class TestSampling:
    def test_deterministic(self):
        p = default_profiles()[0]
        a = random_instance(1, p)
        b = random_instance(1, p)
        assert a.serialize() == b.serialize()

    def test_distinct_seeds_distinct_instances(self):
        p = default_profiles()[0]
        seen = {random_instance(s, p).serialize() for s in range(1000)}
        assert len(seen) == 1000

    def test_mu_preconditions_guaranteed(self):
        for s in range(25):
            inst = random_instance(s, default_profiles()[2])
            for D in inst.mu_divisors:
                assert not D.contains_hyperplane_at_infinity()
                assert not D.contains_origin_point()
            assert inst.resamples >= 0

    def test_delta_takes_the_default_mode(self):
        # an n2d2 instance at infinity reads the exact iterate at k_arch,
        # as delta_estimate's default does there
        inst = random_instance(3, default_profiles()[2])
        assert inst.place == INF
        D = critical_divisor(inst.f)
        exact = delta_estimate(inst.f, D, inst.profile.k_arch, INF, mode="exact")
        assert inst.delta(D) == exact

    def test_sl_matrices(self):
        from relesc.rational import det_exact
        for s in range(20):
            inst = random_instance(s, default_profiles()[2])
            assert det_exact(inst.f.A) == 1


class TestChecks:
    def test_every_lemma_runs(self):
        inst = random_instance(7, default_profiles()[0])
        for lemma in LEMMA_IDS:
            res = check(lemma, inst)
            assert res.lemma == lemma
            assert res.holds or res.vacuous is False

    def test_norm_sumprod_sums_two_products(self):
        # the left side is log||AB + A'B'|| for two pairs of forms sampled at
        # the same degrees, not log||2AB||
        for seed, profile in ((7, default_profiles()[0]), (3, default_profiles()[2])):
            inst = random_instance(seed, profile)
            A, B = (D.form for D in inst.divisors[:2])
            A2, B2 = (D.form for D in inst.mu_divisors[:2])
            assert A2.degree + B2.degree == A.degree + B.degree
            total = form_product([A, B]) + form_product([A2, B2])
            lhs = float(gauss_norm_log(total, inst.place).to_mpf())
            assert check("NORM_SUMPROD", inst).lhs == lhs

    def test_unknown_lemma(self):
        inst = random_instance(7, default_profiles()[0])
        with pytest.raises(UsageError):
            check("NOT_A_LEMMA", inst)

    def test_targeted_instances_meet_gates(self):
        hits = {"TC_MU": 0, "KEY_MU": 0, "KEY_LAMBDA": 0, "BASIN": 0}
        profs = [p for p in default_profiles() if p.targeted]
        n = 0
        for s in range(12):
            for p in profs:
                inst = random_instance(s * 31 + 5, p)
                n += 1
                for lemma in hits:
                    if not check(lemma, inst).vacuous:
                        hits[lemma] += 1
        for lemma, count in hits.items():
            assert count >= n // 2, (lemma, count, n)


class TestAtoms:
    """The comparison atoms (holds, margin, lhs, rhs) every check returns."""

    def test_infinite_kinds(self):
        inf = float("inf")
        for x in (LocalLog.arch(mp.mpf(2)), LocalLog.padic(Place(3), Fraction(1, 2))):
            v = x.place
            neg, pos = LocalLog.neg_inf(v), LocalLog.pos_inf(v)
            fx = float(x.to_mpf())
            assert _le(neg, x) == (True, inf, -inf, fx)
            assert _le(x, pos) == (True, inf, fx, inf)
            assert _le(pos, x) == (False, -inf, inf, fx)
            assert _le(x, neg) == (False, -inf, fx, -inf)

    def test_padic_exact_arch_within_slack(self):
        r, eps = Fraction(1, 3), Fraction(1, 10**40)
        v = Place(3)
        holds, margin, _, _ = _le(LocalLog.padic(v, r + eps), LocalLog.padic(v, r))
        assert not holds and margin < 0
        assert not _eq(LocalLog.padic(v, r + eps), LocalLog.padic(v, r))[0]
        third = mp.mpf(1) / 3
        holds, margin, _, _ = _le(LocalLog.arch(third + mp.mpf(10) ** -40),
                                  LocalLog.arch(third))
        assert holds and -ARCH_SLACK < margin < 0
        holds, margin, _, _ = _eq(LocalLog.arch(third + mp.mpf(10) ** -40),
                                  LocalLog.arch(third))
        assert holds and 0 < margin <= ARCH_SLACK

    def test_two_sided(self):
        bound = LocalLog.arch(mp.mpf(3))
        assert _abs_le(LocalLog.arch(mp.mpf(2)), bound) == [
            (True, 1.0, 2.0, 3.0), (True, 5.0, -2.0, 3.0)]
        x = LocalLog.padic(Place(2), Fraction(-5))
        b = LocalLog.padic(Place(2), Fraction(4))
        assert _abs_le(x, b) == [_le(x, b), _le(-x, b)]
        assert [a[0] for a in _abs_le(x, b)] == [True, False]

    def test_registry_is_the_lemma_list(self):
        assert LEMMA_IDS == tuple(_CHECKS) == (
            "NORM_PROD", "NORM_SUMPROD",
            "SUM_LAMBDA", "SUM_MU", "MU_NONNEG_LAMBDA",
            "MATRIX_XI_LE", "MATRIX_LAMBDA_INV",
            "POWER_PULL_LAMBDA", "POWER_PULL_MU", "POWER_PUSH_LAMBDA",
            "POWER_PUSH_MU",
            "LINEAR_PULL", "LINEAR_PUSH",
            "TC_MU",
            "KEY_MU", "KEY_LAMBDA",
            "BASIN",
            "DELTA_SANDWICH",
            "CRIT_LOWER", "CRIT_UPPER",
            "THM_MAIN",
            "PRODUCT_FORMULA",
            "MU_LE_LAMBDA_OVER_DEG",
        )

    def test_unknown_id_refused_alike(self):
        inst = random_instance(7, default_profiles()[0])
        with pytest.raises(UsageError) as by_check:
            check("NOT_A_LEMMA", inst)
        with pytest.raises(UsageError) as by_suite:
            run_suite(1, lemmas=("PRODUCT_FORMULA", "NOT_A_LEMMA"))
        assert str(by_check.value) == str(by_suite.value)


class TestSuite:
    def test_small_suite_clean(self):
        rep = run_suite(12, seed=7)
        assert rep.ok
        for name in LEMMA_IDS:
            assert rep.stats[name].failures == 0

    def test_report_deterministic(self):
        a = run_suite(6, seed=42).to_json()
        b = run_suite(6, seed=42).to_json()
        assert a == b

    def test_lemma_filter(self):
        rep = run_suite(3, seed=1, lemmas=("PRODUCT_FORMULA", "NORM_PROD"))
        assert set(rep.stats) == {"PRODUCT_FORMULA", "NORM_PROD"}
        assert rep.ok

    def test_table_renders(self):
        rep = run_suite(3, seed=1, lemmas=("PRODUCT_FORMULA",))
        assert "PRODUCT_FORMULA" in rep.table()
        json.loads(rep.to_json())

    def test_trials_validated(self):
        with pytest.raises(UsageError):
            run_suite(0)

    def test_empty_profile_list(self):
        rep = run_suite(5, seed=1, profiles=[])
        assert rep.ok
        assert all(s.total == 0 for s in rep.stats.values())


class TestConstantsAudit:
    def test_clean_everywhere(self):
        for N, d in ((1, 2), (1, 3), (2, 2), (2, 3)):
            for v in (INF, Place(2), Place(3), Place(5)):
                assert audit_constants(N, d, v) == []

    def test_detects_corruption(self, monkeypatch):
        import relesc.places as places_mod
        real = places_mod.place_constants

        def corrupted(N, d, v):
            pc = real(N, d, v)
            return type(pc)(N=pc.N, d=pc.d, place=pc.place,
                            c1=pc.c1.scaled(2), c2=pc.c2, c3=pc.c3, c4=pc.c4,
                            c5=pc.c5, c8=pc.c8, c9=pc.c9)

        monkeypatch.setattr(places_mod, "place_constants", corrupted)
        problems = audit_constants(1, 2, INF)
        assert any("c1" in p for p in problems)
