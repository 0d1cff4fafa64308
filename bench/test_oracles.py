"""Each benchmark oracle accepts a right answer and rejects a planted error.

    python3 -m pytest -q bench/test_oracles.py
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as O  # noqa: E402
from workload import import_relesc  # noqa: E402

relesc = import_relesc()


def iterates(d, A, b, k, D=None):
    f = relesc.MinCritMap(2, d, A, b)
    G = D if D is not None else relesc.critical_divisor(f)
    out = [G]
    for _ in range(k):
        out.append(relesc.pushforward_map(f, out[-1]))
    return f, out


@pytest.mark.parametrize("d,A,b,k", [
    (2, [[1, 0], [0, 1]], [Q(1, 7), Q(-3, 2)], 3),
    (2, [[1, 1], [0, 1]], [Q(-3, 4), Q(-3, 2)], 3),
    (3, [[1, 1], [0, 1]], [Q(2, 5), Q(-1, 2)], 1),
])
def test_identity_accepts_program_iterates(d, A, b, k):
    f, its = iterates(d, A, b, k)
    rng = random.Random(0)
    for F, G in zip(its, its[1:]):
        O.check_pushforward_step(F.form.terms, G.form.terms, f.L, d, rng)
        assert O.is_primitive_integer(G.form.terms)


def _planted(terms, change):
    out = dict(terms)
    e = sorted(out)[len(out) // 2]
    out[e] = change(out[e])
    return out


@pytest.mark.parametrize("d,k", [(2, 3), (3, 1)])
@pytest.mark.parametrize("change", [lambda c: c + 1, lambda c: -c],
                         ids=["coefficient+1", "flipped-sign"])
def test_identity_rejects_planted_coefficient(d, k, change):
    f, its = iterates(d, [[1, 1], [0, 1]], [Q(1, 3), Q(-1, 2)], k)
    F, G = its[-2].form.terms, its[-1].form.terms
    with pytest.raises(O.OracleMismatch):
        O.check_pushforward_step(F, _planted(G, change), f.L, d, random.Random(1))


def test_identity_rejects_wrong_degree():
    f, its = iterates(2, [[1, 0], [0, 1]], [Q(1, 3), Q(1, 2)], 1)
    F = its[0].form.terms
    with pytest.raises(O.OracleMismatch):
        O.check_pushforward_step(F, F, f.L, 2, random.Random(2))


def test_roots_of_unity():
    for d in (2, 3, 6):
        w = O.primitive_root_of_unity(d)
        assert pow(w, d, O.P61) == 1
        assert all(pow(w, j, O.P61) != 1 for j in range(1, d))


def test_green_arch_known_values():
    assert abs(O.green_arch(3, 2) - mp.mpf("0.623812749885963")) < 1e-14
    assert O.green_arch(-2, 2) == 0
    assert O.green_arch(Q(1, 4), 2) == 0


def test_product_oracle_and_normalisation():
    """For A = I the truncation lambda(f_*^k C_f) / d^(kN) lies within the
    certified radius of (d-1) sum_i G_{b_i}; normalising by d^k instead of
    d^(kN) moves it outside.  A smaller slip, one factor of d, stays inside
    the radius at this depth; the lambda read off the iterate catches it."""
    d, k, p = 2, 4, 7
    b = [Q(3, 7), Q(5, 2)]
    f, its = iterates(d, [[1, 0], [0, 1]], b, k)
    G = its[-1].form.terms
    for place, truth in ((None, O.product_delta(b, d, None)),
                         (p, O.as_mpf(O.product_delta(b, d, p)) * mp.log(p))):
        lam = O.lambda_of_form(G, place)
        lam = lam if place is None else O.as_mpf(lam) * mp.log(p)
        v = relesc.INF if place is None else relesc.Place(place)
        radius = relesc.divisors.delta_tail_bound(f, its[0].degree, k, v).to_mpf()
        assert O.contains(lam / d ** (2 * k), radius, truth)
        assert not O.contains(lam / d ** k, radius, truth)
        est = relesc.delta_estimate(f, its[0], k, v, mode="exact").value.to_mpf()
        assert abs(est - lam / d ** (2 * k)) < mp.mpf("1e-30")
        assert abs(est - lam / d ** (2 * k - 1)) > mp.mpf("1e-3")


def test_contains_rejects_value_just_outside():
    truth, radius = mp.mpf("0.5"), mp.mpf("0.25")
    assert O.contains(truth + radius, radius, truth)
    assert not O.contains(truth + radius * (1 + mp.mpf("1e-20")), radius, truth)
    assert not O.contains(truth - radius * (1 + mp.mpf("1e-20")), radius, truth)


def test_preperiodic_zero():
    assert O.preperiodic_zero(mp.mpf("1e-3"), mp.mpf("1e-3"))
    assert not O.preperiodic_zero(mp.mpf("1e-3") * (1 + mp.mpf("1e-20")), mp.mpf("1e-3"))


def test_global_height_sum_over_places():
    """The N = 1 sum over places matches the program, needs every prime of
    the denominator, and rejects a value moved past the radius."""
    p, q = 10007, 10009
    c = Q(5, p * q)
    truth = O.global_product_height([c], 2, [p, q])
    g = relesc.relative_critical_height(relesc.unicritical_map(2, c))
    assert O.contains(g.value, g.error, truth)
    assert not O.contains(g.value + 2 * g.error + mp.mpf("1e-20"), g.error, truth)
    with pytest.raises(ValueError):
        O.global_product_height([c], 2, [p])


def _integer_pcf(d, c):
    z, seen = 0, {0}
    while True:
        z = z ** d + c
        if abs(z) > max(abs(c), 2) + 1:
            return False
        if z in seen:
            return True
        seen.add(z)


def test_pcf_table_matches_integer_orbits():
    for d, expected in O.RATIONAL_PCF.items():
        assert tuple(c for c in range(0, -11, -1) if _integer_pcf(d, c)) == expected
        assert not any(_integer_pcf(d, c) for c in range(1, 11))


def test_pcf_expected_rejects_planted_sets():
    want = O.pcf_expected(2, Q(-3), Q(3))
    assert want == [-2, -1, 0]
    assert want != sorted(want + [Q(-3, 2)])
    assert want != want[1:]
    assert O.pcf_expected(4, Q(-1, 2), Q(1)) == [0]
