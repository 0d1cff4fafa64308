"""The cyclotomic carrier: an independent oracle for the push-forward.

relesc.forms computes phi_* as a norm, a circulant determinant of the
residue classes of exponents.  The carrier below forms the same product
of root-of-unity twists term by term instead, in Q[t]/(t^d - 1), and reads
the rational value off the primitive component (mod Phi_d).  It shares no
arithmetic with the norm, so c01 (test_acceptance) and the exact-dict
comparison here check one algorithm against the other.
"""

import random
from fractions import Fraction as Q
from functools import lru_cache
from typing import Sequence

import pytest

from relesc.forms import _berkowitz_det, _circulant_det, pushforward_terms
from relesc.rational import InternalError, UsageError
from test_forms import rand_form


@lru_cache(maxsize=None)
def cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the d-th cyclotomic polynomial."""
    # (t^d - 1) divided by the product of Phi_e for proper divisors e of d;
    # every divisor in the chain is monic, so the arithmetic stays in Z
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = _polydiv_monic(num, list(cyclotomic_coeffs(e)))
    return tuple(num)


def _polydiv_monic(num: list[int], den: list[int]) -> list[int]:
    if den[-1] != 1:
        raise InternalError("cyclotomic divisor is not monic")
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q = num[i + len(den) - 1]
        out[i] = q
        if q:
            for j, dc in enumerate(den):
                num[i + j] -= q * dc
    if any(num):
        raise InternalError("inexact cyclotomic division")
    return out


class CyclotomicPoly:
    """Element of Q[t]/(t^d - 1), the carrier ring for root-of-unity twists.

    Arithmetic reduces exponents mod d (cyclic convolution).  Rationality
    of a result is decided in the primitive component: the vector is
    reduced mod Phi_d(t), where t genuinely ranges over primitive d-th
    roots, and the reduction must be a constant.  (Reducing mod t^d - 1
    alone is not enough: the components at non-primitive roots of unity
    retain junk from partial twist products.)
    """

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: Sequence):
        if len(coeffs) != d:
            raise UsageError("coefficient vector must have length d")
        self.d = d
        self.coeffs = tuple(coeffs)  # int or Fraction entries, kept as given

    @staticmethod
    def constant(d: int, c) -> "CyclotomicPoly":
        return CyclotomicPoly(d, (c,) + (0,) * (d - 1))

    @staticmethod
    def root_power(d: int, j: int) -> "CyclotomicPoly":
        v = [0] * d
        v[j % d] = 1
        return CyclotomicPoly(d, v)

    def __mul__(self, other: "CyclotomicPoly") -> "CyclotomicPoly":
        d = self.d
        out = [0] * d
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % d] += a * b
        return CyclotomicPoly(d, out)

    def __add__(self, other: "CyclotomicPoly") -> "CyclotomicPoly":
        return CyclotomicPoly(self.d, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def is_zero_vector(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def reduce_primitive(self) -> list:
        """Remainder of the vector mod Phi_d(t), ascending coefficients.
        Phi_d is monic over Z, so no division is ever needed."""
        phi = cyclotomic_coeffs(self.d)
        rem = list(self.coeffs)
        deg_phi = len(phi) - 1
        for i in range(len(rem) - 1, deg_phi - 1, -1):
            q = rem[i]
            if q:
                for j, pc in enumerate(phi):
                    rem[i - deg_phi + j] -= q * pc
        return rem[:deg_phi]

    def rational(self):
        """The rational value, if this element is rational in the primitive
        component; raises InternalError otherwise."""
        rem = self.reduce_primitive()
        if any(rem[1:]):
            raise InternalError(f"cyclotomic coordinate not rational: {rem}")
        return rem[0] if rem else 0

    def is_rational_zero(self) -> bool:
        rem = self.reduce_primitive()
        return not any(rem)


def carrier_pushforward_terms(terms: dict, d: int, n: int) -> dict:
    """pushforward_terms by the carrier: for each twisted variable, the
    product of the d twists F(zeta^j x), j < d, multiplied out term by
    term with cyclotomic coefficients."""
    cur = dict(terms)
    for var in range(n - 1):
        acc = {e: CyclotomicPoly.constant(d, c) for e, c in cur.items()}
        for j in range(1, d):
            twisted = {
                e: CyclotomicPoly.root_power(d, j * e[var]) * CyclotomicPoly.constant(d, c)
                for e, c in cur.items()
            }
            nxt = {}
            for ea, ca in acc.items():
                for eb, cb in twisted.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    prod = ca * cb
                    nxt[e] = nxt[e] + prod if e in nxt else prod
            acc = {e: c for e, c in nxt.items() if not c.is_zero_vector()}
        cur = {e: c.rational() for e, c in acc.items() if not c.is_rational_zero()}
    out = {}
    for e, c in cur.items():
        if any(x % d for x in e):
            raise InternalError(f"push-forward exponents {e} not divisible by {d}")
        out[tuple(x // d for x in e)] = c
    return out


class TestCyclotomic:
    def test_phi_polynomials(self):
        assert cyclotomic_coeffs(1) == (-1, 1)
        assert cyclotomic_coeffs(2) == (1, 1)
        assert cyclotomic_coeffs(3) == (1, 1, 1)
        assert cyclotomic_coeffs(4) == (1, 0, 1)
        assert cyclotomic_coeffs(6) == (1, -1, 1)

    def test_rationality_detection(self):
        # 1 + t + t^2 reduces to 0 mod Phi_3
        x = CyclotomicPoly(3, (1, 1, 1))
        assert x.is_rational_zero()
        # t itself is not rational mod Phi_3
        with pytest.raises(InternalError):
            CyclotomicPoly(3, (0, 1, 0)).rational()
        # t is rational (= -1) mod Phi_2
        assert CyclotomicPoly(2, (0, 1)).rational() == -1

    def test_cyclic_multiplication(self):
        # (1 + t) * t = t + t^2, exponents mod 3
        a = CyclotomicPoly(3, (1, 1, 0))
        b = CyclotomicPoly(3, (0, 1, 0))
        assert (a * b).coeffs == (0, 1, 1)


# small seeded forms per N: (degree, most terms); N = 3 takes linear
# binomials, since the carrier's d^3-fold product of a linear trinomial
# already takes seconds at d = 6
SHAPES = {1: (3, 4), 2: (2, 4), 3: (1, 2)}


class TestNormMatchesCarrier:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_pushforward_terms_equals_carrier(self, d):
        # same dict, no scalar factor: same keys, values and value types,
        # for Fraction coefficients and for the integer ones divisors use
        rng = random.Random(600 + d)
        for N, (deg, maxterms) in SHAPES.items():
            for _ in range(3):
                F = rand_form(rng, N + 1, deg, maxterms=maxterms)
                for terms in (dict(F.terms), {e: int(c) for e, c in F.terms.items()}):
                    got = pushforward_terms(terms, d, N + 1)
                    want = carrier_pushforward_terms(terms, d, N + 1)
                    assert got == want, (N, d, F)
                    assert all(type(got[e]) is type(want[e]) for e in want)

    def test_berkowitz_matches_closed_forms(self):
        # the division-free determinant on the circulants that have closed forms
        rng = random.Random(17)
        for p in (2, 3):
            for _ in range(5):
                parts = [{rng.randrange(20): rng.randint(-9, 9) or 1
                          for _ in range(rng.randint(1, 3))} for _ in range(p)]
                M = [[parts[(j - i) % p] for j in range(p)] for i in range(p)]
                assert _berkowitz_det(M) == _circulant_det(parts)
