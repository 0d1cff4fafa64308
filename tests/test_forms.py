import random
from fractions import Fraction as Q

import pytest

from relesc.divisors import MinCritMap, critical_divisor, pushforward_map
from relesc.forms import (HomogeneousForm as HF, _acc_add, _elementary, _pack,
                          _packed_mul, _product_raw, _subst_raw, _unpack, compose_linear, form_product,
                          power_pullback, power_pushforward, pushforward_terms,
                          slice_form)
from relesc.rational import UsageError, det_exact


def rand_form(rng, n, deg, bound=9, maxterms=6):
    def tuples(n, deg):
        if n == 1:
            return [(deg,)]
        out = []
        for e in range(deg + 1):
            out.extend((e,) + r for r in tuples(n - 1, deg - e))
        return out
    pool = tuples(n, deg)
    terms = {}
    for e in rng.sample(pool, min(len(pool), rng.randint(2, maxterms))):
        c = 0
        while c == 0:
            c = rng.randint(-bound, bound)
        terms[e] = Q(c)
    return HF(n, deg, terms)


def naive_product(fs):
    """Independent expansion oracle: accumulate over all term tuples."""
    n = fs[0].num_vars
    out = {}
    items = [list(f.terms.items()) for f in fs]

    def rec(i, exps, coeff):
        if i == len(items):
            out[exps] = out.get(exps, Q(0)) + coeff
            return
        for e, c in items[i]:
            rec(i + 1, tuple(a + b for a, b in zip(exps, e)), coeff * c)

    rec(0, (0,) * n, Q(1))
    return {e: c for e, c in out.items() if c != 0}


class TestFormBasics:
    def test_invariants_enforced(self):
        with pytest.raises(UsageError):
            HF(2, 2, {(1, 0): Q(1)})  # exponents do not sum to degree
        with pytest.raises(UsageError):
            HF(2, 1, {(1, 0, 0): Q(1)})  # wrong arity
        z = HF(3, 4, {})
        assert z.is_zero() and z.degree == 4

    def test_zero_coefficients_dropped(self):
        F = HF(2, 1, {(1, 0): Q(1), (0, 1): Q(0)})
        assert (0, 1) not in F.terms

    def test_json_roundtrip(self):
        F = HF(3, 2, {(2, 0, 0): Q(1), (0, 1, 1): Q(-3, 7)})
        assert HF.from_json(F.to_json()) == F
        # zero form needs explicit degree
        z = HF(2, 3, {})
        assert HF.from_json(z.to_json()) == z

    def test_json_validates(self):
        with pytest.raises(UsageError):
            HF.from_json('{"vars": 2, "terms": [{"exps": [1, 1], "coeff": "1"}], "degree": 1}')


class TestProduct:
    def test_difference_of_squares(self):
        a = Q(5)
        F1 = HF(2, 1, {(1, 0): Q(1), (0, 1): -a})
        F2 = HF(2, 1, {(1, 0): Q(1), (0, 1): a})
        assert form_product([F1, F2]) == HF(2, 2, {(2, 0): Q(1), (0, 2): -a * a})

    def test_unit_identity(self):
        rng = random.Random(1)
        F = rand_form(rng, 3, 2)
        assert form_product([F, HF.unit(3)]) == F

    def test_against_naive_oracle(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                fs = [rand_form(rng, n, rng.randint(1, 3)) for _ in range(3)]
                assert form_product(fs).terms == naive_product(fs)
            # pure powers X_i^deg: the product holds X_i^(total degree), whose
            # exponent is one below the packing base
            powers = HF(n, 3, {tuple(3 * (i == j) for j in range(n)): Q(i + 2)
                               for i in range(n)})
            fs = [powers, rand_form(rng, n, 2), powers, HF.unit(n)]
            assert form_product(fs).terms == naive_product(fs)
            assert form_product([HF.unit(n), HF.unit(n)]) == HF.unit(n)

    def test_powers_by_squaring(self):
        # _product_raw raises each factor to its multiplicity by repeated
        # squaring; the reference multiplies it in m times
        rng = random.Random(11)
        for n in (2, 3):
            fs = [{e: c.numerator for e, c in rand_form(rng, n, deg, maxterms=3).terms.items()}
                  for deg in (1, 1, 2)]
            for ms in ((1, 2, 1), (3, 1, 5), (64, 1, 1), (7, 33, 2), (1, 64, 13)):
                factors = list(zip(fs, ms))
                base = sum(sum(next(iter(t))) * m for t, m in factors) + 1
                acc = {0: 1}
                for t, m in factors:
                    for _ in range(m):
                        acc = _packed_mul(acc, _pack(t, base))
                assert _product_raw(factors, n) == _unpack(acc, base, n)

    def test_associative_commutative(self):
        rng = random.Random(3)
        a, b, c = (rand_form(rng, 2, 2) for _ in range(3))
        p1 = form_product([form_product([a, b]), c])
        p2 = form_product([a, form_product([b, c])])
        p3 = form_product([c, b, a])
        assert p1 == p2 == p3

    def test_mismatched_vars(self):
        with pytest.raises(UsageError):
            form_product([HF.unit(2), HF.unit(3)])


def naive_compose(F, M):
    """Independent expansion oracle: sum_e c_e prod_i row_i^(e_i)."""
    n = F.num_vars
    rows = [HF(n, 1, {tuple(int(k == j) for k in range(n)): Q(c)
                      for j, c in enumerate(row)}) for row in M]
    out = {}
    for e, c in F.terms.items():
        factors = [rows[i] for i in range(n) for _ in range(e[i])]
        expansion = naive_product(factors) if factors else {(0,) * n: Q(1)}
        for k, v in expansion.items():
            out[k] = out.get(k, Q(0)) + c * v
    return {k: v for k, v in out.items() if v != 0}


def horner_subst(terms, M, n):
    """Oracle for _subst_raw: substitute sum_j M[i][j] X_j for X_i by a
    nested Horner scheme over the variables, on packed monomials.  This was
    the library's substitution before it split M into shears and Taylor
    shifts; it shares only packing and the sparse product with them."""
    if not terms:
        return {}
    base = max(sum(exps) for exps in terms) + 1
    rows = [{base ** j: c for j, c in enumerate(row) if c} for row in M]

    def subst(sub, var):
        if var == n:
            return sub
        shift = base ** var
        by_e = {}
        for key, c in sub.items():
            e = key // shift % base
            by_e.setdefault(e, {})[key - e * shift] = c
        acc = {}
        for e in range(max(by_e), -1, -1):
            if acc:
                acc = _packed_mul(acc, rows[var])
            if e in by_e:
                _acc_add(acc, subst(by_e[e], var + 1))
        return acc

    return _unpack(subst(_pack(terms, base), 0), base, n)


def shear_subst(terms, M, n):
    """_subst_raw with its scalar divided out."""
    out, s = _subst_raw(terms, _elementary(M, n), n)
    assert s > 0
    return {e: Q(c) / s for e, c in out.items()}


def rand_matrix(rng, n, den=1):
    """A random invertible n x n matrix, entries a/b with 1 <= b <= den."""
    while True:
        M = [[Q(rng.randint(-4, 4), rng.randint(1, den)) if rng.random() < 0.7 else Q(0)
              for _ in range(n)] for _ in range(n)]
        if det_exact(M):
            return M


class TestSubstRaw:
    """The shear-and-Taylor-shift substitution against the nested Horner."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("coeff", [int, Q])
    def test_random_forms(self, n, coeff):
        rng = random.Random(100 * n + (coeff is Q))
        for _ in range(12):
            F = rand_form(rng, n, rng.randint(0, 6), maxterms=10)
            terms = {e: c / rng.randint(1, 9) if coeff is Q else c.numerator
                     for e, c in F.terms.items()}
            M = rand_matrix(rng, n, den=rng.choice([1, 3, 10**20 + 39]))
            assert shear_subst(terms, M, n) == horner_subst(terms, M, n)

    def test_integer_matrix_keeps_integers(self):
        rng = random.Random(5)
        for _ in range(10):
            F = rand_form(rng, 3, 4, maxterms=8)
            terms = {e: c.numerator for e, c in F.terms.items()}
            M = [[int(x) for x in row] for row in rand_matrix(rng, 3)]
            out, s = _subst_raw(terms, _elementary(M, 3), 3)
            assert all(isinstance(c, int) and c % s == 0 for c in out.values())
            assert {e: c // s for e, c in out.items()} == horner_subst(terms, M, 3)

    @pytest.mark.parametrize("M", [
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[0, 2, 1], [1, 1, 0], [3, 0, 1]],            # zero pivot, then shears
        [[0, Q(1, 3), 0], [Q(-2, 5), 0, 1], [1, 0, 0]],
    ])
    def test_swaps_and_permutations(self, M):
        rng = random.Random(9)
        for deg in (1, 3, 5):
            F = rand_form(rng, 3, deg, maxterms=12)
            assert shear_subst(F.terms, M, 3) == horner_subst(F.terms, M, 3)

    def test_large_denominators(self):
        big = 2 ** 89 - 1
        M = [[Q(1, big), Q(3, big + 2), Q(0)], [Q(0), Q(big, 7), Q(-1, 3)],
             [Q(5, big), Q(0), Q(1)]]
        rng = random.Random(13)
        for coeff in (int, Q):
            F = rand_form(rng, 3, 4, maxterms=12)
            terms = {e: c.numerator if coeff is int else c / 11 for e, c in F.terms.items()}
            assert shear_subst(terms, M, 3) == horner_subst(terms, M, 3)

    @pytest.mark.parametrize("d, A, b, k", [
        (2, [[1, 0], [0, 1]], [Q(-50, 53), Q(1, 2)], 3),
        (2, [[1, 1], [0, 1]], [Q(-3, 2), Q(-3, 2)], 3),
        (2, [[2, 1], [1, 1]], [Q(55, 59), Q(-1, 2)], 2),    # T S T-like word
        (3, [[1, 1], [0, 1]], [Q(1, 2), Q(-1)], 1),
        (2, [[0, -1], [1, 0]], [Q(1, 61), Q(1, 2)], 2),     # zero pivot in L_inv
    ])
    def test_bench_like_inverse_maps(self, d, A, b, k):
        f = MinCritMap(2, d, A, b)
        G = critical_divisor(f)
        for _ in range(k):
            G = pushforward_map(f, G)
        pushed = pushforward_terms({e: c.numerator for e, c in G.form.terms.items()},
                                   d, 3)
        assert shear_subst(pushed, f.L_inv, 3) == horner_subst(pushed, f.L_inv, 3)

    def test_empty_and_constant(self):
        assert _subst_raw({}, _elementary([[1, 0], [0, 1]], 2), 2) == ({}, 1)
        assert shear_subst({(0, 0): 7}, [[0, 2], [3, 0]], 2) == {(0, 0): 7}


class TestComposeLinear:
    def test_against_naive_oracle(self):
        rng = random.Random(17)
        dense = [[Q(1, 2), Q(3), Q(0), Q(-1)], [Q(2), Q(1), Q(1, 3), Q(0)],
                 [Q(0), Q(-2), Q(1), Q(5, 7)], [Q(1), Q(0), Q(2), Q(1)]]
        integer = [[2, 3, 1], [1, 2, 0], [0, 1, 1]]
        for M in (dense, integer):
            n = len(M)
            forms = [rand_form(rng, n, deg) for deg in (1, 2, 3, 3)]
            for F in forms + [HF.unit(n)]:
                assert compose_linear(F, M).terms == naive_compose(F, M)

    def test_identity(self):
        F = HF(2, 1, {(1, 0): Q(1)})
        assert compose_linear(F, [[1, 0], [0, 1]]) == F

    def test_translation_substitution(self):
        b = Q(4)
        F = HF(2, 1, {(1, 0): Q(1), (0, 1): Q(-3)})
        M = [[Q(1), b], [Q(0), Q(1)]]
        assert compose_linear(F, M) == HF(2, 1, {(1, 0): Q(1), (0, 1): b - 3})

    def test_roundtrip_inverse(self):
        from relesc.rational import matrix_inverse_exact
        rng = random.Random(11)
        M = [[Q(2), Q(3), Q(1)], [Q(1), Q(2), Q(0)], [Q(0), Q(1), Q(1)]]
        Minv = matrix_inverse_exact(M)
        for _ in range(5):
            F = rand_form(rng, 3, 3)
            assert compose_linear(compose_linear(F, M), Minv) == F

    def test_singular_rejected(self):
        F = HF(2, 1, {(1, 0): Q(1)})
        with pytest.raises(UsageError):
            compose_linear(F, [[1, 1], [1, 1]])


class TestPowerMaps:
    def test_pullback_example(self):
        a = Q(3)
        F = HF(2, 1, {(1, 0): Q(1), (0, 1): -a})
        assert power_pullback(F, 2) == HF(2, 2, {(2, 0): Q(1), (0, 2): -a})

    def test_pullback_monomial(self):
        F = HF(2, 4, {(4, 0): Q(1)})
        assert power_pullback(F, 3) == HF(2, 12, {(12, 0): Q(1)})

    def test_pullback_requires_d2(self):
        with pytest.raises(UsageError):
            power_pullback(HF.unit(2), 1)

    def test_pushforward_point(self):
        # [a] -> [a^d] on P^1
        for d in (2, 3, 4):
            a = Q(2, 3)
            F = HF(2, 1, {(1, 0): Q(1), (0, 1): -a})
            G = power_pushforward(F, d)
            ratio = G.terms[(1, 0)]
            assert G.terms == {(1, 0): ratio, (0, 1): -a**d * ratio}

    def test_pushforward_critical_monomial(self):
        # (X1...XN)^(d-1) pushes to (Y1...YN)^((d-1)d^(N-1)) up to sign
        for N, d in ((1, 2), (1, 3), (2, 2), (2, 3)):
            exps = tuple([d - 1] * N + [0])
            F = HF(N + 1, N * (d - 1), {exps: Q(1)})
            G = power_pushforward(F, d)
            key = tuple([(d - 1) * d ** (N - 1)] * N + [0])
            assert set(G.terms) == {key}
            assert abs(G.terms[key]) == 1

    def test_pushforward_degree_law(self):
        rng = random.Random(5)
        for N, d in ((1, 2), (1, 3), (2, 2), (2, 3)):
            F = rand_form(rng, N + 1, rng.randint(1, 2))
            G = power_pushforward(F, d)
            assert G.degree == d ** (N - 1) * F.degree

    def test_pull_of_push_is_twist_product(self):
        # phi^* phi_* F = prod of sign twists (d = 2, N = 2), exactly
        rng = random.Random(9)
        for _ in range(5):
            F = rand_form(rng, 3, 2)
            G = power_pushforward(F, 2)
            lhs = power_pullback(G, 2)
            tw = []
            for s1 in (1, -1):
                for s2 in (1, -1):
                    tw.append(HF(3, F.degree,
                                 {e: c * s1**e[0] * s2**e[1]
                                  for e, c in F.terms.items()}))
            assert lhs == form_product(tw)

    def test_push_of_pull_is_power(self):
        # phi_* phi^* D = d^N D: the form comes back as F^(d^N) up to scalar
        rng = random.Random(13)
        for N, d in ((1, 2), (1, 3), (2, 2)):
            F = rand_form(rng, N + 1, 1)
            G = power_pushforward(power_pullback(F, d), d)
            expected = form_product([F] * d**N)
            keys = set(G.terms)
            assert keys == set(expected.terms)
            k0 = next(iter(keys))
            ratio = expected.terms[k0] / G.terms[k0]
            assert ratio != 0
            assert all(expected.terms[k] == ratio * G.terms[k] for k in keys)

    def test_pushforward_rejects_zero(self):
        with pytest.raises(UsageError):
            power_pushforward(HF(2, 1, {}), 2)


class TestSlices:
    def test_point_slices(self):
        F = HF(2, 1, {(1, 0): Q(1), (0, 1): Q(-3)})
        assert slice_form(F, 0) == HF(1, 1, {(1,): Q(1)})
        assert slice_form(F, 1) == HF(1, 0, {(0,): Q(-3)})

    def test_mixed_slices(self):
        F = HF(3, 2, {(1, 1, 0): Q(1), (0, 0, 2): Q(1)})
        assert slice_form(F, 2) == HF(2, 0, {(0, 0): Q(1)})
        assert slice_form(F, 1).is_zero()
        assert slice_form(F, 0) == HF(2, 2, {(1, 1): Q(1)})

    def test_reassembly(self):
        rng = random.Random(21)
        for _ in range(5):
            F = rand_form(rng, 3, 3)
            rebuilt = {}
            for k in range(F.degree + 1):
                Fk = slice_form(F, k)
                for e, c in Fk.terms.items():
                    rebuilt[e + (k,)] = c
            assert rebuilt == F.terms

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            slice_form(HF.unit(2), 1)
