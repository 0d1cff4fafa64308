"""Exact sparse arithmetic for homogeneous forms over the rationals.

A form in n variables is stored as a map from exponent tuples (length n,
entries summing to the degree) to nonzero Fractions.  The operations here
are the ones the divisor calculus is built from: products, substitution by
an invertible matrix, pull-back under the coordinate power map
phi(X) = (X_1^d : ... : X_n^d), and the push-forward under phi, which is
computed as an exact norm: a circulant determinant of the residue classes
of exponents mod d, one variable at a time.

The forms keep exponent-tuple keys; every raw kernel (product,
substitution, push-forward) packs each monomial into one integer,
sum_i e_i * base^i, with base above the largest total degree that can
occur, so no exponent carries into the next and a monomial product is one
integer sum.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Sequence

from .rational import (InternalError, UsageError, parse_rational,
                       factorization, format_rational)

ExpTuple = tuple[int, ...]


class HomogeneousForm:
    """Sparse homogeneous polynomial with exact rational coefficients.

    The zero form is allowed and carries an explicit degree (empty term
    map).  Instances are immutable; all operations return new forms.
    """

    __slots__ = ("num_vars", "degree", "terms", "_key")

    def __init__(self, num_vars: int, degree: int, terms: Mapping[ExpTuple, Fraction]):
        if num_vars < 1:
            raise UsageError("num_vars must be >= 1")
        if degree < 0:
            raise UsageError("degree must be >= 0")
        clean: dict[ExpTuple, Fraction] = {}
        for exps, c in terms.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if not c:
                continue
            exps = tuple(map(int, exps))
            if len(exps) != num_vars or min(exps) < 0:
                raise UsageError(f"bad exponent tuple {exps} for {num_vars} variables")
            if sum(exps) != degree:
                raise UsageError(f"exponents {exps} do not sum to degree {degree}")
            if exps in clean:
                clean[exps] += c
            else:
                clean[exps] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousForm is immutable")

    # -- canonical identity -------------------------------------------------

    def key(self):
        if self._key is None:
            object.__setattr__(
                self, "_key",
                (self.num_vars, self.degree, tuple(sorted(self.terms.items()))),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, HomogeneousForm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_zero():
            return f"HomogeneousForm(0; vars={self.num_vars}, deg={self.degree})"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(f"X{i+1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self) -> list[Fraction]:
        return list(self.terms.values())

    def scale(self, c: Fraction) -> "HomogeneousForm":
        c = Fraction(c)
        if c == 0:
            return HomogeneousForm(self.num_vars, self.degree, {})
        return HomogeneousForm(self.num_vars, self.degree,
                               {e: c * v for e, v in self.terms.items()})

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        if self.num_vars != other.num_vars or self.degree != other.degree:
            raise UsageError("can only add forms of equal degree and num_vars")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return HomogeneousForm(self.num_vars, self.degree, terms)

    def __neg__(self):
        return self.scale(Fraction(-1))

    def __sub__(self, other):
        return self + (-other)

    @staticmethod
    def monomial(num_vars: int, exps: Sequence[int], coeff=1) -> "HomogeneousForm":
        exps = tuple(exps)
        return HomogeneousForm(num_vars, sum(exps), {exps: Fraction(coeff)})

    @staticmethod
    def unit(num_vars: int) -> "HomogeneousForm":
        return HomogeneousForm(num_vars, 0, {(0,) * num_vars: Fraction(1)})

    # -- JSON wire format ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": self.num_vars,
            "terms": [
                {"exps": list(e), "coeff": format_rational(c)}
                for e, c in sorted(self.terms.items())
            ],
            "degree": self.degree,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(obj: dict) -> "HomogeneousForm":
        try:
            n = int(obj["vars"])
            raw = obj["terms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed form JSON: {exc}") from exc
        terms: dict[ExpTuple, Fraction] = {}
        degree = obj.get("degree")
        for t in raw:
            exps = tuple(int(e) for e in t["exps"])
            coeff = parse_rational(t["coeff"])
            if degree is None:
                degree = sum(exps)
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        if degree is None:
            raise UsageError("zero form JSON must carry an explicit 'degree'")
        return HomogeneousForm(n, int(degree), terms)

    @staticmethod
    def from_json(s: str) -> "HomogeneousForm":
        return HomogeneousForm.from_json_dict(json.loads(s))


# ---------------------------------------------------------------------------
# raw kernels on packed monomials
# ---------------------------------------------------------------------------
#
# Every raw kernel below works on monomials packed into one integer each,
# sum_i e_i * base^i, so a monomial product is one integer sum.  base is one
# above the largest total degree that can occur in the computation; then no
# exponent reaches base and no sum carries into the next variable.

def _pack(terms: dict, base: int) -> dict:
    """{exponent tuple: c} -> {sum_i e_i base^i: c}."""
    out = {}
    for exps, c in terms.items():
        key = 0
        for e in reversed(exps):
            key = key * base + e
        out[key] = c
    return out


def _unpack(packed: dict, base: int, n: int) -> dict:
    """The inverse of _pack for monomials in n variables."""
    out = {}
    for key, c in packed.items():
        exps = []
        for _ in range(n):
            key, e = divmod(key, base)
            exps.append(e)
        out[tuple(exps)] = c
    return out


def _packed_mul(a: dict, b: dict) -> dict:
    """Sparse polynomial product; works for any exact coefficient type."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _packed_square(a: dict) -> dict:
    """a^2 over the pairs i <= j only."""
    items = list(a.items())
    out: dict = {}
    for i, (ea, ca) in enumerate(items):
        out[ea + ea] = out.get(ea + ea, 0) + ca * ca
        ca2 = ca + ca
        for eb, cb in items[i + 1:]:
            e = ea + eb
            out[e] = out.get(e, 0) + ca2 * cb
    return {e: c for e, c in out.items() if c}


def _acc_add(acc: dict, extra: dict, scale=1) -> dict:
    """acc += scale * extra in place, dropping zeros; returns acc."""
    if scale != 1:
        extra = {k: scale * v for k, v in extra.items()}
    for k, v in extra.items():
        s = acc.get(k, 0) + v
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]
    return acc


def _elementary(M: Sequence[Sequence], n: int) -> list[tuple]:
    """M = E_1 E_2 ... E_m by Gauss-Jordan elimination over Q, so that F(M X)
    is F with E_1, ..., E_m substituted in that order.  Each row operation
    that reduces M to the identity is recorded as its inverse E, a tuple
    (kind, i, j, t): ('swap', i, j, None) exchanges X_i and X_j,
    ('scale', i, i, c) is X_i -> c X_i and ('shear', i, j, t) is
    X_i -> X_i + t X_j."""
    M = [[Fraction(x) for x in row] for row in M]
    ops: list[tuple] = []
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            raise UsageError("substitution by a singular matrix")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            ops.append(("swap", col, piv, None))
        c = M[col][col]
        if c != 1:
            M[col] = [x / c for x in M[col]]
            ops.append(("scale", col, col, c))
        for r in range(n):
            t = M[r][col]
            if r != col and t:
                M[r] = [x - t * y for x, y in zip(M[r], M[col])]
                ops.append(("shear", r, col, t))
    return ops


def _taylor_shift(c: list, p: int) -> None:
    """sum_a c[a] y^a -> sum_a c[a] (y + p)^a, in place, by the O(s^2)
    additions of the classical Horner scheme (von zur Gathen and Gerhard,
    "Fast algorithms for Taylor shifts", ISSAC 1997)."""
    top = len(c) - 1
    while top > 0 and not c[top]:
        top -= 1
    for i in range(top):
        for a in range(top - 1, i - 1, -1):
            c[a] += p * c[a + 1]


def _shear(cur: dict, ui: int, uj: int, base: int, p: int) -> dict:
    """X_i -> X_i + p X_j on packed monomials (ui = base^i, uj = base^j): a
    Taylor shift by p of each list of the coefficients that share every
    exponent but those of X_i and X_j, indexed by the exponent of X_i."""
    lists: dict[int, list] = {}
    for key, c in cur.items():
        ei, ej = key // ui % base, key // uj % base
        rest = key - ei * ui - ej * uj
        row = lists.get(rest)
        if row is None:
            row = lists[rest] = [0] * (ei + ej + 1)
        row[ei] = c
    out = {}
    for rest, row in lists.items():
        _taylor_shift(row, p)
        top = len(row) - 1
        for e, c in enumerate(row):
            if c:
                out[rest + e * ui + (top - e) * uj] = c
    return out


def _subst_raw(terms: dict, M: Sequence[Sequence], n: int) -> tuple[dict, int]:
    """(s * F(M X), s) for F the sparse form in n variables given by terms,
    M invertible over Q and s a positive integer, so F(M X) is the first
    item over s.  Exact for any coefficient type, and integer coefficients
    stay integers.

    M is split into swaps, scalings and shears (_elementary).  A scaling
    X_i -> (a/b) X_i multiplies the coefficient of X_i^e by a^e b^(deg-e)
    and s by b^deg; a shear X_i -> X_i + (p/q) X_j is a scaling of X_j by q,
    an integer Taylor shift by p (_shear) and a scaling of X_j by 1/q."""
    if not terms:
        return {}, 1
    deg = sum(next(iter(terms)))
    base = deg + 1
    unit = [base ** i for i in range(n)]
    cur = _pack(terms, base)
    s = 1

    def scale(i: int, c: Fraction) -> None:
        nonlocal cur, s
        a, b = c.numerator, c.denominator
        pw = [a ** e * b ** (deg - e) for e in range(base)]
        cur = {key: v * pw[key // unit[i] % base] for key, v in cur.items()}
        s *= b ** deg

    for kind, i, j, t in _elementary(M, n):
        if kind == "swap":
            ui, uj = unit[i], unit[j]
            cur = {key + (key // uj % base - key // ui % base) * (ui - uj): c
                   for key, c in cur.items()}
        elif kind == "scale":
            scale(i, t)
        else:
            q = t.denominator
            if q != 1:
                scale(j, Fraction(q))
            cur = _shear(cur, unit[i], unit[j], base, t.numerator)
            if q != 1:
                scale(j, Fraction(1, q))
    return _unpack(cur, base, n), s


def _product_raw(factors: Sequence[tuple[dict, int]], n: int) -> dict:
    """prod_i F_i^(m_i) on raw terms, for (terms of F_i, m_i) pairs of
    nonzero forms in n variables and m_i >= 1; the coefficient type is
    kept.  One factor to the first power is returned as it is."""
    if len(factors) == 1 and factors[0][1] == 1:
        return factors[0][0]
    base = sum(sum(next(iter(terms))) * m for terms, m in factors) + 1
    acc = None
    for terms, m in factors:
        packed = _pack(terms, base)
        for _ in range(m):
            acc = packed if acc is None else _packed_mul(acc, packed)
    return _unpack(acc, base, n)


def form_product(fs: Sequence[HomogeneousForm]) -> HomogeneousForm:
    """Exact product of forms sharing num_vars; degree adds."""
    if not fs:
        raise UsageError("form_product of an empty list")
    n = fs[0].num_vars
    if any(f.num_vars != n for f in fs):
        raise UsageError("form_product: mismatched num_vars")
    degree = sum(f.degree for f in fs)
    if any(f.is_zero() for f in fs):
        return HomogeneousForm(n, degree, {})
    return HomogeneousForm(n, degree, _product_raw([(f.terms, 1) for f in fs], n))


def compose_linear(F: HomogeneousForm, M: Sequence[Sequence[Fraction]]) -> HomogeneousForm:
    """F(M X), exactly.  M must be an invertible (num_vars x num_vars) matrix;
    the elimination of a singular one raises UsageError.

    Evaluated by swaps, scalings and Taylor shifts (_subst_raw), so the
    cost stays near (number of terms) x (degree) per shear instead of a
    full multinomial expansion per monomial.
    """
    n = F.num_vars
    if len(M) != n or any(len(row) != n for row in M):
        raise UsageError(f"matrix must be {n}x{n}")
    if F.is_zero():
        return F
    terms, s = _subst_raw(F.terms, M, n)
    return HomogeneousForm(n, F.degree, {e: c / s for e, c in terms.items()})


def power_pullback(F: HomogeneousForm, d: int) -> HomogeneousForm:
    """phi^* at the form level: F(X_1^d, ..., X_n^d)."""
    if d < 2:
        raise UsageError("power_pullback needs d >= 2")
    return HomogeneousForm(
        F.num_vars, F.degree * d,
        {tuple(e * d for e in exps): c for exps, c in F.terms.items()},
    )


def slice_form(F: HomogeneousForm, k: int) -> HomogeneousForm:
    """The coefficient form F_k of X_n^k:  F = sum_k X_n^k F_k(X_1..X_{n-1}).

    Returns a form in one fewer variable, of degree deg(F) - k.
    """
    if not (0 <= k <= F.degree):
        raise UsageError(f"slice index {k} out of range for degree {F.degree}")
    n = F.num_vars
    if n < 2:
        raise UsageError("slice needs at least 2 variables")
    terms = {
        exps[:-1]: c for exps, c in F.terms.items() if exps[-1] == k
    }
    return HomogeneousForm(n - 1, F.degree - k, terms)


# ---------------------------------------------------------------------------
# push-forward: the norm of the residue-class split
# ---------------------------------------------------------------------------

def _packed_dot(xs, ys) -> dict:
    acc: dict = {}
    for x, y in zip(xs, ys):
        _acc_add(acc, _packed_mul(x, y))
    return acc


def _berkowitz_det(M: list[list[dict]]) -> dict:
    """det M without division, as the constant term of the characteristic
    polynomial by Berkowitz's algorithm (IPL 1984): the polynomial of each
    trailing block M[k:, k:] is a lower-triangular Toeplitz matrix, with
    first column 1, -a, -R C, -R B C, -R B^2 C, ..., times the polynomial
    of the block below it."""
    n = len(M)
    one = {0: 1}
    charpoly = [one, _acc_add({}, M[-1][-1], -1)]
    for k in range(n - 2, -1, -1):
        row, col = M[k][k + 1:], [r[k] for r in M[k + 1:]]
        block = [r[k + 1:] for r in M[k + 1:]]
        toeplitz = [one, _acc_add({}, M[k][k], -1)]
        for i in range(n - 1 - k):
            if i:
                col = [_packed_dot(r, col) for r in block]
            toeplitz.append(_acc_add({}, _packed_dot(row, col), -1))
        charpoly = [_packed_dot(toeplitz[i::-1], charpoly[:i + 1])
                    for i in range(len(charpoly) + 1)]
    return charpoly[-1] if n % 2 == 0 else _acc_add({}, charpoly[-1], -1)


def _circulant_det(parts: list[dict]) -> dict:
    """det circ(P_0, ..., P_{p-1}) = prod over zeta in mu_p of
    sum_r zeta^r P_r: closed forms for p = 2, 3, Berkowitz otherwise."""
    p = len(parts)
    if p == 2:
        return _acc_add(_packed_square(parts[0]), _packed_square(parts[1]), -1)
    if p == 3:
        out: dict = {}
        for P in parts:
            _acc_add(out, _packed_mul(_packed_square(P), P))
        return _acc_add(out, _packed_mul(_packed_mul(parts[0], parts[1]), parts[2]), -3)
    return _berkowitz_det([[parts[(j - i) % p] for j in range(p)] for i in range(p)])


def pushforward_terms(terms: dict, d: int, n: int) -> dict:
    """Raw-terms phi_* product of the terms of a homogeneous form in n
    variables (see power_pushforward); coefficient type is preserved, so
    integer inputs stay in Z throughout."""
    if not terms:
        return {}
    base = sum(next(iter(terms))) * d ** (n - 1) + 1
    cur = _pack(terms, base)
    primes = factorization(d)
    for var in range(n - 1):  # X_n is not twisted
        shift, stride = base ** var, 1
        for p in primes:
            # F(zeta x) = sum_r zeta^r P_r, P_r the terms whose exponent of x,
            # over the stride pushed forward so far, is r mod p
            parts: list[dict] = [{} for _ in range(p)]
            for key, c in cur.items():
                parts[key // shift % base // stride % p][key] = c
            cur = _circulant_det(parts)
            stride *= p
    out = {}
    for exps, c in _unpack(cur, base, n).items():
        if any(e % d for e in exps):
            raise InternalError(f"push-forward exponents {exps} not divisible by {d}")
        out[tuple(e // d for e in exps)] = c
    return out


def power_pushforward(F: HomogeneousForm, d: int) -> HomogeneousForm:
    """phi_* at the form level.

    Returns the unique G with
        G(X_1^d, ..., X_n^d) = prod over all tuples zeta in mu_d^{n-1} of
                               F(zeta_1 X_1, ..., zeta_{n-1} X_{n-1}, X_n).
    The product is taken one twisted variable x at a time, as a norm: with
    F = sum_r P_r, where P_r holds the terms whose exponent of x is r mod d,
    prod over zeta in mu_d of F(zeta x) is the circulant determinant
    det circ(P_0, ..., P_{d-1}).  It is P_0^2 - P_1^2 for d = 2 and
    P_0^3 + P_1^3 + P_2^3 - 3 P_0 P_1 P_2 for d = 3, composite d is done
    prime by prime (the mu_{ab} norm is the mu_b norm of the mu_a norm),
    and any other prime takes Berkowitz's division-free determinant.  No
    step divides, so integer coefficients stay integers, and every output
    exponent must be a multiple of d; any other exponent signals an
    implementation bug and aborts.
    """
    if d < 2:
        raise UsageError("power_pushforward needs d >= 2")
    if F.is_zero():
        raise UsageError("power_pushforward of the zero form")
    n = F.num_vars
    out = pushforward_terms(dict(F.terms), d, n)
    return HomogeneousForm(n, F.degree * d ** (n - 2), out)
