"""Acceptance suite: one test per criterion, each printing one pass/fail
line with its elapsed time and checking the stated tolerance and budget.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from fractions import Fraction as Q

import mpmath as mp

from relesc.cli import main as cli_main
from relesc.divisors import (Divisor, MinCritMap, delta_estimate,
                             delta_relative_critical, unicritical_map)
from relesc.forms import power_pullback, power_pushforward
from relesc.harness import LEMMA_IDS, CONDITIONAL, run_suite
from relesc.heights import good_reduction, relative_critical_height
from relesc.places import INF, Place
from relesc.rational import primes_upto, vp
from relesc.unicritical import UnicriticalMap, escape_rate_oracle
from test_cyclotomic_oracle import CyclotomicPoly

# Reference escape rate for z^2 + 3 from the independent orbit oracle
# (0 -> 3 -> 12 -> 147 -> 21612 -> ..., log|z_k|/2^k at k = 30, computed
# before the build and frozen here).
C3_REFERENCE = mp.mpf("0.62381274988596298047")


def _report(num, label, ok, t0, budget):
    dt = time.time() - t0
    status = "PASS" if ok and dt < budget else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status} - {label} ({dt:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert dt < budget, f"criterion {num} exceeded time budget ({dt:.1f}s)"


def rand_sl2z(rng, word=3, bound=2):
    A = [[Q(1), Q(0)], [Q(0), Q(1)]]
    for _ in range(word):
        m = Q(rng.randint(-bound, bound))
        if rng.random() < 0.5:
            A = [[A[0][0] + m * A[1][0], A[0][1] + m * A[1][1]], A[1]]
        else:
            A = [A[0], [A[1][0] + m * A[0][0], A[1][1] + m * A[0][1]]]
    return A


# ---------------------------------------------------------------------------
# 1. push-forward exactness
# ---------------------------------------------------------------------------

def _twist_product_oracle(F, d):
    """prod over zeta in mu_d^N of F_zeta, computed by full enumeration of
    root-of-unity tuples (independent of the variable-by-variable pipeline
    inside power_pushforward)."""
    n = F.num_vars
    N = n - 1
    tuples = [()]
    for _ in range(N):
        tuples = [t + (j,) for t in tuples for j in range(d)]
    if d == 2:
        acc = {(0,) * n: Q(1)}
        for js in tuples:
            tw = {e: c * Q(-1) ** sum(j * e[i] for i, j in enumerate(js))
                  for e, c in F.terms.items()}
            nxt = {}
            for ea, ca in acc.items():
                for eb, cb in tw.items():
                    key = tuple(x + y for x, y in zip(ea, eb))
                    nxt[key] = nxt.get(key, Q(0)) + ca * cb
            acc = {e: c for e, c in nxt.items() if c != 0}
        return acc
    acc = {(0,) * n: CyclotomicPoly.constant(d, Q(1))}
    for js in tuples:
        tw = {e: CyclotomicPoly.root_power(d, sum(j * e[i] for i, j in enumerate(js)))
              * CyclotomicPoly.constant(d, c)
              for e, c in F.terms.items()}
        nxt = {}
        for ea, ca in acc.items():
            for eb, cb in tw.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                prod = ca * cb
                nxt[key] = (nxt[key] + prod) if key in nxt else prod
        acc = {e: c for e, c in nxt.items() if not c.is_zero_vector()}
    return {e: Q(c.rational()) for e, c in acc.items()
            if not c.is_rational_zero()}


def test_c01_pushforward_exactness():
    t0 = time.time()
    rng = random.Random(101)
    from test_forms import rand_form
    combos = [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 2)]
    failures = 0
    for i in range(100):
        N, d, degmax = combos[i % 4]
        F = rand_form(rng, N + 1, rng.randint(1, degmax), bound=9)
        G = power_pushforward(F, d)
        lhs = power_pullback(G, d)
        rhs = _twist_product_oracle(F, d)
        if set(lhs.terms) != set(rhs):
            failures += 1
            continue
        k0 = next(iter(rhs))
        ratio = rhs[k0] / lhs.terms[k0]
        if ratio == 0 or any(rhs[k] != ratio * lhs.terms[k] for k in rhs):
            failures += 1
    _report(1, "push-forward exactness on 100 random divisors",
            failures == 0, t0, 30)


# ---------------------------------------------------------------------------
# 2. oracle equivalence for N = 1
# ---------------------------------------------------------------------------

def test_c02_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(202)
    ok = True
    for i in range(100):
        num = rng.randint(-20, 20)
        den = rng.randint(1, 20)
        c = Q(num, den)
        d = rng.choice((2, 3))
        m = UnicriticalMap(d, c)
        f = m.to_map()
        D = Divisor.point(Q(0))
        est = delta_estimate(f, D, 20, INF)
        orc = escape_rate_oracle(m, 20, INF)
        diff = abs(est.value.to_mpf() - orc.value.to_mpf())
        if diff > 1e-6 or diff > est.error.to_mpf() + orc.error.to_mpf() + mp.mpf(1e-6):
            ok = False
        for p in (2, 3):
            v = Place(p)
            e_gen = delta_estimate(f, D, 8, v, mode="exact")
            e_orc = escape_rate_oracle(m, 8, v)
            if e_gen.value.r != e_orc.value.r:
                ok = False
    _report(2, "generic Delta vs orbit oracle on 100 random maps at inf/2/3",
            ok, t0, 120)


# ---------------------------------------------------------------------------
# 3. preperiodicity forces vanishing
# ---------------------------------------------------------------------------

def test_c03_preperiodic_zero():
    t0 = time.time()
    ok = True
    for c in (Q(0), Q(-1), Q(-2)):
        g = relative_critical_height(unicritical_map(2, c))
        if not (abs(float(g.value)) <= float(g.error)
                and abs(float(g.value)) <= 1e-5):
            ok = False
    rng = random.Random(303)
    for _ in range(3):
        A = rand_sl2z(rng)
        f = MinCritMap(2, 2, A, [Q(0), Q(0)])
        g = relative_critical_height(f)
        if not (abs(float(g.value)) <= float(g.error)
                and abs(float(g.value)) <= 1e-5):
            ok = False
    _report(3, "preperiodic critical orbits give height 0 (N=1 and N=2)",
            ok, t0, 120)


# ---------------------------------------------------------------------------
# 4. derived numeric anchor
# ---------------------------------------------------------------------------

def test_c04_anchor_c3():
    t0 = time.time()
    est = delta_relative_critical(unicritical_map(2, Q(3)), 20, INF)
    ok = abs(est.value.to_mpf() - C3_REFERENCE) <= mp.mpf("5e-4")
    _report(4, "Delta_inf(C_f) for z^2+3 hits the frozen oracle anchor 0.6238",
            ok, t0, 60)


# ---------------------------------------------------------------------------
# 5. lemma suite
# ---------------------------------------------------------------------------

def test_c05_lemma_suite_500():
    t0 = time.time()
    rep = run_suite(500, seed=42)
    ok = rep.ok
    unconditioned = [l for l in LEMMA_IDS if l not in CONDITIONAL]
    for lemma in unconditioned:
        if rep.stats[lemma].non_vacuous < 50:
            ok = False
    for lemma in ("TC_MU", "KEY_MU", "KEY_LAMBDA", "BASIN"):
        if rep.stats[lemma].non_vacuous < 25:
            ok = False
    rep2 = run_suite(500, seed=42)
    if rep.to_json() != rep2.to_json():
        ok = False
    print()
    print(rep.table())
    _report(5, "500-trial lemma suite: no failures, floors met, deterministic",
            ok, t0, 600)


# ---------------------------------------------------------------------------
# 6. theorem sandwich
# ---------------------------------------------------------------------------

def test_c06_theorem_sandwich():
    t0 = time.time()
    from relesc.heights import thm_main_bounds
    rng = random.Random(606)
    conclusive = 0
    ok = True
    for _ in range(25):
        A = rand_sl2z(rng)
        b = [Q(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(2)]
        f = MinCritMap(2, 2, A, b)
        rep = thm_main_bounds(f, 5)
        if rep["verdict"] == "violation":
            ok = False
        if rep["verdict"] == "within-bounds":
            conclusive += 1
    if conclusive < 15:
        ok = False
    _report(6, f"height sandwich on 25 random N=2 maps ({conclusive}/25 conclusive)",
            ok, t0, 600)


# ---------------------------------------------------------------------------
# 7. good reduction
# ---------------------------------------------------------------------------

def test_c07_good_reduction():
    t0 = time.time()
    rng = random.Random(707)
    ok = True
    for _ in range(100):
        A = rand_sl2z(rng)
        b = [Q(rng.randint(-30, 30), rng.randint(1, 15)) for _ in range(2)]
        f = MinCritMap(2, 2, A, b)
        for p in (2, 3, 5, 7):
            status, _ = good_reduction(f, p)  # internally cross-validates
            expect = "good" if all(x == 0 or vp(x, p) >= 0 for x in b) else "bad"
            if status != expect:
                ok = False
    if good_reduction(unicritical_map(2, Q(1, 2)), 2)[0] != "bad":
        ok = False
    _report(7, "integrality criterion matches resultant scaling on 100 maps x 4 primes",
            ok, t0, 30)


# ---------------------------------------------------------------------------
# 8. PCF scan
# ---------------------------------------------------------------------------

def test_c08_pcf_scan(capsys):
    t0 = time.time()
    code = cli_main(["pcf-scan", "--d", "2", "--range=-8:8", "--den-bound", "4"])
    out = capsys.readouterr().out
    with capsys.disabled():
        obj = json.loads(out)
        found = [Q(e["c"]) for e in obj["pcf"]]
        ok = code == 0 and sorted(found) == [Q(-2), Q(-1), Q(0)]
        for c in found:
            f = unicritical_map(2, c)
            for p in primes_upto(100):
                if good_reduction(f, p)[0] != "good":
                    ok = False
            g = relative_critical_height(f)
            if abs(float(g.value)) > 1e-5:
                ok = False
        _report(8, "pcf-scan d=2 den<=4 |c|<=8 returns exactly {0,-1,-2}",
                ok, t0, 60)


# ---------------------------------------------------------------------------
# 9. Mandelbrot slice render
# ---------------------------------------------------------------------------

def test_c09_mandel_slice(tmp_path, capsys):
    t0 = time.time()
    grid = "-2.5:3.5:1.5:100"
    b1 = str(tmp_path / "t1")
    b8 = str(tmp_path / "t8")
    code1 = cli_main(["mandel-slice", "--d", "2", f"--grid={grid}",
                      "--max-iter", "50", "--threads", "1", "--out", b1])
    code8 = cli_main(["mandel-slice", "--d", "2", f"--grid={grid}",
                      "--max-iter", "50", "--threads", "8", "--out", b8])
    capsys.readouterr()
    with capsys.disabled():
        import numpy as np
        ok = code1 == 0 and code8 == 0
        pgm1 = open(b1 + ".pgm", "rb").read()
        pgm8 = open(b8 + ".pgm", "rb").read()
        if pgm1 != pgm8:
            ok = False
        rows = [l.split(",") for l in open(b1 + ".csv") if not l.startswith("#")]
        vals = np.array([[float(x) for x in r] for r in rows])
        res = np.linspace(-2.5, 3.5, 100)
        ims = np.linspace(-1.5, 1.5, 100)

        def cell(cr, ci=0.0):
            j = int(np.argmin(abs(res - cr)))
            i = int(np.argmin(abs(ims - ci)))
            return vals[i, j]

        threshold = 1e-3
        if not (cell(-1.0) < threshold and cell(0.0) < threshold):
            ok = False
        if not (cell(1.0) >= threshold and cell(3.0) >= threshold):
            ok = False
        _report(9, "100x100 Mandelbrot slice: classes right, thread-invariant bytes",
                ok, t0, 120)


# ---------------------------------------------------------------------------
# 10. mutation sensitivity
# ---------------------------------------------------------------------------

def test_c10_mutation_sensitivity(monkeypatch):
    t0 = time.time()
    import relesc.places as places_mod
    real = places_mod.place_constants

    def halved_c1(N, d, v):
        pc = real(N, d, v)
        return type(pc)(N=pc.N, d=pc.d, place=pc.place,
                        c1=pc.c1.scaled(Q(1, 2)), c2=pc.c2, c3=pc.c3,
                        c4=pc.c4, c5=pc.c5, c8=pc.c8, c9=pc.c9)

    monkeypatch.setattr(places_mod, "place_constants", halved_c1)
    rep = run_suite(12, seed=42)
    detected = not rep.ok
    monkeypatch.undo()
    clean = run_suite(12, seed=42).ok
    _report(10, "halving c1 in a test-only build trips the suite",
            detected and clean, t0, 300)
