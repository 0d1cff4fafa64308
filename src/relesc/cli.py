"""Command-line interface.

Commands: escape-rate, critical-height, good-reduction, verify-lemmas,
mandel-slice, pcf-scan.  Exit codes: 0 success, 1 negative verdict,
2 usage or domain error or a refused budget.  Every JSON output echoes its
resolved configuration so runs are reproducible; numeric values are
emitted as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import repeat

import mpmath as mp
import numpy as np

from .divisors import Divisor, MinCritMap, critical_divisor, delta_estimate
from .harness import LEMMA_IDS, Profile, run_suite
from .heights import good_reduction, relative_critical_height, thm_main_bounds
from .places import INF, Place, set_precision
from .rational import BitBudgetError, DomainError, UsageError
from .unicritical import UnicriticalMap, is_pcf

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=1, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fmt(x, digits: int) -> str:
    return mp.nstr(mp.mpf(x), digits)


# ---------------------------------------------------------------------------
# escape-rate
# ---------------------------------------------------------------------------

def cmd_escape_rate(args) -> int:
    f = MinCritMap.from_json_dict(_load_json(args.map))
    D = Divisor.from_json_dict(_load_json(args.divisor))
    v = Place.parse(args.place)
    mode = args.mode
    est = delta_estimate(f, D, args.iters, v, mode=mode)
    out = {
        "config": {
            "command": "escape-rate", "map": f.to_json_dict(),
            "divisor": D.to_json_dict(), "place": repr(v),
            "iters": args.iters, "mode": est.mode,
            "precision": mp.mp.dps,
        },
        "estimate": est.to_json_dict(args.digits),
    }
    _emit(out, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# critical-height
# ---------------------------------------------------------------------------

def cmd_critical_height(args) -> int:
    f = MinCritMap.from_json_dict(_load_json(args.map))
    places = None
    if args.places != "auto":
        places = [Place.parse(t) for t in args.places.split(",") if t]
    rch = relative_critical_height(f, args.iters, places=places)
    rep = thm_main_bounds(f, rch=rch)
    out = {
        "config": {
            "command": "critical-height", "map": f.to_json_dict(),
            "iters": rch.k, "places": args.places, "precision": mp.mp.dps,
            "mode": rch.mode,
        },
        "value": _fmt(rep["value"], args.digits),
        "error": _fmt(rep["error"], args.digits),
        "lower_bound": _fmt(rep["lower_bound"], args.digits),
        "upper_bound": _fmt(rep["upper_bound"], args.digits),
        "verdict": rep["verdict"],
        "warnings": rch.warnings,
        "per_place": rch.to_json_dict(args.digits)["per_place"],
    }
    _emit(out, args.out)
    return EXIT_NEGATIVE if rep["verdict"] == "violation" else EXIT_OK


# ---------------------------------------------------------------------------
# good-reduction
# ---------------------------------------------------------------------------

def cmd_good_reduction(args) -> int:
    f = MinCritMap.from_json_dict(_load_json(args.map))
    status, reason = good_reduction(f, args.prime)
    out = {
        "config": {"command": "good-reduction", "map": f.to_json_dict(),
                   "prime": args.prime},
        "status": status,
        "reason": reason,
    }
    _emit(out, args.out)
    return {"good": EXIT_OK, "bad": EXIT_NEGATIVE}.get(status, EXIT_USAGE)


# ---------------------------------------------------------------------------
# verify-lemmas
# ---------------------------------------------------------------------------

def _profiles_from_file(path: str) -> list[Profile]:
    raw = _load_json(path)
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise UsageError("a profile file holds a JSON list of objects")
    out = []
    for entry in raw:
        entry = {k: tuple(x) if isinstance(x, list) else x for k, x in entry.items()}
        try:
            out.append(Profile(**entry))
        except TypeError as exc:  # a key that is not a field, or a missing one
            raise UsageError(f"bad profile: {exc}") from None
    return out


def cmd_verify_lemmas(args) -> int:
    profiles = _profiles_from_file(args.profile) if args.profile else None
    lemmas = tuple(args.lemma.split(",")) if args.lemma else LEMMA_IDS
    rep = run_suite(args.trials, seed=args.seed, profiles=profiles,
                    lemmas=lemmas)
    print(rep.table())
    out = {
        "config": {"command": "verify-lemmas", "trials": args.trials,
                   "seed": args.seed, "lemmas": list(lemmas),
                   "profiles": rep.profiles, "precision": mp.mp.dps},
        "report": rep.to_json_dict(),
    }
    if args.out:
        _emit(out, args.out)
    return EXIT_OK if rep.ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# mandel-slice
# ---------------------------------------------------------------------------

def _escape_values(d: int, cs: np.ndarray, max_iter: int) -> np.ndarray:
    """(d-1) * truncated Green's values for a complex grid of c, float mode.

    Iterates z <- z^d + c, freezing a cell at the step where it clears a
    large radius (the remaining tail is far below float resolution)."""
    z = np.zeros_like(cs)
    val = np.zeros(cs.shape, dtype=np.float64)
    alive = np.ones(cs.shape, dtype=bool)
    BIG = 1e50
    for k in range(1, max_iter + 1):
        z[alive] = z[alive] ** d + cs[alive]
        az = np.abs(z)
        crossed = alive & (az > BIG)
        if crossed.any():
            val[crossed] = (d - 1) * np.log(az[crossed]) / float(d) ** k
            alive &= ~crossed
        if not alive.any():
            break
    if alive.any():
        az = np.abs(z[alive])
        val[alive] = (d - 1) * np.where(az > 1.0, np.log(np.maximum(az, 1.0)),
                                        0.0) / float(d) ** max_iter
    return val


def _n2_cell_value(f_template: dict, b1: float, b2: float, d: int,
                   iters: int) -> tuple[float, str]:
    """(value, mode) of one cell: exact while affordable, else scaled."""
    A = [[Fraction(x) for x in row] for row in f_template]
    b = [Fraction(b1).limit_denominator(10**6),
         Fraction(b2).limit_denominator(10**6)]
    f = MinCritMap(2, d, A, b)
    est = delta_estimate(f, critical_divisor(f), iters, INF)
    return est.value_float(), est.mode


def _render_pgm(vals: np.ndarray, threshold: float) -> bytes:
    h, w = vals.shape
    img = np.zeros((h, w), dtype=np.uint8)
    above = vals >= threshold
    if above.any():
        vmax = float(vals.max())
        if vmax > threshold:
            scale = np.log(vals[above] / threshold) / np.log(vmax / threshold)
            img[above] = 1 + np.round(254 * np.clip(scale, 0.0, 1.0)).astype(np.uint8)
        else:
            img[above] = 1
    header = f"P5\n{w} {h}\n255\n".encode()
    return header + img.tobytes()


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 4:
        raise UsageError("grid spec must be re0:re1:im_extent:steps")
    re0, re1, imx = float(parts[0]), float(parts[1]), float(parts[2])
    steps = int(parts[3])
    if steps < 1:
        raise UsageError("steps must be >= 1")
    return re0, re1, imx, steps


def cmd_mandel_slice(args) -> int:
    if not args.out:
        raise UsageError("mandel-slice requires --out BASENAME")
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    threshold = args.threshold
    if args.map:
        # N=2 real (b1, b2) grid with A fixed from file
        spec = _load_json(args.map)
        if int(spec.get("N", 2)) != 2:
            raise UsageError("mandel-slice --map expects an N=2 map file")
        d = int(spec["d"])
        lo, hi, _imx, steps = _parse_grid(args.grid)
        axis = np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])
        # cells in row-major order: b2 picks the row, b1 the column
        cells = (repeat(spec["A"]), np.tile(axis, len(axis)),
                 np.repeat(axis, len(axis)), repeat(d), repeat(args.max_iter))
        workers = min(args.threads, len(axis) ** 2)
        if workers > 1:
            # imported here, as the pool's modules add ~1 MB to the peak RSS
            # of every process that imports this one.  Forked workers inherit
            # the parent's modules and mpmath precision, so each cell comes
            # out as without the pool
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("fork")) as pool:
                flat = list(pool.map(_n2_cell_value, *cells))
        else:
            flat = list(map(_n2_cell_value, *cells))
        vals = np.array([v for v, _ in flat]).reshape(len(axis), len(axis))
        modes = {m: sum(cm == m for _, cm in flat) for m in ("exact", "scaled")}
    else:
        d = args.d
        re0, re1, imx, steps = _parse_grid(args.grid)
        res = np.linspace(re0, re1, steps) if steps > 1 else np.array([re0])
        ims = np.linspace(-imx, imx, steps) if steps > 1 else np.array([imx])
        vals = _escape_values(d, res[None, :] + 1j * ims[:, None], args.max_iter)
        modes = {"exact": 0, "scaled": int(vals.size)}
    csv_path = args.out + ".csv"
    pgm_path = args.out + ".pgm"
    with open(csv_path, "w") as fh:
        fh.write("# " + json.dumps({
            "command": "mandel-slice", "d": d, "grid": args.grid,
            "max_iter": args.max_iter, "threshold": threshold,
            "map": args.map or None, "modes": modes}, sort_keys=True) + "\n")
        for row in vals:
            fh.write(",".join("%.12g" % x for x in row) + "\n")
    with open(pgm_path, "wb") as fh:
        fh.write(_render_pgm(vals, threshold))
    print(json.dumps({"csv": csv_path, "pgm": pgm_path,
                      "cells": int(vals.size)}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# pcf-scan
# ---------------------------------------------------------------------------

def _parse_range(spec: str) -> tuple[Fraction, Fraction]:
    lo, hi = spec.split(":")
    return Fraction(lo), Fraction(hi)


def cmd_pcf_scan(args) -> int:
    lo, hi = _parse_range(args.range)
    if args.map:
        return _pcf_scan_n2(args, lo, hi)
    found = []
    q_max = args.den_bound
    seen = set()
    for q in range(1, q_max + 1):
        a_lo = -(-lo.numerator * q // lo.denominator)  # ceil(lo*q)
        a_hi = hi.numerator * q // hi.denominator      # floor(hi*q)
        for a in range(a_lo, a_hi + 1):
            c = Fraction(a, q)
            if c in seen:
                continue
            seen.add(c)
            res = is_pcf(UnicriticalMap(args.d, c))
            if res.pcf:
                found.append({"c": str(c), "orbit": list(res.orbit),
                              "reason": res.reason})
    found.sort(key=lambda e: Fraction(e["c"]))
    out = {
        "config": {"command": "pcf-scan", "d": args.d, "N": 1,
                   "range": args.range, "den_bound": args.den_bound},
        "pcf": found,
    }
    _emit(out, args.out)
    return EXIT_OK


def _pcf_scan_n2(args, lo: Fraction, hi: Fraction) -> int:
    """Necessary-condition filter for N=2: integrality (good reduction) plus
    the height window from the theorem sandwich plus truncated-Delta
    screening.  Output is a candidate list, never a PCF certification."""
    spec = _load_json(args.map)
    d = int(spec["d"])
    A = [[Fraction(x) for x in row] for row in spec["A"]]
    candidates = []
    b_lo, b_hi = math.ceil(lo), math.floor(hi)
    for b1 in range(b_lo, b_hi + 1):
        for b2 in range(b_lo, b_hi + 1):
            f = MinCritMap(2, d, A, [Fraction(b1), Fraction(b2)])
            rep = thm_main_bounds(f, args.iters)
            # PCF forces relative critical height 0, so the lower bound
            # must not exceed 0 and the certified interval must reach 0
            window_ok = rep["lower_bound"] <= 0
            delta_ok = abs(rep["value"]) <= rep["error"] + mp.mpf("1e-9")
            if window_ok and delta_ok:
                candidates.append({
                    "b": [b1, b2],
                    "delta_interval": [_fmt(rep["value"] - rep["error"], 8),
                                       _fmt(rep["value"] + rep["error"], 8)],
                })
    out = {
        "config": {"command": "pcf-scan", "d": d, "N": 2, "map": args.map,
                   "range": args.range, "iters": args.iters,
                   "label": "candidates (necessary conditions only)"},
        "candidates": candidates,
    }
    _emit(out, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relesc",
        description="Escape rates, critical heights, and divisor calculus "
                    "for maps A X^d + b on projective space")
    ap.add_argument("--precision", type=int, default=None,
                    help="working precision in decimal digits (>= 50)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("escape-rate", help="truncated Delta_f(D) at one place")
    p.add_argument("--map", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--place", default="inf")
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--mode", choices=["exact", "scaled"], default=None,
                   help="default: exact at a prime; at inf exact while the "
                        "iterate at depth --iters is predicted to fit the "
                        "exact step budget, else scaled (the output echoes "
                        "the mode)")
    p.add_argument("--digits", type=int, default=17)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_escape_rate)

    p = sub.add_parser("critical-height",
                       help="global relative critical height + theorem sandwich")
    p.add_argument("--map", required=True)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--places", default="auto")
    p.add_argument("--digits", type=int, default=17)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_critical_height)

    p = sub.add_parser("good-reduction", help="good reduction test at p")
    p.add_argument("--map", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_good_reduction)

    p = sub.add_parser("verify-lemmas", help="randomized lemma verification")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--profile", default=None,
                   help="JSON file with a list of profile dicts")
    p.add_argument("--lemma", default=None, help="comma-separated LemmaIds")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify_lemmas)

    p = sub.add_parser("mandel-slice", help="escape-rate grid render (CSV+PGM)")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--grid", required=True, help="re0:re1:im_extent:steps")
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--map", default=None, help="N=2: map JSON fixing A")
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes over the cells of a --map grid "
                        "(forked, so the OS must support fork; each worker "
                        "may add up to 1 GiB to peak memory); an N=1 grid "
                        "is one vectorised call")
    p.add_argument("--out", default=None, help="output basename")
    p.set_defaults(fn=cmd_mandel_slice)

    p = sub.add_parser("pcf-scan", help="exact PCF scan (N=1) / candidates (N=2)")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--range", required=True, help="lo:hi")
    p.add_argument("--den-bound", type=int, default=1)
    p.add_argument("--map", default=None, help="N=2 candidate mode: map JSON")
    p.add_argument("--iters", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pcf_scan)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.precision:
            set_precision(args.precision)
        return args.fn(args)
    except (UsageError, DomainError, BitBudgetError, FileNotFoundError,
            KeyError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
