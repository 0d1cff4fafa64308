"""Regenerate the exact-mode reference values of the arch-slice unipotent grid.

    python3 bench/regen_refs.py

No oracle covers the cells of the d = 2 grid with A = [[1, 1], [0, 1]], so
the benchmark compares the scaled values that ``mandel-slice`` renders there
with the exact-mode truncation lambda(f_*^k C_f) / d^(kN) at the same k.
This command computes those truncations with relesc's exact push-forward,
checks every iterate behind each value with the modular push-forward
identity (oracles.check_pushforward_step), reads lambda off the last
iterate itself, and writes bench/refs/arch_slice_unipotent.json.

The values are exact functions of the grid, the map and k, so a change to
the program never calls for new ones; rerun this only when the grid, the
matrix or the max-iter of that render in workload.py change.
"""

from __future__ import annotations

import json
import random
import sys

import mpmath as mp

from oracles import check_pushforward_step, is_primitive_integer, lambda_of_form
from workload import (ARCH_MAX_ITER, D2_GRID, U2, UNIPOTENT_REFS, grid_axis,
                      import_relesc)


def main() -> int:
    relesc = import_relesc()
    d, k = 2, ARCH_MAX_ITER[2]
    lo, hi, steps = D2_GRID
    rng = random.Random("regen_refs")
    values = {}
    for b2 in grid_axis(lo, hi, steps):
        for b1 in grid_axis(lo, hi, steps):
            f = relesc.MinCritMap(2, d, U2, [b1, b2])
            G = relesc.critical_divisor(f)
            for _ in range(k):
                H = relesc.pushforward_map(f, G)
                check_pushforward_step(G.form.terms, H.form.terms, f.L, d, rng)
                if not is_primitive_integer(H.form.terms):
                    raise SystemExit(f"iterate for b = ({b1}, {b2}) is not primitive")
                G = H
            lam = lambda_of_form(G.form.terms, None) / d ** (f.N * k)
            exact = relesc.delta_estimate(f, relesc.critical_divisor(f), k,
                                          relesc.INF, mode="exact")
            if abs(exact.value.to_mpf() - lam) > mp.mpf("1e-30"):
                raise SystemExit(f"delta_estimate disagrees with lambda at ({b1}, {b2})")
            values[f"{b1},{b2}"] = mp.nstr(lam, 40)
    UNIPOTENT_REFS.parent.mkdir(exist_ok=True)
    UNIPOTENT_REFS.write_text(json.dumps({
        "what": "exact truncation lambda_inf(f_*^k C_f) / d^(kN) for "
                "f = A X^d + (b1, b2), keys 'b1,b2'",
        "A": U2, "d": d, "k": k,
        "grid": f"{lo}:{hi}:0:{steps}",
        "values": values,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} values to {UNIPOTENT_REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
