"""Global relative critical heights over Q and the explicit sandwich.

Summing the local escape rates of the critical divisor over all places
gives the relative critical height: zero exactly for maps whose critical
orbits are preperiodic (in particular PCF maps), and comparable to the
height of b with explicit constants in general.  good_reduction decides
the local integrality picture.
"""

from fractions import Fraction as Q

from relesc import (MinCritMap, good_reduction, relative_critical_height,
                    thm_main_bounds, unicritical_map)

# Unicritical examples: c = 0 is PCF (height 0), c = 3 escapes.
for c in (Q(0), Q(-1), Q(3), Q(1, 2)):
    f = unicritical_map(2, c)
    g = relative_critical_height(f)
    places = ",".join(g.per_place)
    print(f"c={str(c):>4}: height = {float(g.value):.8f} +- {float(g.error):.1e}"
          f"   (places {places})")

# For c = 1/2 the 2-adic place contributes exactly (1/2) log 2: bad
# reduction at 2 forces escape there.
print("good_reduction(z^2+1/2, 2):", good_reduction(unicritical_map(2, Q(1, 2)), 2))
print("good_reduction(z^2+3,   2):", good_reduction(unicritical_map(2, Q(3)), 2))

# The explicit sandwich: lower and upper bounds in h(b), h(A) with computed
# constants.  The verdict reports whether the certified interval sits
# inside the bounds.
f = MinCritMap(2, 2, [[Q(2), Q(5)], [Q(1), Q(3)]], [Q(9), Q(-4)])
rep = thm_main_bounds(f, 5)
print(f"N=2 sandwich: {float(rep['lower_bound']):.3f} <= "
      f"{float(rep['value']):.3f}(+-{float(rep['error']):.3f}) <= "
      f"{float(rep['upper_bound']):.3f}  -> {rep['verdict']}")
print(f"constants: C1 = {float(rep['C1']):.4f}, C2 = {float(rep['C2']):.4f}")
