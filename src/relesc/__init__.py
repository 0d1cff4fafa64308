"""relesc: escape rates and critical heights for maps A X^d + b on P^N.

Exact sparse homogeneous-form arithmetic over Q, local norm functionals on
divisors with push-forward/pull-back under f = L o phi, certified
truncations of the relative escape rate, global relative critical heights
over Q with explicit theorem bounds, good-reduction tests, a unicritical
(N = 1) oracle bed, and a randomized verification harness for the explicit
inequalities behind all of it.
"""

from .divisors import (Divisor, Estimate, MinCritMap, critical_divisor,
                       delta_estimate, delta_relative_critical, lambda_local,
                       mu_local, pullback_map, pullback_translation,
                       pushforward_map, unicritical_map)
from .forms import (HomogeneousForm, compose_linear, form_product,
                    power_pullback, power_pushforward, slice_form)
from .harness import (LEMMA_IDS, CheckResult, Profile, check,
                      default_profiles, random_instance, run_suite)
from .heights import (GlobalEstimate, good_reduction, height_divisor,
                      matrix_height, point_height, relative_canonical_height,
                      relative_critical_height, relative_height,
                      thm_main_bounds)
from .places import (INF, LocalLog, Place, PlaceConstants, gauss_norm_log,
                     log_abs, log_plus_int, matrix_lambda, matrix_xi,
                     place_constants, set_precision)
from .rational import BitBudgetError, DomainError, InternalError, UsageError
from .unicritical import (UnicriticalMap, cross_check, escape_rate_oracle,
                          is_pcf, mandelbrot_member)

__version__ = "0.1.0"

__all__ = [
    "BitBudgetError", "CheckResult", "Divisor",
    "DomainError", "Estimate", "GlobalEstimate", "HomogeneousForm", "INF",
    "InternalError", "LEMMA_IDS", "LocalLog", "MinCritMap", "Place",
    "PlaceConstants", "Profile", "UnicriticalMap", "UsageError", "check",
    "compose_linear", "critical_divisor", "cross_check", "default_profiles",
    "delta_estimate", "delta_relative_critical", "escape_rate_oracle",
    "form_product", "gauss_norm_log", "good_reduction", "height_divisor",
    "is_pcf", "lambda_local", "log_abs", "log_plus_int", "mandelbrot_member",
    "matrix_height", "matrix_lambda", "matrix_xi", "mu_local",
    "place_constants", "point_height", "power_pullback", "power_pushforward",
    "pullback_map", "pullback_translation", "pushforward_map",
    "random_instance", "relative_canonical_height",
    "relative_critical_height", "relative_height", "run_suite",
    "set_precision", "slice_form", "thm_main_bounds", "unicritical_map",
]
