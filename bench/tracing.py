"""Per-layer tracing for the benchmark, installed from outside the program.

``Tracer.install`` wraps named relesc functions and methods.  A function
that other modules import by name is replaced in every relesc module that
holds it, so each caller's own attribute lookup reaches the wrapper.  Each
call becomes a span (name, start, end, parent span, result attributes)
kept in memory; ``write_jsonl`` writes them out when the run ends.  Self
time is a span's duration minus the durations of its direct child spans.

Nothing here runs unless ``install`` is called: untraced runs import this
module only for the metric list.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

LEMMA_SPLIT = ("THM_MAIN", "CRIT_LOWER", "DELTA_SANDWICH")


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return abs(int(c)).bit_length()


def _pushforward_attrs(args, kwargs, res):
    return {"terms": len(res),
            "bits": max((_coeff_bits(c) for c in res.values()), default=0)}


def _delta_attrs(args, kwargs, res):
    return {"mode": res.mode}


def _height_attrs(args, kwargs, res):
    return {"mode": res.mode, "warnings": len(res.warnings)}


def _lshape_attrs(args, kwargs, res):
    return {"degree": args[0].degree}


def _factor_attrs(args, kwargs, res):
    return {"bits": abs(args[0]).bit_length()}


def _check_attrs(args, kwargs, res):
    return {"non_vacuous": not res.vacuous}


# (module, attribute path, span name, result attributes)
TARGETS = (
    ("forms", "pushforward_terms", "forms.pushforward_terms", _pushforward_attrs),
    ("forms", "_subst_raw", "forms._subst_raw", None),
    ("forms", "form_product", "forms.form_product", None),
    ("forms", "compose_linear", "forms.compose_linear", None),
    ("divisors", "pushforward_map", "divisors.pushforward_map", None),
    ("divisors", "delta_estimate", "divisors.delta_estimate", _delta_attrs),
    ("divisors", "lambda_local", "divisors.lambda_local", None),
    ("scaled", "SlicedForm.power_push", "scaled.power_push", None),
    ("scaled", "SlicedForm.compose_lshape", "scaled.compose_lshape", _lshape_attrs),
    ("places", "Place.__post_init__", "places.Place", None),
    ("rational", "prime_factors", "rational.prime_factors", _factor_attrs),
    ("places", "gauss_norm_log", "places.gauss_norm_log", None),
    ("places", "place_constants", "places.place_constants", None),
    ("heights", "relative_canonical_height", "heights.relative_canonical_height",
     _height_attrs),
    ("heights", "thm_main_bounds", "heights.thm_main_bounds", None),
    ("unicritical", "is_pcf", "unicritical.is_pcf", None),
    ("harness", "random_instance", "harness.random_instance", None),
    ("harness", "check", "harness.check", _check_attrs),
    ("cli", "cmd_mandel_slice", "cli.mandel-slice", None),
    ("cli", "cmd_critical_height", "cli.critical-height", None),
    ("cli", "cmd_pcf_scan", "cli.pcf-scan", None),
)

# (metric name, unit, better): the per-layer metrics of BENCHMARK.json
METRICS = []
for _name in ("forms.pushforward_terms", "forms._subst_raw", "forms.form_product",
              "forms.compose_linear", "divisors.pushforward_map",
              "divisors.lambda_local", "scaled.power_push",
              "scaled.compose_lshape", "rational.prime_factors",
              "places.gauss_norm_log", "places.place_constants",
              "heights.relative_canonical_height", "heights.thm_main_bounds",
              "unicritical.is_pcf", "harness.random_instance"):
    METRICS.append((_name + ".calls", "count", "lower"))
    METRICS.append((_name + ".self_s", "s", "lower"))
METRICS += [
    ("forms.pushforward_terms.out_terms", "count", "lower"),
    ("forms.pushforward_terms.out_bits", "bits", "lower"),
    ("divisors.delta_estimate.exact_calls", "count", "lower"),
    ("divisors.delta_estimate.scaled_calls", "count", "lower"),
    ("divisors.delta_estimate.self_s", "s", "lower"),
    ("scaled.compose_lshape.degree_max", "count", "lower"),
    ("places.Place.constructions", "count", "lower"),
    ("places.Place.self_s", "s", "lower"),
    ("rational.prime_factors.input_bits_max", "bits", "lower"),
    ("heights.relative_canonical_height.global_exact", "count", "higher"),
    ("heights.relative_canonical_height.per_place", "count", "lower"),
    ("heights.relative_canonical_height.budget_retries", "count", "lower"),
]
METRICS += [(f"harness.check.{lemma}.self_s", "s", "lower")
            for lemma in LEMMA_SPLIT + ("other",)]
METRICS += [
    ("harness.check.non_vacuous", "count", "higher"),
    ("cli.mandel-slice.self_s", "s", "lower"),
    ("cli.critical-height.self_s", "s", "lower"),
    ("cli.pcf-scan.self_s", "s", "lower"),
]


class Tracer:
    """Spans of the wrapped calls, and the per-layer metrics made from them."""

    def __init__(self):
        self.spans: list = []   # [name, t0, t1, parent index, attrs]
        self._stack: list[int] = []
        self._undo: list = []
        self.paused = False     # calls made while paused are not recorded

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, attrs_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            label = name
            if name == "harness.check":
                label = f"harness.check.{args[0]}"
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, res)
            return res

        return wrapper

    def install(self, package) -> None:
        """Wrap every target; ``package`` is the imported relesc package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for mod_name, path, name, attrs_of in TARGETS:
            owner = getattr(package, mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, attrs_of)
            if cls_path:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, as totals per round (maxima are over the run)."""
        out = {name: 0.0 if unit == "s" else 0 for name, unit, _ in METRICS}
        maxima = {"forms.pushforward_terms.out_terms",
                  "forms.pushforward_terms.out_bits",
                  "scaled.compose_lshape.degree_max",
                  "rational.prime_factors.input_bits_max"}
        for span, own in zip(self.spans, self.self_times()):
            name, attrs = span[0], span[4]
            if name.startswith("harness.check."):
                lemma = name.rsplit(".", 1)[1]
                key = lemma if lemma in LEMMA_SPLIT else "other"
                out[f"harness.check.{key}.self_s"] += own
                out["harness.check.non_vacuous"] += int(bool(attrs and attrs["non_vacuous"]))
                continue
            out[name + ".self_s"] += own
            if name == "places.Place":
                out["places.Place.constructions"] += 1
            elif name + ".calls" in out:
                out[name + ".calls"] += 1
            if attrs is None:  # the call raised
                continue
            if name == "divisors.delta_estimate":
                out[f"{name}.{attrs['mode']}_calls"] += 1
            elif name == "forms.pushforward_terms":
                out[name + ".out_terms"] = max(out[name + ".out_terms"], attrs["terms"])
                out[name + ".out_bits"] = max(out[name + ".out_bits"], attrs["bits"])
            elif name == "scaled.compose_lshape":
                out[name + ".degree_max"] = max(out[name + ".degree_max"], attrs["degree"])
            elif name == "rational.prime_factors":
                out[name + ".input_bits_max"] = max(out[name + ".input_bits_max"],
                                                    attrs["bits"])
            elif name == "heights.relative_canonical_height":
                key = "global_exact" if attrs["mode"] == "global-exact" else "per_place"
                out[f"{name}.{key}"] += 1
                out[f"{name}.budget_retries"] += attrs["warnings"]
        for name, unit, _ in METRICS:
            if name not in maxima:
                out[name] = out[name] / rounds
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": t0, "end": t1,
                                     "attrs": attrs}) + "\n")
