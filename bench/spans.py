"""Span tracing of the iwasawa layers, installed from outside the library.

Each layer is one library module.  `install` replaces the public entry points
listed in LAYERS with wrappers that record a span per call: name, start, end,
parent span and the id of the benchmark op that was running.  A function is
replaced in every iwasawa module namespace that binds it, because
`from .padic import teichmuller` copies the binding; methods are replaced on
their class.  PadicNumber/Fraction arithmetic dunders and a few per-coefficient
helpers (int_vp, exactq.vp, DirichletCharacter.exponent) are left alone: they
are too hot to wrap, and their cost lands in the caller's self time.

Spans are kept in flat arrays in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

LAYERS = {
    "padic": [
        "teichmuller", "from_rational_abs", "vp_diff", "unit_power", "padic_binomial",
        "plog", "pexp", "decompose_unit",
        "PadicNumber.from_rational", "PadicNumber.from_int", "PadicNumber.inverse",
    ],
    "exactq": [
        "bernoulli", "bernoulli_poly", "bernoulli_poly_eval", "zeta_neg",
        "euler_stripped_zeta", "kummer_regularized_value", "irregular_indices",
        "BernoulliCache.extend", "BernoulliCache.value",
    ],
    "characters": [
        "gen_bernoulli", "L_neg", "teichmuller_char", "quadratic_char",
        "from_generator_data", "least_primitive_root",
        "DirichletCharacter.__call__", "DirichletCharacter.multiply",
        "DirichletCharacter.primitivize", "DirichletCharacter.conductor",
        "DirichletCharacter.is_primitive", "DirichletCharacter.trivial",
    ],
    "iwaseries": [
        "TruncatedSeries.__mul__", "TruncatedSeries.scalar_mul", "TruncatedSeries.invert_unit",
        "TruncatedSeries.weierstrass_degree", "TruncatedSeries.mu_lambda",
        "TruncatedSeries.divide", "TruncatedSeries.weierstrass_prep",
        "TruncatedSeries.substitute", "TruncatedSeries.nu_involution",
        "TruncatedSeries.deriv", "TruncatedSeries.d_operator",
        "TruncatedSeries.from_integer_poly",
        "DistinguishedFactorization.reconstruct", "DistinguishedFactorization.matches_source",
        "poly_mul", "poly_divmod_monic", "omega_poly", "phi_poly", "nu_rm_poly",
        "sylvester_resultant", "resultant",
    ],
    "measures": ["dirac", "moment", "restrict_to_units", "mahler_pairing", "mahler_of_monomial"],
    "coleman": [
        "w_series", "coleman_unit", "log_derivative_measure", "omega_like", "delta_n",
        "lambda_unit_measure", "zeta_moment",
    ],
    "group_algebra": [
        "stickelberger", "project", "mu_chi_level", "h_element", "idempotent", "h_i_element",
        "evaluate_char", "h_char_value", "interp_check", "branch_limit_index",
        "branch_limit_oracle", "branch_limit_regularized", "principal_unit_dlog",
        "component_series", "GroupRingElement.__mul__",
    ],
    "lambda_modules": [
        "invariants", "is_finite_quotient", "quotient_order_exponent",
        "smith_elementary_divisors", "quotient_order_oracle", "growth_sequence",
    ],
}

# Metric name of an entry point where it differs from the attribute name.
ALIASES = {
    "TruncatedSeries.__mul__": "mul",
    "GroupRingElement.__mul__": "mul",
    "BernoulliCache.extend": "bernoulli_extend",
    "BernoulliCache.value": "bernoulli_value",
}

# Entry points whose result can be undecidable within the (M, N) window.
WINDOW_DECISIONS = {
    "iwaseries.mu_lambda", "iwaseries.weierstrass_degree",
    "iwaseries.weierstrass_prep", "iwaseries.divide",
}

# Per-layer metrics a traced run reports, with units; the list in
# BENCHMARK.json must match this one.
PER_LAYER = [
    ("group_algebra.self_s", "s"), ("group_algebra.calls", "count"),
    ("group_algebra.mu_chi_level.self_s", "s"), ("group_algebra.mul.self_s", "s"),
    ("group_algebra.evaluate_char.self_s", "s"), ("group_algebra.component_series.self_s", "s"),
    ("group_algebra.level_terms", "count"), ("group_algebra.evals_per_level", "ratio"),
    ("group_algebra.mu_cache_hit_ratio", "ratio"), ("group_algebra.level_repeat_share", "ratio"),
    ("padic.self_s", "s"), ("padic.calls", "count"), ("padic.from_rational_abs.calls", "count"),
    ("characters.self_s", "s"), ("characters.gen_bernoulli.self_s", "s"),
    ("exactq.self_s", "s"), ("exactq.bernoulli_extend.self_s", "s"),
    ("exactq.bernoulli_extend.calls", "count"), ("exactq.bernoulli_useful_ratio", "ratio"),
    ("exactq.irregular_indices.self_s", "s"),
    ("iwaseries.self_s", "s"), ("iwaseries.mul.self_s", "s"), ("iwaseries.mul.calls", "count"),
    ("iwaseries.mul.coeff_products", "count"), ("iwaseries.invert_unit.self_s", "s"),
    ("iwaseries.divide.self_s", "s"), ("iwaseries.weierstrass_prep.self_s", "s"),
    ("iwaseries.substitute.self_s", "s"), ("iwaseries.resultant.self_s", "s"),
    ("iwaseries.indeterminate_ratio", "ratio"),
    ("measures.self_s", "s"), ("measures.restrict_to_units.self_s", "s"),
    ("measures.moment.self_s", "s"),
    ("coleman.self_s", "s"), ("coleman.log_derivative_measure.self_s", "s"),
    ("lambda_modules.self_s", "s"), ("lambda_modules.quotient_order_exponent.self_s", "s"),
    ("lambda_modules.quotient_order_oracle.self_s", "s"),
    ("trace.overhead", "ratio"), ("trace.unattributed_share", "ratio"),
]

# Counters that depend only on the seed and the number of ops run.
EXACT_COUNTERS = [
    "group_algebra.level_terms", "group_algebra.evals_per_level",
    "group_algebra.mu_cache_hit_ratio", "iwaseries.mul.coeff_products",
    "exactq.bernoulli_useful_ratio", "iwaseries.indeterminate_ratio",
]

NO_OP = -1


class Tracer:
    """In-memory span store; `op` is the id of the benchmark op now running."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.indeterminate = set()  # spans that raised IndeterminateWithinTruncation
        self.op = NO_OP
        self._stack: list[int] = []
        self.mul_sizes = array("q")  # truncation M of every TruncatedSeries product
        self.level_sizes = array("q")  # terms of every group-ring element built
        self.bernoulli_requested = 0
        self.bernoulli_built = 0
        self.indeterminate_type = ()

    def wrap(self, name: str, fn, after=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                stack.pop()
                if isinstance(exc, self.indeterminate_type):
                    self.indeterminate.add(idx)
                raise
            self.end[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- hooks that turn arguments and results into exact counters ------

    def _count_mul(self, args, out):
        if self.op != NO_OP:
            self.mul_sizes.append(args[0].trunc)

    def _count_level(self, args, out):
        if self.op != NO_OP:
            self.level_sizes.append(len(out.coeffs))

    def _count_bernoulli(self, args, out):
        self.bernoulli_requested = max(self.bernoulli_requested, args[1])
        self.bernoulli_built = max(self.bernoulli_built, args[0].limit)

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, op_intervals: float) -> dict[str, float]:
        """Per-layer self time and counts over the spans inside timed ops."""
        n = len(self.start)
        names = self.names
        child_time = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child_time[par] += self.end[i] - self.start[i]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        covered = 0.0
        window_calls = window_raised = interp_misses = 0
        for i in range(n):
            name = names[self.name_of[i]]
            if name in WINDOW_DECISIONS:
                window_calls += 1
                window_raised += i in self.indeterminate
            if self.op_of[i] == NO_OP:
                continue
            dur = self.end[i] - self.start[i]
            par = self.parent[i]
            if par < 0:
                covered += dur
            elif name == "group_algebra.mu_chi_level":
                interp_misses += names[self.name_of[par]] == "group_algebra.interp_check"
            layer = name.split(".", 1)[0]
            s = dur - child_time[i]
            self_s[layer] += s
            self_s[name] += s
            calls[layer] += 1
            calls[name] += 1

        def ratio(a, b):
            return a / b if b else 0.0

        levels = calls["group_algebra.mu_chi_level"]
        interp = calls["group_algebra.interp_check"]
        out = {}
        for metric, unit in PER_LAYER:
            if metric.endswith(".self_s"):
                out[metric] = self_s[metric[: -len(".self_s")]]
            elif metric.endswith(".calls"):
                out[metric] = float(calls[metric[: -len(".calls")]])
        out["group_algebra.level_terms"] = float(sum(self.level_sizes))
        out["group_algebra.evals_per_level"] = ratio(
            calls["group_algebra.evaluate_char"] + calls["group_algebra.component_series"], levels)
        out["group_algebra.mu_cache_hit_ratio"] = ratio(interp - interp_misses, interp)
        out["iwaseries.mul.coeff_products"] = float(sum(m * (m + 1) // 2 for m in self.mul_sizes))
        out["exactq.bernoulli_useful_ratio"] = ratio(self.bernoulli_requested, self.bernoulli_built)
        out["iwaseries.indeterminate_ratio"] = ratio(window_raised, window_calls)
        out["trace.unattributed_share"] = 1.0 - ratio(covered, op_intervals)
        return out

    def write(self, path: str) -> None:
        """One line per span: name, start, end, parent index, op id."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.op_of[i]}\n")


def install(tracer: Tracer) -> None:
    """Wrap every entry point in LAYERS, in every iwasawa namespace binding it."""
    import iwasawa

    modules = [importlib.import_module(f"iwasawa.{layer}") for layer in LAYERS]
    namespaces = [iwasawa] + modules + [importlib.import_module("iwasawa.cli")]
    hooks = {
        "TruncatedSeries.__mul__": tracer._count_mul,
        "GroupRingElement.__mul__": tracer._count_level,
        "mu_chi_level": tracer._count_level,
        "BernoulliCache.value": tracer._count_bernoulli,
    }
    tracer.indeterminate_type = importlib.import_module("iwasawa.iwaseries").IndeterminateWithinTruncation
    for layer, mod in zip(LAYERS, modules):
        for entry in LAYERS[layer]:
            metric = f"{layer}.{ALIASES.get(entry, entry.rsplit('.', 1)[-1])}"
            if "." in entry:
                cls_name, attr = entry.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(tracer.wrap(metric, raw.__func__, hooks.get(entry))))
                else:
                    setattr(cls, attr, tracer.wrap(metric, raw, hooks.get(entry)))
                continue
            original = getattr(mod, entry)
            wrapped = tracer.wrap(metric, original, hooks.get(entry))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
