"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``statichedge`` from outside: it
rebinds each function's name in every ``statichedge`` module whose
namespace holds it (``call_price`` is bound in ``models``, ``spanning``,
``simulation`` and ``cli``), so calls made through any import are seen.
Spans live in memory as ``[name, start, end, parent, op, info]`` and are
written out once, when the run ends.  The tracer assumes one thread: the
benchmark always runs the CLI with ``--threads 1``.
"""
from __future__ import annotations

import gzip
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "statichedge"
NAME, START, END, PARENT, OP, INFO = range(6)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _elements(args, kwargs, spot, strike):
    a = _arg(args, kwargs, 1, spot)
    b = _arg(args, kwargs, 3, strike)
    return int(np.broadcast(np.asarray(a), np.asarray(b)).size)


def _make_rule_hits(mod):
    cached = getattr(mod, "_cached_rule", None)
    return cached.cache_info().hits if cached is not None else 0


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


# (span name, module, function names, info hook).  An info hook runs after
# the call, outside the span, and returns what the aggregation needs.
TARGETS = (
    ("quadrature.make_rule", "quadrature", ("make_rule",), None),
    ("quadrature.map_to_interval", "quadrature", ("map_to_interval",), None),
    ("models.call_price", "models", ("call_price",),
     lambda a, kw, r: _elements(a, kw, "S", "K")),
    ("models.delta", "models", ("delta",), None),
    ("models.strike_gamma_weight", "models", ("strike_gamma_weight",),
     lambda a, kw, r: _elements(a, kw, "x", "K")),
    ("models.mjd_series_terms", "models", ("mjd_series_terms",),
     lambda a, kw, r: ((_arg(a, kw, 0, "params"), float(_arg(a, kw, 1, "tau"))),
                       len(r[0]))),
    ("spanning.builders", "spanning",
     ("build_cw_a", "build_cw_b", "build_gq1", "build_gq2", "build_gq_n"),
     lambda a, kw, r: len(r.legs)),
    ("spanning.hermite_strike_map", "spanning", ("hermite_strike_map",), None),
    ("simulation.simulate_paths", "simulation", ("simulate_paths",),
     lambda a, kw, r: (_arg(a, kw, 0, "model"), _arg(a, kw, 1, "cfg"))),
    ("simulation.static_hedge_run", "simulation", ("static_hedge_run",), None),
    ("simulation.delta_hedge_run", "simulation", ("delta_hedge_run",), None),
    ("simulation.summarize", "simulation", ("summarize",), None),
    ("simulation.pfe_curves", "simulation", ("pfe_curves",), None),
    ("simulation.write_errors_csv", "simulation", ("write_errors_csv",),
     lambda a, kw, r: _file_bytes([_arg(a, kw, 0, "path")])),
    ("experiments.load_config", "experiments", ("load_config",), None),
    ("experiments.run_experiment", "experiments", ("run_experiment",), None),
    ("experiments.simulate_methods", "experiments", ("simulate_methods",), None),
    ("experiments.emit", "experiments", ("emit",), lambda a, kw, r: _file_bytes(r)),
    ("cli.main", "cli", ("main",), None),
)


class Tracer:
    """Records one span per call of every function in ``TARGETS``."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.missing = []
        self._stack = []
        self._rebound = []

    def install(self):
        self.missing = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for span_name, mod_name, fn_names, hook in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for fn_name in fn_names:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                if span_name == "quadrature.make_rule":
                    wrapper = self._wrap_make_rule(original, home)
                else:
                    wrapper = self._wrap(span_name, original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                span[INFO] = hook(args, kwargs, result)
            return result

        return traced

    def _wrap_make_rule(self, fn, home):
        inner = self._wrap("quadrature.make_rule", fn, None)
        spans = self.spans

        def traced(*args, **kwargs):
            hits = _make_rule_hits(home)
            index = len(spans)
            result = inner(*args, **kwargs)
            spans[index][INFO] = _make_rule_hits(home) > hits
            return result

        return traced

    def write(self, path):
        """Write the spans as gzip CSV: index,name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]}\n")


def layer_metrics(spans, n_ops, op_bytes):
    """Per-layer metrics from spans of ``n_ops`` operations.

    Counts, times and bytes are per operation.  ``op_bytes`` is the total
    size of every file the operations wrote; ``cli.main.bytes`` is the part
    neither ``emit`` nor ``write_errors_csv`` wrote.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    info = defaultdict(list)
    series_terms = {}
    # Inputs keyed by operation: a repeat inside one operation is recomputed
    # work, a repeat across operations is the workload sending it again.
    series_keys, sim_keys = [], []
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        incl_s[name] += s[END] - s[START]
        self_s[name] += s[END] - s[START] - child_time[i]
        if s[INFO] is not None:
            info[name].append(s[INFO])
        if name == "models.mjd_series_terms":
            series_terms[s[PARENT]] = s[INFO][1]
            series_keys.append((s[OP], s[INFO][0]))
        elif name == "simulation.simulate_paths":
            sim_keys.append((s[OP], s[INFO]))
    elements = term_evals = 0
    for i, s in enumerate(spans):
        if s[NAME] == "models.call_price":
            elements += s[INFO]
            term_evals += s[INFO] * series_terms.get(i, 1)

    def ratio(num, den, empty):
        return num / den if den else empty

    emit_bytes = sum(info["experiments.emit"])
    errors_bytes = sum(info["simulation.write_errors_csv"])
    per_op = {
        "quadrature.make_rule.calls": calls["quadrature.make_rule"],
        "quadrature.make_rule.self_s": self_s["quadrature.make_rule"],
        "quadrature.map_to_interval.calls": calls["quadrature.map_to_interval"],
        "models.call_price.calls": calls["models.call_price"],
        "models.call_price.self_s": self_s["models.call_price"],
        "models.call_price.elements": elements,
        "models.call_price.term_evals": term_evals,
        "models.delta.calls": calls["models.delta"],
        "models.delta.self_s": self_s["models.delta"],
        "models.strike_gamma_weight.calls": calls["models.strike_gamma_weight"],
        "models.strike_gamma_weight.self_s": self_s["models.strike_gamma_weight"],
        "models.strike_gamma_weight.elements": sum(info["models.strike_gamma_weight"]),
        "models.mjd_series_terms.calls": calls["models.mjd_series_terms"],
        "models.mjd_series_terms.self_s": self_s["models.mjd_series_terms"],
        "spanning.builders.calls": calls["spanning.builders"],
        "spanning.builders.self_s": self_s["spanning.builders"],
        "spanning.legs": sum(info["spanning.builders"]),
        "spanning.hermite_strike_map.calls": calls["spanning.hermite_strike_map"],
        "spanning.hermite_strike_map.self_s": self_s["spanning.hermite_strike_map"],
        "simulation.simulate_paths.calls": calls["simulation.simulate_paths"],
        "simulation.simulate_paths.self_s": self_s["simulation.simulate_paths"],
        "simulation.simulate_paths.paths": sum(cfg.n_paths for _, (_, cfg) in sim_keys),
        "simulation.static_hedge_run.calls": calls["simulation.static_hedge_run"],
        "simulation.static_hedge_run.self_s": self_s["simulation.static_hedge_run"],
        "simulation.delta_hedge_run.self_s": self_s["simulation.delta_hedge_run"],
        "simulation.summarize.self_s": self_s["simulation.summarize"],
        "simulation.pfe_curves.self_s": self_s["simulation.pfe_curves"],
        "simulation.write_errors_csv.self_s": self_s["simulation.write_errors_csv"],
        "simulation.write_errors_csv.bytes": errors_bytes,
        "experiments.load_config.self_s": self_s["experiments.load_config"],
        "experiments.run_experiment.self_s": self_s["experiments.run_experiment"],
        "experiments.simulate_methods.calls": calls["experiments.simulate_methods"],
        "experiments.emit.self_s": self_s["experiments.emit"],
        "experiments.emit.bytes": emit_bytes,
        "cli.main.self_s": self_s["cli.main"],
        "cli.main.bytes": op_bytes - emit_bytes - errors_bytes,
    }
    out = {name: value / n_ops for name, value in per_op.items()}
    out["quadrature.make_rule.hit_ratio"] = ratio(
        sum(info["quadrature.make_rule"]), calls["quadrature.make_rule"], 0.0)
    out["models.call_price.ns_per_term_eval"] = ratio(
        incl_s["models.call_price"] * 1e9, term_evals, 0.0)
    # With no calls nothing was recomputed, so the ratio reads 1.
    out["models.mjd_series_terms.unique_ratio"] = ratio(
        len(set(series_keys)), len(series_keys), 1.0)
    out["simulation.simulate_paths.unique_ratio"] = ratio(
        len(set(sim_keys)), len(sim_keys), 1.0)
    return out
