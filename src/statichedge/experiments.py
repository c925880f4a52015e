"""Config-driven experiment runner.

An experiment file (JSON, conventionally ``*.cfg``) declares a model, a
target option, the hedge methods to compare, the strike bands available
per short maturity, and exactly one sweep variable.  ``run_experiment``
produces one report row per sweep value with the inception error of every
method (plus the loss-reduction percentage when both one- and
two-maturity quadrature hedges are present), and, when a simulation block
is given, cross-path hedge-error statistics at the requested checkpoint
times.  ``parse_config`` resolves every sweep value once; the runner then
builds the static hedges of all of them in one ``spanning.build_sweep``
call, so values that share a band, a carry, a ladder or a model share that
work.  The Monte-Carlo hedge runs price on one thread pool
(``simulate_methods``).  Reports are deterministic given the config:
re-running byte-reproduces every emitted file regardless of the thread
count.

Config schema::

    {
      "model":   {"type": "bs"|"mjd", "r": .., "delta_yield": .., "sigma": ..,
                  "mu": .., ["lam": .., "mu_j": .., "sigma_j": ..]},
      "target":  {"strike": .., "maturity": .., "spot": .., ["kind": "call"]},
      "methods": [{"name": "CW_a"|"CW_b"|"GQ1"|"GQ2"|"GQn"|"DH", ["n": ..]}, ...],
      "bands":   [{"maturity": .., "lo": .., "hi": ..}, ...],   # descending maturity
      "sweep":   {"variable": "quad_points"|"band"|"u1"|"u2"|"lambda"|"mu_j"|"sigma_j",
                  "values": [..], ["hold_variance": ..]},
      ["modified_weight": {"n_inner_gq": 5, "n_laguerre": 20}],
      ["simulation": {"n_paths": .. (>= 2), "seed": .. (>= 0), "step": .. (> 0),
                      "horizon": .., ["checkpoints": [..]]}]
    }

Numbers must be finite, and ``true``/``false`` and strings are not
numbers.  ``methods``, ``sweep.values`` and ``checkpoints`` are non-empty
lists.  ``bands`` may be empty or absent when only ``DH`` is configured;
``GQ2`` needs two, and ``GQn`` takes at most ``spanning.MAX_BANDS``.  Each
quadrature order (``n``, a ``quad_points`` value, the ``modified_weight``
orders) stays within ``quadrature.ORDER_CAP`` of the rule it sizes.
``CW_a`` picks its own ladder order (the largest that fits its band) and
ignores ``n``, which is still checked against the Hermite cap.
``hold_variance`` recomputes the diffusion vol while sweeping a jump
parameter so the total annualized return variance stays fixed.  Only call
targets are supported.  ``parse_config`` builds the simulation
block's ``SimConfig`` itself (``spot0`` is the target spot): the horizon
lies on its step grid (``simulation.grid_index``) below the target
maturity, and each checkpoint maps to a grid column in ``1..n_steps``.
With a static method, the horizon may not pass the first band's maturity,
checked per sweep value (``u1`` included).  Bad input, sweep values
included, raises a ``ConfigError`` naming the field.
"""
from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, UndefinedPdlError
from .models import MAX_TERMS, MIN_TERMS, PMF_CUTOFF, BsParams, MjdParams, OptionRef
from .quadrature import HERMITE, LEGENDRE, ORDER_CAP
from .simulation import (
    HedgeErrorStats,
    SimConfig,
    _check_horizon,
    delta_hedge_run,
    grid_index,
    simulate_paths,
    static_hedge_runs,
    summarize,
)
from .spanning import (
    MATURITY_GAP,
    MAX_BANDS,
    ModifiedWeightConfig,
    StrikeBand,
    build_sweep,
    check_band_order,
    pdl,
)

__all__ = [
    "ExperimentConfig",
    "MethodSpec",
    "SweepSpec",
    "Report",
    "ReportRow",
    "load_config",
    "parse_config",
    "run_experiment",
    "emit",
]

# Each static method: the bands it needs and the quadrature rule its order
# ``n`` sizes.  ``spanning.build_sweep`` builds them all.
_STATIC_METHODS = {
    "CW_a": (1, HERMITE),
    "CW_b": (1, HERMITE),
    "GQ1": (1, LEGENDRE),
    "GQ2": (2, LEGENDRE),
    "GQn": (1, LEGENDRE),
}
METHOD_NAMES = (*_STATIC_METHODS, "DH")
_ORDERED_METHODS = ("CW_b", "GQ1", "GQ2", "GQn")
SWEEP_VARIABLES = ("quad_points", "band", "u1", "u2", "lambda", "mu_j", "sigma_j")
_JUMP_FIELDS = {"lambda": "lam", "mu_j": "mu_j", "sigma_j": "sigma_j"}


@dataclass(frozen=True)
class MethodSpec:
    name: str
    n: int | None = None


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple
    hold_variance: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    model: BsParams | MjdParams
    target: OptionRef
    spot: float
    methods: tuple[MethodSpec, ...]
    bands: tuple[StrikeBand, ...]
    sweep: SweepSpec
    modified_weight: ModifiedWeightConfig
    simulation: SimConfig | None
    checkpoints: tuple[float, ...]
    raw: dict
    # Each sweep value's ``_resolve`` result, in value order: ``parse_config``
    # resolves every value once, and ``run_experiment`` builds from these.
    resolved: tuple | None = field(default=None, repr=False, compare=False)


def _coerce(value, path: str, kind):
    """``value`` read as ``kind``: a finite float, an int or a non-empty
    list; any other ``kind`` passes the value through.  Booleans and
    strings are not numbers.  Raises ``ConfigError`` naming ``path``."""
    if kind is list:
        if isinstance(value, list) and value:
            return value
        raise ConfigError(f"{path}: must be a non-empty list")
    if kind not in (float, int):
        return value
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan  # not a number: rejected below
    if isinstance(value, (bool, str)) or not math.isfinite(out) or (kind is int and out != value):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
    return out


def _check_order_cap(name: str, n: int, path: str):
    """Reject an order ``n`` above the cap of the rule method ``name`` uses
    (``quadrature.ORDER_CAP``), naming ``path``."""
    rule = _STATIC_METHODS[name][1]
    if n > ORDER_CAP[rule]:
        raise ConfigError(f"{path}: {name} uses {rule} rules of order <= "
                          f"{ORDER_CAP[rule]}, got {n!r}")


def _get(section: dict, path: str, key: str, kind, required=True, default=None):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return _coerce(section[key], f"{path}.{key}", kind)


@contextmanager
def _config_errors(prefix: str):
    """Re-raise a constructor's ``ValueError`` as ``ConfigError(prefix +
    message)``.  Numerical subclasses count too, so keep builders out."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _parse_model(section, path="model"):
    kind = _get(section, path, "type", str)
    common = dict(
        r=_get(section, path, "r", float),
        delta_yield=_get(section, path, "delta_yield", float),
        sigma=_get(section, path, "sigma", float),
        mu=_get(section, path, "mu", float, required=False, default=0.0),
    )
    with _config_errors(f"{path}: "):
        if kind == "bs":
            return BsParams(**common)
        if kind == "mjd":
            return MjdParams(
                lam=_get(section, path, "lam", float),
                mu_j=_get(section, path, "mu_j", float),
                sigma_j=_get(section, path, "sigma_j", float),
                **common,
            )
    raise ConfigError(f"{path}.type: expected 'bs' or 'mjd', got {kind!r}")


def _parse_band(section, path):
    with _config_errors(f"{path}: "):
        return StrikeBand(
            maturity=_get(section, path, "maturity", float),
            lo=_get(section, path, "lo", float),
            hi=_get(section, path, "hi", float),
        )


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dict, every sweep value included; raises
    ``ConfigError`` naming the bad field."""
    if not isinstance(data, dict):
        raise ConfigError("config root: expected an object")
    model = _parse_model(data.get("model", {}))
    tsec = data.get("target", {})
    kind = _get(tsec, "target", "kind", str, required=False, default="call")
    if kind != "call":
        raise ConfigError(f"target.kind: only 'call' targets are supported, got {kind!r}")
    with _config_errors("target: "):
        target = OptionRef(strike=_get(tsec, "target", "strike", float),
                           maturity=_get(tsec, "target", "maturity", float))
    spot = _get(tsec, "target", "spot", float)
    if spot <= 0:
        raise ConfigError("target.spot: must be > 0")

    methods = []
    for i, msec in enumerate(_coerce(data.get("methods"), "methods", list)):
        name = _get(msec, f"methods[{i}]", "name", str)
        if name not in METHOD_NAMES:
            raise ConfigError(f"methods[{i}].name: unknown method {name!r}")
        n = _get(msec, f"methods[{i}]", "n", int, required=False)
        if n is not None and n < 1:
            raise ConfigError(f"methods[{i}].n: must be >= 1")
        if n is not None and name in _STATIC_METHODS:
            _check_order_cap(name, n, f"methods[{i}].n")
        methods.append(MethodSpec(name, n))
    if len({m.name for m in methods}) != len(methods):
        raise ConfigError("methods: duplicate method names")

    raw_bands = data.get("bands", [])
    if raw_bands != []:
        raw_bands = _coerce(raw_bands, "bands", list)
    bands = tuple(_parse_band(b, f"bands[{i}]") for i, b in enumerate(raw_bands))
    with _config_errors(""):
        check_band_order(bands, target)

    ssec = data.get("sweep")
    if not isinstance(ssec, dict):
        raise ConfigError("sweep: missing required block")
    variable = _get(ssec, "sweep", "variable", str)
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep.variable: unknown variable {variable!r}")
    values = _get(ssec, "sweep", "values", list)
    hold_variance = _get(ssec, "sweep", "hold_variance", float, required=False)
    if hold_variance is not None and variable not in _JUMP_FIELDS:
        raise ConfigError("sweep.hold_variance: only valid for jump-parameter sweeps")
    sweep = SweepSpec(variable, tuple(values), hold_variance)
    if variable in _JUMP_FIELDS and not isinstance(model, MjdParams):
        raise ConfigError(f"sweep.variable: {variable!r} requires a jump-diffusion model")
    if variable == "u2" and len(bands) < 2:
        raise ConfigError("sweep.variable: 'u2' requires at least two bands")
    if variable == "u1" and not bands:
        raise ConfigError("sweep.variable: 'u1' requires at least one band")

    mwsec = data.get("modified_weight", {})
    with _config_errors("modified_weight: "):
        mw_cfg = ModifiedWeightConfig(
            n_inner_gq=_get(mwsec, "modified_weight", "n_inner_gq", int,
                            required=False, default=5),
            n_laguerre=_get(mwsec, "modified_weight", "n_laguerre", int,
                            required=False, default=20),
        )

    sim, checkpoints = None, ()
    if "simulation" in data:
        sisec = data["simulation"]
        horizon = _get(sisec, "simulation", "horizon", float)
        n_paths = _get(sisec, "simulation", "n_paths", int)
        if n_paths < 2:
            raise ConfigError(
                f"simulation.n_paths: must be >= 2 to summarize errors, got {n_paths!r}"
            )
        path = "simulation.checkpoints"
        checkpoints = tuple(_coerce(c, path, float)
                            for c in _get(sisec, "simulation", "checkpoints", list,
                                          required=False, default=[horizon]))
        with _config_errors("simulation."):
            sim = SimConfig(n_paths=n_paths, seed=_get(sisec, "simulation", "seed", int),
                            step=_get(sisec, "simulation", "step", float),
                            horizon=horizon, spot0=spot)
            _check_horizon(sim.times[-1], target)
            # Statistics are read off the grid column of each checkpoint.
            for c in checkpoints:
                if not 1 <= grid_index("checkpoints", c, sim.step) <= sim.n_steps:
                    raise ConfigError(f"{path}: {c!r} must map to a grid column in "
                                      f"1..{sim.n_steps} (times in (0, horizon])")

    for i, m in enumerate(methods):
        need = _STATIC_METHODS[m.name][0] if m.name in _STATIC_METHODS else 0
        if len(bands) < need:
            raise ConfigError(f"methods[{i}]: {m.name} requires {need} band(s), "
                              f"got {len(bands)}")
        if m.name == "GQn" and len(bands) > MAX_BANDS:
            raise ConfigError(f"bands: GQn (methods[{i}]) spans at most {MAX_BANDS} "
                              f"maturities, got {len(bands)}")
        if m.name in _ORDERED_METHODS and m.n is None and variable != "quad_points":
            raise ConfigError(f"methods[{i}].n: required unless sweeping quad_points")
        if m.name == "DH" and sim is None:
            raise ConfigError(f"methods[{i}]: DH requires a simulation block")
    parts = (model, target, spot, tuple(methods), bands, sweep, mw_cfg, sim, checkpoints, data)
    cfg = ExperimentConfig(*parts)
    return ExperimentConfig(*parts, tuple(_resolve(cfg, value) for value in sweep.values))


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p}: cannot read config file ({exc})") from exc
    return parse_config(data)


@dataclass
class ReportRow:
    sweep_value: object
    methods: dict
    pdl: float | None

    def to_dict(self):
        return {"sweep_value": self.sweep_value, "methods": self.methods, "pdl": self.pdl}


@dataclass
class Report:
    variable: str
    rows: list
    metadata: dict

    def to_dict(self):
        return {
            "variable": self.variable,
            "rows": [row.to_dict() for row in self.rows],
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        rows = [ReportRow(r["sweep_value"], r["methods"], r["pdl"]) for r in data["rows"]]
        return cls(data["variable"], rows, data["metadata"])


def _resolve(cfg: ExperimentConfig, value):
    """Resolve one sweep value to ``(model, bands, per-method orders)``;
    a bad value raises ``ConfigError``."""
    model = cfg.model
    bands = list(cfg.bands)
    orders = {m.name: m.n for m in cfg.methods}
    var = cfg.sweep.variable
    if var == "quad_points":
        n = _coerce(value, "sweep.values", int)
        if n < 1:
            raise ConfigError(f"sweep.values: quad_points must be >= 1, got {value!r}")
        for name in orders:
            if name in _ORDERED_METHODS:
                _check_order_cap(name, n, "sweep.values")
        orders = {name: (n if name in _ORDERED_METHODS else existing)
                  for name, existing in orders.items()}
    elif var == "band":
        if not isinstance(value, list) or len(value) != len(bands):
            raise ConfigError(
                "sweep.values: each band value must list one entry per configured band"
            )
        new = []
        for i, (entry, base) in enumerate(zip(value, bands)):
            entry = {"maturity": base.maturity, **entry} if isinstance(entry, dict) else entry
            new.append(_parse_band(entry, f"sweep.values[..][{i}]"))
        bands = new
    else:
        x = _coerce(value, "sweep.values", float)
        with _config_errors("sweep.values: "):
            if var == "u1":
                bands[0] = StrikeBand(x, bands[0].lo, bands[0].hi)
            elif var == "u2":
                bands[1] = StrikeBand(x, bands[1].lo, bands[1].hi)
            else:
                model = replace(model, **{_JUMP_FIELDS[var]: x})
        if var in _JUMP_FIELDS and cfg.sweep.hold_variance is not None:
            resid = cfg.sweep.hold_variance - model.lam * (model.mu_j ** 2 + model.sigma_j ** 2)
            if resid <= 0:
                raise ConfigError(
                    f"sweep.values: jump variance exceeds hold_variance at {value!r}"
                )
            model = replace(model, sigma=math.sqrt(resid))
    with _config_errors(""):
        check_band_order(bands, cfg.target)
    if cfg.simulation is not None and any(m.name in _STATIC_METHODS for m in cfg.methods):
        # The longest leg of every static portfolio expires at bands[0].
        with _config_errors("simulation."):
            _check_horizon(cfg.simulation.times[-1], cfg.target, [bands[0].maturity])
    return model, bands, orders


def _value_contexts(cfg: ExperimentConfig, values) -> list:
    """Resolve each sweep value to ``(model, per-method orders,
    portfolios)``: every value is resolved first, then ``_build_contexts``
    builds them."""
    return _build_contexts(cfg, [_resolve(cfg, value) for value in values])


def _build_contexts(cfg: ExperimentConfig, resolved) -> list:
    """The ``(model, per-method orders, portfolios)`` of each ``_resolve``
    result in ``resolved``: one ``build_sweep`` call builds the static
    portfolios (all methods but DH) of all of them, sharing the work the
    values have in common."""
    cases = [(model, bands, {m.name: orders[m.name] for m in cfg.methods
                             if m.name in _STATIC_METHODS})
             for model, bands, orders in resolved]
    built = build_sweep(cfg.target, cfg.spot, cases, cfg.modified_weight)
    return [(model, orders, portfolios)
            for (model, _, orders), portfolios in zip(resolved, built)]


def _value_context(cfg: ExperimentConfig, value):
    """The ``_value_contexts`` entry of one sweep value."""
    return _value_contexts(cfg, [value])[0]


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one, else the CPU count): the default thread count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def simulate_methods(cfg: ExperimentConfig, contexts, columns=None, threads=None) -> list:
    """Hedge errors of every method for each resolved sweep value.

    ``contexts`` holds ``_value_contexts`` results.  Returns one ``{method
    name: (n_paths, len(columns)) error matrix}`` per context, at the grid
    ``columns`` (default: every grid time of ``cfg.simulation``).

    Values whose resolved models are equal (every value of a band, order,
    ``u1`` or ``u2`` sweep) form one group: one path set, one delta hedge
    and one static walk over all the group's portfolios, so every method
    and value of a group sees the same paths (common random numbers).

    With ``threads`` above 1 (default: ``_usable_cpus()``) one pool of
    ``threads - 1`` worker threads serves the whole call: the hedge runs
    walk on the calling thread and hand the pool to ``call_price`` and
    ``delta``, which share their blocks between the calling thread and the
    pool.  Blocking never changes a value, so the result does not depend on
    ``threads``.
    """
    threads = _usable_cpus() if threads is None else threads
    has_dh = any(m.name == "DH" for m in cfg.methods)
    groups = {}
    for index, (model, _, _) in enumerate(contexts):
        groups.setdefault(model, []).append(index)
    out = [None] * len(contexts)
    with ThreadPoolExecutor(max_workers=threads - 1) if threads > 1 else nullcontext() as pool:
        for model, indices in groups.items():
            paths = simulate_paths(model, cfg.simulation)
            portfolios = [p for i in indices for p in contexts[i][2].values()]
            errors = iter(static_hedge_runs(paths, portfolios, model, columns, pool))
            dh = (delta_hedge_run(paths, model, cfg.target, columns, pool)
                  if has_dh else None)
            for i in indices:
                static = {name: next(errors) for name in contexts[i][2]}
                out[i] = {m.name: dh if m.name == "DH" else static[m.name] for m in cfg.methods}
    return out


def _inception_row(cfg: ExperimentConfig, value, orders, portfolios) -> ReportRow:
    methods = {}
    for m in cfg.methods:
        if m.name == "DH":
            methods[m.name] = {}
            continue
        portfolio = portfolios[m.name]
        methods[m.name] = {
            "edl": -portfolio.b0,
            "legs": len(portfolio.legs),
            "n": len(portfolio.legs) if m.name == "CW_a" else orders.get(m.name),
        }
    pdl_value = None
    if "GQ1" in methods and "GQ2" in methods:
        try:
            pdl_value = pdl(methods["GQ1"]["edl"], methods["GQ2"]["edl"])
        except UndefinedPdlError:
            pass
    return ReportRow(value, methods, pdl_value)


def run_experiment(cfg: ExperimentConfig, threads=None) -> Report:
    """Evaluate every sweep value; rows keep the config's value order and
    the result is independent of ``threads``.

    The values ``parse_config`` resolved are built in one ``build_sweep``
    call on the calling thread; ``simulate_methods`` then hedges every
    value at the checkpoint columns, pricing on ``threads`` threads
    (default: ``_usable_cpus()``).
    """
    values = list(cfg.sweep.values)
    contexts = _build_contexts(cfg, cfg.resolved)
    rows = [_inception_row(cfg, value, orders, portfolios)
            for value, (_, orders, portfolios) in zip(values, contexts)]
    if cfg.simulation is not None:
        columns = [grid_index("checkpoints", c, cfg.simulation.step) for c in cfg.checkpoints]
        for row, errors in zip(rows, simulate_methods(cfg, contexts, columns, threads)):
            for name, matrix in errors.items():
                row.methods.setdefault(name, {})["stats"] = [
                    {"time": c, **summarize(matrix[:, j]).to_dict()}
                    for j, c in enumerate(cfg.checkpoints)]
    metadata = {
        "package": "statichedge",
        "version": __version__,
        "sweep_variable": cfg.sweep.variable,
        "defaults": {
            "n_inner_gq": cfg.modified_weight.n_inner_gq,
            "n_laguerre": cfg.modified_weight.n_laguerre,
            "mjd_series": {"min_terms": MIN_TERMS, "pmf_cutoff": PMF_CUTOFF,
                           "max_terms": MAX_TERMS},
            "maturity_gap_guard": MATURITY_GAP,
        },
        "config": cfg.raw,
    }
    return Report(cfg.sweep.variable, rows, metadata)


def _scalar_x(row, index):
    return row.sweep_value if np.isscalar(row.sweep_value) else index


def emit(report: Report, format: str, out_dir) -> list:
    """Write the report; returns the created file paths.

    ``csv``: one row per sweep value (wide; plus ``stats.csv`` long-form
    when simulation statistics are present).  ``json``: the full nested
    report.  ``plot``: per-method (x, edl, log10|edl|) series for figure
    reproduction.
    """
    if not report.rows:
        raise ConfigError("cannot emit an empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the config's method order; a JSON read-back holds the rows' methods sorted
    config_methods = report.metadata.get("config", {}).get("methods")
    names = ([m["name"] for m in config_methods] if config_methods
             else list(report.rows[0].methods))
    if format == "json":
        path = out / "report.json"
        path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
        return [path]
    # Each CSV file as {file name: rows}, header row first.
    tables = {}
    if format == "csv":
        header = ["sweep_value"]
        for name in names:
            header += [f"{name}_edl", f"{name}_legs"]
        tables["report.csv"] = [header + ["pdl"]]
        stat_fields = [f.name for f in fields(HedgeErrorStats)]
        stats = [["sweep_value", "method", "time"] + stat_fields]
        for row in report.rows:
            cells = [json.dumps(row.sweep_value)]
            for name in names:
                info = row.methods.get(name, {})
                cells += [_fmt(info.get("edl")), _fmt(info.get("legs"))]
                for stat in info.get("stats", []):
                    stats.append([json.dumps(row.sweep_value), name, _fmt(stat["time"])]
                                 + [_fmt(stat[f]) for f in stat_fields])
            tables["report.csv"].append(cells + [_fmt(row.pdl)])
        if len(stats) > 1:
            tables["stats.csv"] = stats
    elif format == "plot":
        header = ["x"]
        for name in names:
            header += [f"{name}_edl", f"{name}_log10_abs_edl"]
        tables["series.csv"] = [header]
        for index, row in enumerate(report.rows):
            cells = [_fmt(_scalar_x(row, index))]
            for name in names:
                e = row.methods.get(name, {}).get("edl")
                cells.append(_fmt(e))
                cells.append(_fmt(math.log10(abs(e)) if e not in (None, 0.0) else None))
            tables["series.csv"].append(cells)
    else:
        raise ConfigError(f"unknown emit format {format!r}")
    written = []
    for file_name, rows in tables.items():
        path = out / file_name
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        written.append(path)
    return written


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)
