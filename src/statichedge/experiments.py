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
                  ["mu": ..], ["lam": .., "mu_j": .., "sigma_j": ..]},
      "target":  {"strike": .., "maturity": .., "spot": .., ["kind": "call"]},
      "methods": [{"name": "CW_a"|"CW_b"|"GQ1"|"GQ2"|"GQn"|"DH", ["n": ..]}, ...],
      "bands":   [{"maturity": .., "lo": .., "hi": ..}, ...],   # descending maturity
      "sweep":   {"variable": "quad_points"|"band"|"u1"|"u2"|"lambda"|"mu_j"|"sigma_j",
                  "values": [..], ["hold_variance": ..]},
      ["modified_weight": {["n_inner_gq": ..], ["n_laguerre": ..]}],
      ["simulation": {"n_paths": .. (2..2**32), "seed": .. (>= 0), "step": .. (> 0),
                      "horizon": .., ["checkpoints": [..]]}]
    }

Each block is read from the fields of its dataclass (``BsParams``/
``MjdParams``, ``OptionRef``, ``MethodSpec``, ``StrikeBand``, ``SweepSpec``,
``ModifiedWeightConfig``, ``SimConfig``), with their defaults, and a key
no block reads is an unknown field.  Numbers must be finite, and
``true``/``false`` and strings are not numbers.  ``methods``,
``sweep.values`` and ``checkpoints`` are non-empty lists.  ``bands`` may
be empty or absent when only ``DH`` is configured.
``spanning.STATIC_METHODS`` gives the bands each static method needs
(``GQ2`` two, ``GQn`` at most ``spanning.MAX_BANDS``) and the rule each
quadrature order (``n``, a ``quad_points`` value) sizes; every order, the
``modified_weight`` ones too, lies in ``[1, ORDER_CAP]`` of its rule.
``CW_a`` picks its own ladder order; its ``n`` is ignored but still capped.
``hold_variance`` recomputes the diffusion vol while sweeping a jump
parameter so the total annualized return variance stays fixed.  Only call
targets are supported.  ``parse_config`` builds the simulation
block's ``SimConfig`` itself (``spot0`` is the target spot): the horizon
lies on its step grid (``simulation.grid_index``), and each checkpoint
maps to a grid column in ``1..n_steps``.  Per sweep value, the bands
strictly decrease in maturity below the target's, the horizon stays below
the target maturity and does not pass the first band, and each band a
static method hedges with that expires inside the horizon lies on the grid
(``simulation._leg_columns``).  Bad input, sweep values included, raises a
``ConfigError`` naming the field.
"""
from __future__ import annotations

import csv
import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .models import MAX_TERMS, MIN_TERMS, PMF_CUTOFF, BsParams, MjdParams, OptionRef
from .simulation import (
    HedgeErrorStats,
    SimConfig,
    _leg_columns,
    delta_hedge_run,
    grid_index,
    simulate_paths,
    static_hedge_runs,
    summarize,
)
from .spanning import (
    MATURITY_GAP,
    STATIC_METHODS,
    ModifiedWeightConfig,
    StrikeBand,
    build_sweep,
    check_band_order,
    check_method,
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

METHOD_NAMES = (*STATIC_METHODS, "DH")
# The static methods whose order ``n`` sizes their hedge; ``CW_a`` picks its own.
_SIZED_METHODS = tuple(name for name in STATIC_METHODS if name != "CW_a")
SWEEP_VARIABLES = ("quad_points", "band", "u1", "u2", "lambda", "mu_j", "sigma_j")
_JUMP_FIELDS = {"lambda": "lam", "mu_j": "mu_j", "sigma_j": "sigma_j"}
_ROOT_KEYS = ("model", "target", "methods", "bands", "sweep", "modified_weight", "simulation")
_KINDS = {"str": str, "float": float, "int": int, "tuple": tuple,  # a field annotation's kind
          "float | None": float, "int | None": int}


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

    @functools.cached_property
    def resolved(self) -> tuple:
        """Each sweep value's ``_resolve`` result, in value order, derived
        from this config on first use (``parse_config`` reads it, so a bad
        value fails there); a ``dataclasses.replace`` copy resolves anew."""
        return tuple(_resolve(self, value) for value in self.sweep.values)


def _coerce(value, path: str, kind):
    """``value`` read as ``kind``: a finite float, an int or a non-empty list
    (a tuple for ``tuple``); other kinds pass it through.  Booleans and
    strings are not numbers.  Raises ``ConfigError`` naming ``path``."""
    if kind in (list, tuple):
        if isinstance(value, list) and value:
            return kind(value)
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


def _object(section, path: str, known) -> dict:
    """``section``, checked to be an object with no key outside ``known``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'config root'}: expected an object")
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field" if path else f"{key}: unknown field")
    return section


def _section(cls, section, path: str, prefix=None, extra=(), **given):
    """``cls(**given)``, each other field read from ``section`` as its
    annotated kind, required unless it has a default.  Keys outside those
    fields and ``extra`` are unknown; constructor errors get ``prefix``."""
    read = [f for f in fields(cls) if f.name not in given]
    _object(section, path, {*extra, *(f.name for f in read)})
    for f in read:
        given[f.name] = _get(section, path, f.name, _KINDS[f.type], f.default is MISSING,
                             f.default)
    with _config_errors(f"{path}: " if prefix is None else prefix):
        return cls(**given)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dict, every sweep value included; raises
    ``ConfigError`` naming the bad field."""
    _object(data, "", _ROOT_KEYS)
    msec = data.get("model", {})
    kind = _get(msec, "model", "type", str)
    if kind not in ("bs", "mjd"):
        raise ConfigError(f"model.type: expected 'bs' or 'mjd', got {kind!r}")
    model = _section(BsParams if kind == "bs" else MjdParams, msec, "model", extra=("type",))
    tsec = data.get("target", {})
    kind = _get(tsec, "target", "kind", str, required=False, default="call")
    if kind != "call":
        raise ConfigError(f"target.kind: only 'call' targets are supported, got {kind!r}")
    target = _section(OptionRef, tsec, "target", extra=("kind", "spot"))
    spot = _get(tsec, "target", "spot", float)
    if spot <= 0:
        raise ConfigError("target.spot: must be > 0")

    methods = []
    for i, entry in enumerate(_coerce(data.get("methods"), "methods", list)):
        m = _section(MethodSpec, entry, f"methods[{i}]")
        if m.name not in METHOD_NAMES:
            raise ConfigError(f"methods[{i}].name: unknown method {m.name!r}")
        if m.name == "DH" and m.n is not None and m.n < 1:  # check_method bounds the others
            raise ConfigError(f"methods[{i}].n: must be >= 1")
        methods.append(m)
    if len({m.name for m in methods}) != len(methods):
        raise ConfigError("methods: duplicate method names")

    raw_bands = data.get("bands", [])
    if raw_bands != []:
        raw_bands = _coerce(raw_bands, "bands", list)
    bands = tuple(_section(StrikeBand, b, f"bands[{i}]") for i, b in enumerate(raw_bands))

    if not isinstance(ssec := data.get("sweep"), dict):
        raise ConfigError("sweep: missing required block")
    sweep = _section(SweepSpec, ssec, "sweep")
    if sweep.variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep.variable: unknown variable {sweep.variable!r}")
    if sweep.hold_variance is not None and sweep.variable not in _JUMP_FIELDS:
        raise ConfigError("sweep.hold_variance: only valid for jump-parameter sweeps")
    if sweep.variable in _JUMP_FIELDS and not isinstance(model, MjdParams):
        raise ConfigError(f"sweep.variable: {sweep.variable!r} requires a jump-diffusion model")
    if sweep.variable == "u2" and len(bands) < 2:
        raise ConfigError("sweep.variable: 'u2' requires at least two bands")
    if sweep.variable == "u1" and not bands:
        raise ConfigError("sweep.variable: 'u1' requires at least one band")

    mw_cfg = _section(ModifiedWeightConfig, data.get("modified_weight", {}), "modified_weight")

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
        sim = _section(SimConfig, sisec, "simulation", "simulation.",
                       ("n_paths", "horizon", "checkpoints"),
                       n_paths=n_paths, horizon=horizon, spot0=spot)
        with _config_errors("simulation."):
            # Statistics are read off the grid column of each checkpoint.
            for c in checkpoints:
                if not 1 <= grid_index("checkpoints", c, sim.step) <= sim.n_steps:
                    raise ConfigError(f"{path}: {c!r} must map to a grid column in "
                                      f"1..{sim.n_steps} (times in (0, horizon])")

    for i, m in enumerate(methods):
        if m.name in STATIC_METHODS:
            with _config_errors(f"methods[{i}]: "):
                check_method(m.name, None, bands)
            with _config_errors(f"methods[{i}].n: "):
                check_method(m.name, m.n, bands)
        if m.name in _SIZED_METHODS and m.n is None and sweep.variable != "quad_points":
            raise ConfigError(f"methods[{i}].n: required unless sweeping quad_points")
        if m.name == "DH" and sim is None:
            raise ConfigError(f"methods[{i}]: DH requires a simulation block")
    cfg = ExperimentConfig(model, target, spot, tuple(methods), bands, sweep, mw_cfg, sim,
                           checkpoints, data)
    cfg.resolved  # resolve every sweep value now: a bad one is a parse error
    return cfg


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


def _as_dict(record) -> dict:
    """A dataclass record's fields, by name (``asdict`` deep-copies them)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


@dataclass
class ReportRow:
    sweep_value: object
    methods: dict
    pdl: float | None

    to_dict = _as_dict


@dataclass
class Report:
    variable: str
    rows: list
    metadata: dict

    def to_dict(self):
        return {**_as_dict(self), "rows": [row.to_dict() for row in self.rows]}

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        rows = [ReportRow(**{f.name: r[f.name] for f in fields(ReportRow)}) for r in data["rows"]]
        return cls(**{f.name: data[f.name] for f in fields(cls)} | {"rows": rows})


def _resolve(cfg: ExperimentConfig, value):
    """Resolve one sweep value to ``(model, bands, static-method orders)``;
    a bad value raises ``ConfigError``."""
    model = cfg.model
    bands = list(cfg.bands)
    orders = {m.name: m.n for m in cfg.methods if m.name in STATIC_METHODS}
    var = cfg.sweep.variable
    if var == "quad_points":
        n = _coerce(value, "sweep.values", int)
        if n < 1:
            raise ConfigError(f"sweep.values: quad_points must be >= 1, got {value!r}")
        with _config_errors("sweep.values: "):
            for name in orders:
                if name in _SIZED_METHODS:
                    check_method(name, n, bands)
                    orders[name] = n
    elif var == "band":
        if not isinstance(value, list) or len(value) != len(bands):
            raise ConfigError(
                "sweep.values: each band value must list one entry per configured band"
            )
        new = []
        for i, (entry, base) in enumerate(zip(value, bands)):
            entry = {"maturity": base.maturity, **entry} if isinstance(entry, dict) else entry
            new.append(_section(StrikeBand, entry, f"sweep.values[..][{i}]"))
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
    if cfg.simulation is not None:
        # Each static method hedges with its leading bands, bands[0] the longest.
        depth = max((check_method(name, None, bands) for name in orders), default=0)
        with _config_errors("simulation."):
            _leg_columns(cfg.simulation.times, cfg.target, [b.maturity for b in bands[:depth]])
    return model, bands, orders


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one, else the CPU count): the default thread count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def simulate_methods(cfg: ExperimentConfig, built, columns=None, threads=None) -> list:
    """Hedge errors of every method for each built sweep value.

    ``built`` is the ``build_sweep`` result of the leading values of
    ``cfg.resolved`` (all of them, or the first), whose models it reads.
    Returns one ``{method name: (n_paths, len(columns)) error matrix}`` per
    built value, at the grid ``columns`` (default: every grid time of
    ``cfg.simulation``).

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
    for index, (model, _, _) in enumerate(cfg.resolved[:len(built)]):
        groups.setdefault(model, []).append(index)
    out = [None] * len(built)
    with ThreadPoolExecutor(max_workers=threads - 1) if threads > 1 else nullcontext() as pool:
        for model, indices in groups.items():
            paths = simulate_paths(model, cfg.simulation)
            portfolios = [p for i in indices for p in built[i].values()]
            errors = iter(static_hedge_runs(paths, portfolios, model, columns, pool))
            dh = (delta_hedge_run(paths, model, cfg.target, columns, pool)
                  if has_dh else None)
            for i in indices:
                static = {name: next(errors) for name in built[i]}
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
        pdl_value = pdl(methods["GQ1"]["edl"], methods["GQ2"]["edl"])
    return ReportRow(value, methods, pdl_value)


def run_experiment(cfg: ExperimentConfig, threads=None) -> Report:
    """Evaluate every sweep value; rows keep the config's value order and
    the result is independent of ``threads``.

    The values of ``cfg.resolved`` are built in one ``build_sweep`` call
    on the calling thread; ``simulate_methods`` then hedges every
    value at the checkpoint columns, pricing on ``threads`` threads
    (default: ``_usable_cpus()``).
    """
    built = build_sweep(cfg.target, cfg.spot, cfg.resolved, cfg.modified_weight)
    rows = [_inception_row(cfg, value, orders, portfolios)
            for value, (_, _, orders), portfolios in zip(cfg.sweep.values, cfg.resolved, built)]
    if cfg.simulation is not None:
        columns = [grid_index("checkpoints", c, cfg.simulation.step) for c in cfg.checkpoints]
        summaries = {}  # by id: every value of a model group shares its DH matrix
        for row, errors in zip(rows, simulate_methods(cfg, built, columns, threads)):
            for name, matrix in errors.items():
                if id(matrix) not in summaries:
                    summaries[id(matrix)] = [{"time": c, **summarize(matrix[:, j]).to_dict()}
                                             for j, c in enumerate(cfg.checkpoints)]
                row.methods.setdefault(name, {})["stats"] = summaries[id(matrix)]
    metadata = {
        "package": "statichedge",
        "version": __version__,
        "sweep_variable": cfg.sweep.variable,
        "defaults": {
            **asdict(cfg.modified_weight),
            "mjd_series": {"min_terms": MIN_TERMS, "pmf_cutoff": PMF_CUTOFF,
                           "max_terms": MAX_TERMS},
            "maturity_gap_guard": MATURITY_GAP,
        },
        "config": cfg.raw,
    }
    return Report(cfg.sweep.variable, rows, metadata)


def _write_csv(path, rows, lineterminator="\r\n"):
    """Write ``rows`` to ``path`` with the ``csv`` module, which writes None
    as an empty cell, a float by ``repr`` and an int by ``str``; returns
    ``path``.  The one CSV writer of the package but ``write_errors_csv``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator=lineterminator).writerows(rows)
    return path


def _write_json(path, data):
    """Write ``data`` to ``path`` as sorted, indented JSON; returns ``path``."""
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return path


def emit(report: Report, format: str, out_dir) -> list:
    """Write the report; returns the created file paths.

    ``csv``: one row per sweep value (wide; plus ``stats.csv`` long-form
    when simulation statistics are present).  ``json``: the full nested
    report.  ``plot``: per-method (x, edl, log10|edl|) series for figure
    reproduction.  ``_write_json`` and ``_write_csv`` (``\r\n`` line
    endings) write the files; a missing value is an empty cell.
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
        return [_write_json(out / "report.json", report.to_dict())]
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
                cells += [info.get("edl"), info.get("legs")]
                for stat in info.get("stats", []):
                    stats.append([json.dumps(row.sweep_value), name, stat["time"]]
                                 + [str(stat[f]).lower() if f == "degenerate" else stat[f]
                                    for f in stat_fields])
            tables["report.csv"].append(cells + [row.pdl])
        if len(stats) > 1:
            tables["stats.csv"] = stats
    elif format == "plot":
        header = ["x"]
        for name in names:
            header += [f"{name}_edl", f"{name}_log10_abs_edl"]
        tables["series.csv"] = [header]
        for index, row in enumerate(report.rows):
            cells = [row.sweep_value if np.isscalar(row.sweep_value) else index]
            for name in names:
                e = row.methods.get(name, {}).get("edl")
                cells += [e, math.log10(abs(e)) if e not in (None, 0.0) else None]
            tables["series.csv"].append(cells)
    else:
        raise ConfigError(f"unknown emit format {format!r}")
    return [_write_csv(out / file_name, rows) for file_name, rows in tables.items()]
