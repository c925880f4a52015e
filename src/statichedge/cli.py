"""Command line front end for the experiment runner.

Subcommands: ``price`` (target option value), ``build`` (print/serialize
the hedge leg tables), ``sweep`` (full report over the sweep values),
``simulate`` (hedge-error statistics; ``--errors`` also dumps the raw
error matrices), and ``pfe`` (per-time exposure percentile series).  Each
subcommand accepts only the flags it reads.

Exit codes: 0 success, 2 configuration error (an ``--out`` that cannot be
made a directory included), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from .errors import ConfigError, NumericalError
from .experiments import (_write_csv, _write_json, emit, load_config, run_experiment,
                          simulate_methods)
from .models import call_price
from .simulation import pfe_curves, write_errors_csv
from .spanning import build_sweep, leg_table, portfolio_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one argument parser of the process, built on first use.  Parsing
    leaves it unchanged: each call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="statichedge",
        description="Static hedge construction and hedge-error experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("price", "print the target option value under the configured model"),
        ("build", "build the hedge portfolios and print their leg tables"),
        ("sweep", "run the configured sweep and emit a report"),
        ("simulate", "run the Monte-Carlo hedge comparison and emit statistics"),
        ("pfe", "emit per-time exposure percentile curves for each method"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file (JSON)")
        cmd.add_argument("--out", default=None, help="output directory")
        if name in ("sweep", "simulate"):
            formats = ["csv", "json", "plot"] if name == "sweep" else ["csv", "json"]
            cmd.add_argument("--format", default="csv", choices=formats)
            cmd.add_argument("--threads", type=_positive_int, default=None,
                             help="pricing threads of the hedge runs "
                                  "(default: the CPUs this process may use)")
        if name in ("sweep", "simulate", "pfe"):
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the simulation seed")
        if name == "simulate":
            cmd.add_argument("--errors", action="store_true",
                             help="also dump raw error matrices per method")
    return parser


def _apply_seed(cfg, seed):
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {seed}")
    if seed is None or cfg.simulation is None:
        return cfg
    seeded = replace(cfg, simulation=replace(cfg.simulation, seed=seed),
                     raw={**cfg.raw, "simulation": {**cfg.raw["simulation"], "seed": seed}})
    vars(seeded)["resolved"] = cfg.resolved  # the seed changes no sweep value
    return seeded


def _cmd_price(cfg, args):
    value = call_price(cfg.model, cfg.spot, 0.0, cfg.target.strike, cfg.target.maturity)
    print(f"target_price={value!r}")
    if args.out:
        _write_json(Path(args.out) / "price.json", {"target_price": value})
    return EXIT_OK


def _cmd_build(cfg, args):
    (portfolios,) = build_sweep(cfg.target, cfg.spot, cfg.resolved[:1], cfg.modified_weight)
    out = Path(args.out) if args.out else None
    for portfolio in portfolios.values():
        print(f"[{portfolio.method_tag}] legs={len(portfolio.legs)} "
              f"b0={portfolio.b0!r} edl={-portfolio.b0!r}")
        print("\n".join(leg_table(portfolio)))
        if out:
            portfolio_to_csv(portfolio, out / f"portfolio_{portfolio.method_tag}.csv")
    return EXIT_OK


def _cmd_sweep(cfg, args):
    report = run_experiment(cfg, threads=args.threads)
    written = emit(report, args.format, args.out or ".")
    for path in written:
        print(path)
    return EXIT_OK


def _require_simulation(cfg):
    if cfg.simulation is None:
        raise ConfigError("simulation: block required for this subcommand")


def _first_value_errors(cfg, threads=None):
    """Error matrices of the first sweep value at every grid time."""
    built = build_sweep(cfg.target, cfg.spot, cfg.resolved[:1], cfg.modified_weight)
    return simulate_methods(cfg, built, threads=threads)[0]


def _cmd_simulate(cfg, args):
    _require_simulation(cfg)
    report = run_experiment(cfg, threads=args.threads)
    written = emit(report, args.format, args.out or ".")
    if args.errors:
        out = Path(args.out or ".")
        for name, matrix in _first_value_errors(cfg, args.threads).items():
            path = out / f"errors_{name}.csv"
            write_errors_csv(path, cfg.simulation.times, matrix)
            written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_pfe(cfg, args):
    _require_simulation(cfg)
    errors = _first_value_errors(cfg)
    out = Path(args.out or ".")
    curves = {name: pfe_curves(matrix) for name, matrix in errors.items()}
    header = ["time"] + [f"{name}_p{level}" for name, c in curves.items() for level in c]
    columns = [cfg.simulation.times] + [column for c in curves.values() for column in c.values()]
    print(_write_csv(out / "pfe.csv", [header, *zip(*(c.tolist() for c in columns))], "\n"))
    return EXIT_OK


_COMMANDS = {
    "price": _cmd_price,
    "build": _cmd_build,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "pfe": _cmd_pfe,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _apply_seed(load_config(args.config), getattr(args, "seed", None))
        if args.out:
            try:
                Path(args.out).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--out: cannot create directory {args.out!r} ({exc})") from exc
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
