import contextlib
import copy
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from statichedge import (SeriesError, SingularMaturityError, SpanningError, cli,
                         portfolio_from_csv)
from statichedge.cli import main
from statichedge.experiments import parse_config, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _write_config(tmp_path, data):
    path = tmp_path / "exp.cfg"
    path.write_text(json.dumps(data))
    return path


def _small_sim_config():
    return {
        "model": {"type": "bs", "r": 0.06, "delta_yield": 0.0, "sigma": 0.27, "mu": 0.1},
        "target": {"strike": 100.0, "maturity": 1.0, "spot": 100.0},
        "methods": [{"name": "DH"}, {"name": "GQ1", "n": 8}],
        "bands": [{"maturity": 40 / 252, "lo": 80.0, "hi": 120.0}],
        "sweep": {"variable": "quad_points", "values": [8]},
        "simulation": {"n_paths": 32, "seed": 5, "step": 1 / 252,
                       "horizon": 21 / 252, "checkpoints": [21 / 252]},
    }


def test_price_subcommand(capsys):
    code = main(["price", "--config", str(CONFIG_DIR / "table1.cfg")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("target_price=13.59262773")


def test_price_out_writes_price_json(tmp_path, capsys):
    code = main(["price", "--config", str(CONFIG_DIR / "table1.cfg"),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.strip().removeprefix("target_price="))
    assert out == f"target_price={value!r}\n"
    assert (tmp_path / "out" / "price.json").read_text() == json.dumps(
        {"target_price": value}, sort_keys=True, indent=2) + "\n"


def test_build_subcommand_writes_portfolios(tmp_path, capsys):
    code = main(["build", "--config", str(CONFIG_DIR / "table2.cfg"),
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[GQ2] legs=8" in out
    loaded = portfolio_from_csv(tmp_path / "portfolio_GQ2.csv")
    assert loaded.method_tag == "GQ2"
    assert len(loaded.legs) == 8
    # stdout and the file share one leg-table format
    table = [line for line in (tmp_path / "portfolio_GQ2.csv").read_text().splitlines()
             if not line.startswith("#")]
    printed = out.split("[GQ2]")[1].splitlines()[1:1 + len(table)]
    assert printed == table


def test_sweep_subcommand_csv(tmp_path, capsys):
    code = main(["sweep", "--config", str(CONFIG_DIR / "table1.cfg"),
                 "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    report = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert len(report) == 7


def test_sweep_thread_count_does_not_change_bytes(tmp_path):
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert main(["sweep", "--config", str(CONFIG_DIR / "table2.cfg"),
                 "--out", str(out1), "--format", "json", "--threads", "1"]) == 0
    assert main(["sweep", "--config", str(CONFIG_DIR / "table2.cfg"),
                 "--out", str(out4), "--format", "json", "--threads", "4"]) == 0
    assert (out1 / "report.json").read_bytes() == (out4 / "report.json").read_bytes()


# the calling thread prices too, so n threads start a pool of n - 1 workers;
# an affinity mask (here three CPUs) beats the CPU count, which decides only
# where the platform has no mask, and an unknown count means one thread
@pytest.mark.parametrize("flags, pools, affinity, cpu_count", [
    pytest.param([], [2], {0, 2, 5}, 8, id="flags0-pools0"),
    pytest.param(["--threads", "1"], [], {0, 2, 5}, 8, id="flags1-pools1"),
    pytest.param(["--threads", "2"], [1], {0, 2, 5}, 8, id="flags2-pools2"),
    pytest.param([], [2], None, 3, id="no-affinity-3-cpus"),
    pytest.param([], [], None, None, id="no-affinity-unknown-cpus"),
])
def test_thread_pool_defaults_to_the_usable_cpus(tmp_path, monkeypatch, flags, pools, affinity,
                                                 cpu_count):
    from concurrent.futures import ThreadPoolExecutor

    from statichedge import experiments

    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert main(["sweep", "--config", str(CONFIG_DIR / "table5.cfg"),
                 "--out", str(tmp_path)] + flags) == 0
    assert started == pools


# run_experiment, then the first value's rerun at every grid time
@pytest.mark.parametrize("command, flags, threads", [
    ("simulate", ["--errors", "--threads", "1"], [1, 1]),
    ("simulate", ["--errors", "--threads", "2"], [2, 2]),
    ("simulate", ["--errors"], [None, None]),
    ("pfe", [], [None]),
])
def test_error_matrix_rerun_uses_the_thread_count(tmp_path, monkeypatch, command, flags,
                                                  threads):
    from statichedge import experiments

    original, seen = experiments.simulate_methods, []

    def recording(cfg, built, columns=None, threads=None):
        seen.append(threads)
        return original(cfg, built, columns, threads)

    monkeypatch.setattr(experiments, "simulate_methods", recording)
    monkeypatch.setattr(cli, "simulate_methods", recording)
    cfg = _write_config(tmp_path, _small_sim_config())
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 0
    assert seen == threads


def test_simulate_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, _small_sim_config())
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--errors"])
    assert code == 0
    names = {p.name for p in (tmp_path / "o").iterdir()}
    assert {"report.csv", "stats.csv", "errors_DH.csv", "errors_GQ1.csv"} <= names
    # the parser is shared across calls: --errors must not carry over
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
    assert not list((tmp_path / "plain").glob("errors_*.csv"))


def test_simulate_requires_simulation_block(tmp_path, capsys):
    code = main(["simulate", "--config", str(CONFIG_DIR / "table1.cfg"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = _write_config(tmp_path, _small_sim_config())
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b),
                 "--seed", "99"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(c)]) == 0
    assert (a / "stats.csv").read_bytes() == (c / "stats.csv").read_bytes()
    assert (a / "stats.csv").read_bytes() != (b / "stats.csv").read_bytes()


def test_seed_override_is_recorded_in_the_report_config(tmp_path):
    cfg = _write_config(tmp_path, _small_sim_config())
    configs = []
    for name, flag in (("plain", []), ("seeded", ["--seed", "7"])):
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name),
                     "--format", "json", *flag]) == 0
        report = json.loads((tmp_path / name / "report.json").read_text())
        configs.append(report["metadata"]["config"])
    plain, seeded = configs
    assert plain["simulation"]["seed"] == 5 and seeded["simulation"]["seed"] == 7
    seeded["simulation"]["seed"] = 5
    assert seeded == plain


def test_pfe_subcommand(tmp_path):
    cfg = _write_config(tmp_path, _small_sim_config())
    code = main(["pfe", "--config", str(cfg), "--out", str(tmp_path / "pfe")])
    assert code == 0
    raw = (tmp_path / "pfe" / "pfe.csv").read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")  # "\n" line endings, unlike emit's
    lines = raw.decode().strip().splitlines()
    assert lines[0] == "time,DH_p95,DH_p5,GQ1_p95,GQ1_p5"
    assert len(lines) == 23
    first = [float(v) for v in lines[1].split(",")]
    assert all(abs(v) < 1e-12 for v in first[1:])


def test_exit_code_for_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["sweep", "--config", str(missing), "--out", str(tmp_path)]) == 2
    bad = _write_config(tmp_path, {"model": {"type": "bs"}})
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


# a directory, and a file that is not UTF-8
@pytest.mark.parametrize("write", [lambda path: path.mkdir(),
                                   lambda path: path.write_bytes(b'{"model": "\xff"}')])
def test_unreadable_config_is_config_error(tmp_path, capsys, write):
    path = tmp_path / "exp.cfg"
    write(path)
    assert main(["price", "--config", str(path)]) == 2
    assert f"config error: {path}: cannot read config file" in capsys.readouterr().err


# an existing file, and a directory below one
@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize("command, flags", [
    ("price", []), ("build", []), ("sweep", []), ("simulate", []),
    ("simulate", ["--errors"]), ("pfe", []),
])
def test_unusable_out_is_config_error_before_the_command_runs(tmp_path, capsys, monkeypatch,
                                                              command, flags, below):
    monkeypatch.setattr(cli, "_COMMANDS", {})  # running the command fails the test
    cfg = _write_config(tmp_path, _small_sim_config())
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = blocker / "x" if below else blocker
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("config error: --out")
    assert blocker.read_text() == "a file\n"


def _extra_sweep_value(name, value):
    data = json.loads((CONFIG_DIR / name).read_text())
    data["sweep"]["values"].append(value)
    return data


@pytest.mark.parametrize("command", ["price", "build"])
@pytest.mark.parametrize("name, value, message", [
    ("table1.cfg", 500, "sweep.values: CW_b uses hermite rules of order <= "),
    ("table9.cfg", 5.0, "sweep.values: jump variance exceeds hold_variance at 5.0"),
])
def test_price_and_build_reject_a_bad_later_sweep_value(tmp_path, capsys, command, name,
                                                        value, message):
    cfg = _write_config(tmp_path, _extra_sweep_value(name, value))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("step", 0.0), ("step", -1 / 252), ("seed", -1), ("n_paths", 1),
])
def test_bad_simulation_block_is_config_error(tmp_path, capsys, field, value):
    data = _small_sim_config()
    data["simulation"][field] = value
    cfg = _write_config(tmp_path, data)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"config error: simulation.{field}: must be" in capsys.readouterr().err


def test_off_grid_horizon_is_config_error(tmp_path, capsys):
    data = _small_sim_config()
    data["simulation"].update(step=0.03, horizon=0.1)
    cfg = _write_config(tmp_path, data)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error: simulation.horizon: 0.1 is not on the step grid" in (
        capsys.readouterr().err)


# The message gives the grid's last time, n_steps * step, and the step, as
# Python floats.
@pytest.mark.parametrize("simulation, overrides, message", [
    ({"horizon": 1.0, "checkpoints": [0.5]}, None,
     "simulation.horizon: grid horizon 1.0 must stay below the target maturity 1.0"),
    ({"horizon": 41 / 252, "checkpoints": [41 / 252]}, None,
     f"simulation.horizon: grid horizon {41 * (1 / 252)!r} extends past the longest hedge leg "
     f"{40 / 252!r}"),
    ({}, {"sweep": {"variable": "u1", "values": [40 / 252, 10 / 252]}},
     f"simulation.horizon: grid horizon {21 * (1 / 252)!r} extends past the longest hedge leg "
     f"{10 / 252!r}"),
    ({"checkpoints": [1e-10]}, None,
     "simulation.checkpoints: 1e-10 must map to a grid column in 1..21"),
    # GQ2 hedges with the second band, which expires inside the horizon
    ({}, {"methods": [{"name": "DH"}, {"name": "GQ2", "n": 8}],
          "bands": [{"maturity": 40 / 252, "lo": 80.0, "hi": 120.0},
                    {"maturity": 0.05, "lo": 80.0, "hi": 120.0}]},
     "simulation.leg maturity: 0.05 is not on the step grid (step 0.003968253968253968)"),
])
def test_simulation_block_off_its_grid_is_config_error(tmp_path, capsys, simulation, overrides,
                                                        message):
    data = _small_sim_config()
    data["simulation"].update(simulation)
    data.update(overrides or {})
    cfg = _write_config(tmp_path, data)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "np.float64" not in err


def test_off_grid_band_that_no_method_hedges_with_runs(tmp_path):
    data = _small_sim_config()
    data["bands"].append({"maturity": 0.05, "lo": 80.0, "hi": 120.0})
    cfg = _write_config(tmp_path, data)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_checkpoint_within_the_grid_tolerance_of_the_horizon_runs(tmp_path):
    data = _small_sim_config()
    data["simulation"]["checkpoints"] = [21 / 252 + 5e-10]
    cfg = _write_config(tmp_path, data)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    stats = (tmp_path / "stats.csv").read_text().splitlines()
    assert len(stats) == 3 and all(line.split(",")[2] == repr(21 / 252 + 5e-10)
                                   for line in stats[1:])


@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command in ("price", "build")
      for flag in (["--format", "csv"], ["--threads", "2"], ["--seed", "1"])),
    ("pfe", ["--format", "csv"]), ("pfe", ["--threads", "2"]),
    ("simulate", ["--format", "plot"]),
])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, capsys, command, flag):
    cfg = _write_config(tmp_path, _small_sim_config())
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path), *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_parser_is_built_once_and_survives_a_rejection(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["price", "--config", str(CONFIG_DIR / "table1.cfg"), "--seed", "1"])
    assert exc.value.code == 2
    assert main(["price", "--config", str(CONFIG_DIR / "table1.cfg")]) == 0
    assert capsys.readouterr().out.startswith("target_price=")


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, _small_sim_config())
    args = ["simulate", "--config", str(cfg), "--out", str(tmp_path), "--seed", "-5"]
    assert main(args) == 2
    assert "config error: --seed: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_thread_count_below_one_is_rejected(tmp_path, capsys, threads):
    cfg = _write_config(tmp_path, _small_sim_config())
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads: must be >= 1" in capsys.readouterr().err


def test_non_integer_thread_count_is_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, _small_sim_config())
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--threads", "x"])
    assert exc.value.code == 2
    assert "--threads: invalid int value: 'x'" in capsys.readouterr().err


def test_exit_code_for_numerical_failure(tmp_path, capsys):
    data = {
        "model": {"type": "bs", "r": 0.06, "delta_yield": 0.0, "sigma": 0.27, "mu": 0.1},
        "target": {"strike": 100.0, "maturity": 1.0, "spot": 100.0},
        "methods": [{"name": "GQ2", "n": 4}],
        "bands": [{"maturity": 0.1587, "lo": 80.0, "hi": 120.0},
                  {"maturity": 0.0833, "lo": 60.0, "hi": 120.0}],
        "sweep": {"variable": "u2", "values": [0.1587 - 5e-5]},
    }
    cfg = _write_config(tmp_path, data)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


_GUARD_BANDS = [{"maturity": 0.1587, "lo": 120.0, "hi": 130.0},
                {"maturity": 0.1587 - 5e-5, "lo": 60.0, "hi": 120.0}]
_CW_A_ERROR = "band [120.0, 130.0] excludes the hermite center strike 92.2061"
_GUARD_ERROR = ("maturity 0.15865 must precede 0.1587 by at least the 0.0001-year guard; "
                "the inter-maturity weight degenerates there")
_JUMPY = {"type": "mjd", "r": 0.06, "delta_yield": 0.02, "sigma": 0.14, "mu": 0.1,
          "lam": 150.0, "mu_j": -0.1, "sigma_j": 0.13}
_SERIES_ERROR = ("jump series not converged after 180 terms "
                 "(lam * tau = 150, lam * (1 + g) * tau = 136.877)")


@pytest.mark.parametrize("model, bands, methods, error, message", [
    # CW_a's band excludes the Hermite centre; GQ2's second band is inside the guard
    (None, _GUARD_BANDS, ["CW_a", "GQ2"], SpanningError, _CW_A_ERROR),
    (None, _GUARD_BANDS, ["GQ2", "CW_a"], SingularMaturityError, _GUARD_ERROR),
    # GQ1 builds, but its target's jump series diverges at inception pricing
    (_JUMPY, [{"maturity": 0.5, "lo": 120.0, "hi": 130.0}], ["GQ1", "CW_a"], SeriesError,
     _SERIES_ERROR),
    (_JUMPY, [{"maturity": 0.5, "lo": 120.0, "hi": 130.0}], ["CW_a", "GQ1"], SpanningError,
     "band [120.0, 130.0] excludes the hermite center strike 35.5706"),
])
def test_first_failing_method_in_config_order_raises(tmp_path, capsys, model, bands, methods,
                                                     error, message):
    data = {
        "model": model or {"type": "bs", "r": 0.06, "delta_yield": 0.0, "sigma": 0.27,
                           "mu": 0.1},
        "target": {"strike": 100.0, "maturity": 1.0, "spot": 100.0},
        "methods": [{"name": name, "n": 4} for name in methods],
        "bands": bands,
        "sweep": {"variable": "u1", "values": [bands[0]["maturity"]]},
    }
    with pytest.raises(error) as exc:
        run_experiment(parse_config(data))
    assert type(exc.value) is error and str(exc.value) == message
    cfg = _write_config(tmp_path, data)
    for command in ("sweep", "build"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"


_CALM = dict(_JUMPY, lam=1.0)
_SERIES_ERROR_200 = ("jump series not converged after 180 terms "
                     "(lam * tau = 200, lam * (1 + g) * tau = 182.503)")


@pytest.mark.parametrize("model, methods, band, values, error, message", [
    # value 1 fails at inception pricing (lam T = 150), value 2 already in its build
    (_CALM, ["GQ1"], None, ("lambda", [150.0, 400.0]), SeriesError, _SERIES_ERROR),
    # the middle value of [a, b, a] fails in its build (lam 400) or its inception pricing (150)
    (_CALM, ["CW_b", "GQ1"], None, ("lambda", [1.0, 400.0, 1.0]), SeriesError,
     _SERIES_ERROR_200),
    (_CALM, ["CW_b", "GQ1"], None, ("lambda", [1.0, 150.0, 1.0]), SeriesError, _SERIES_ERROR),
    # CW_a's band excludes the Hermite centre only at value 2
    (None, ["GQ1", "CW_a"], {"maturity": 0.1587, "lo": 60.0, "hi": 140.0},
     ("band", [[{"lo": 60.0, "hi": 140.0}], [{"lo": 120.0, "hi": 130.0}],
               [{"lo": 60.0, "hi": 140.0}]]),
     SpanningError, "band [120.0, 130.0] excludes the hermite center strike 92.2061"),
])
def test_first_failing_sweep_value_raises(tmp_path, capsys, model, methods, band, values, error,
                                          message):
    variable, sweep = values
    data = {
        "model": model or {"type": "bs", "r": 0.06, "delta_yield": 0.0, "sigma": 0.27,
                           "mu": 0.1},
        "target": {"strike": 100.0, "maturity": 1.0, "spot": 100.0},
        "methods": [{"name": name, "n": 4} for name in methods],
        "bands": [band or {"maturity": 0.5, "lo": 60.0, "hi": 140.0}],
        "sweep": {"variable": variable, "values": sweep},
    }
    with pytest.raises(error) as exc, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # CW_b at lam 150 is pure cash
        run_experiment(parse_config(data))
    assert type(exc.value) is error and str(exc.value) == message
    cfg = _write_config(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


def test_build_resolves_each_sweep_value_once(tmp_path, monkeypatch):
    from statichedge import experiments

    resolved = []
    resolve = experiments._resolve

    def counted(cfg, value):
        resolved.append(value)
        return resolve(cfg, value)

    monkeypatch.setattr(experiments, "_resolve", counted)
    config = CONFIG_DIR / "table1.cfg"
    assert main(["build", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert resolved == json.loads(config.read_text())["sweep"]["values"]


def _five_bands(data):
    data["bands"] = [{"maturity": 0.1 * i, "lo": 80.0, "hi": 120.0} for i in range(5, 0, -1)]


@pytest.mark.parametrize("mutate, message", [
    (_five_bands, "methods[0]: GQn spans at most 4 maturities, got 5"),
    (lambda d: d["methods"][0].update(n=500),
     "methods[0].n: GQn uses legendre rules of order <= 200, got 500"),
    (lambda d: d.update(methods=[{"name": "GQn"}],
                        sweep={"variable": "quad_points", "values": [4, 500]}),
     "sweep.values: GQn uses legendre rules of order <= 200, got 500"),
    (lambda d: d.update(modified_weight={"n_inner_gq": 500}),
     "modified_weight: n_inner_gq: legendre order must lie in [1, 200], got 500"),
    (lambda d: d.update(modified_weight={"n_laguerre": 190}),
     "modified_weight: n_laguerre: laguerre order must lie in [1, 180], got 190"),
    (lambda d: d["methods"][0].update(n=0),
     "methods[0].n: GQn uses legendre rules of order >= 1, got 0"),
    (lambda d: d.update(methods=[{"name": "GQn"}],
                        sweep={"variable": "quad_points", "values": [4, 0]}),
     "sweep.values: quad_points must be >= 1, got 0"),
])
def test_quadrature_limit_in_a_config_is_config_error(tmp_path, capsys, mutate, message):
    data = {
        "model": {"type": "bs", "r": 0.06, "delta_yield": 0.0, "sigma": 0.27, "mu": 0.1},
        "target": {"strike": 100.0, "maturity": 1.0, "spot": 100.0},
        "methods": [{"name": "GQn", "n": 4}],
        "bands": [{"maturity": 0.1587, "lo": 80.0, "hi": 120.0},
                  {"maturity": 0.0833, "lo": 60.0, "hi": 120.0}],
        "sweep": {"variable": "u2", "values": [0.0833]},
    }
    mutate(data)
    cfg = _write_config(tmp_path, data)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_module_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(CONFIG_DIR.parent / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "statichedge", "price",
         "--config", str(CONFIG_DIR / "table6.cfg")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("target_price=11.98825250")


# every subcommand in one fresh interpreter (this test process has imported
# scipy.integrate, which loads scipy.linalg), then the scipy.linalg modules
_IMPORT_CHECK = """
import json, sys
from statichedge.cli import main
configs, out = sys.argv[1:]
for i, (command, config, *flags) in enumerate([
        ("price", "table12.cfg"), ("build", "table7.cfg"), ("sweep", "table1.cfg"),
        ("sweep", "table12.cfg"), ("simulate", "table5.cfg", "--errors"),
        ("pfe", "table5.cfg")]):
    code = main([command, "--config", f"{configs}/{config}", "--out", f"{out}/{i}", *flags])
    assert code == 0, (command, config, code)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy.linalg"))))
"""


def test_no_run_imports_scipy_linalg(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(CONFIG_DIR.parent / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHECK, str(CONFIG_DIR), str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def _fuzz_bases():
    """Small valid configs (4 paths of 10 steps), one per sweep variable."""
    bs = {
        "model": {"type": "bs", "r": 0.06, "delta_yield": 0.0, "sigma": 0.27, "mu": 0.1},
        "target": {"strike": 100.0, "maturity": 1.0, "spot": 100.0, "kind": "call"},
        "methods": [{"name": "DH"}, {"name": "CW_a"}, {"name": "GQ1", "n": 4},
                    {"name": "GQ2", "n": 4}],
        "bands": [{"maturity": 40 / 252, "lo": 80.0, "hi": 120.0},
                  {"maturity": 21 / 252, "lo": 60.0, "hi": 120.0}],
        "modified_weight": {"n_inner_gq": 5, "n_laguerre": 20},
        "simulation": {"n_paths": 4, "seed": 5, "step": 1 / 252, "horizon": 10 / 252,
                       "checkpoints": [5 / 252, 10 / 252]},
    }
    mjd = dict(bs, model={"type": "mjd", "r": 0.06, "delta_yield": 0.02, "sigma": 0.14,
                          "mu": 0.1, "lam": 2.0, "mu_j": -0.1, "sigma_j": 0.13})
    sweeps = [
        (bs, {"variable": "quad_points", "values": [4]}),
        (bs, {"variable": "band",
              "values": [[{"lo": 85.0, "hi": 115.0}, {"lo": 60.0, "hi": 120.0}]]}),
        (bs, {"variable": "u1", "values": [40 / 252]}),
        (bs, {"variable": "u2", "values": [21 / 252]}),
        (mjd, {"variable": "lambda", "values": [1.0], "hold_variance": 0.05}),
        (mjd, {"variable": "mu_j", "values": [-0.1]}),
        (mjd, {"variable": "sigma_j", "values": [0.13]}),
    ]
    return [copy.deepcopy(dict(base, sweep=sweep)) for base, sweep in sweeps]


def _field_paths(node, path=()):
    """Every key path into ``node``: sections, list entries and leaves."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


_FUZZ_BASES = _fuzz_bases()
_FUZZ_FIELDS = [(i, path) for i, base in enumerate(_FUZZ_BASES) for path in _field_paths(base)]


def _numeric_cells_are_finite(out):
    """Whether every CSV cell under ``out`` that reads as a float is finite."""
    for path in out.glob("*.csv"):
        for row in csv.reader(path.read_text().splitlines()):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:  # empty, a method name or a flag
                    continue
                if not math.isfinite(value):
                    return False
    return True


def test_extreme_magnitudes_exit_with_a_package_code():
    """Every numeric leaf of every fuzz base, set in turn to each extreme.
    A run that exits 0 writes only finite numbers."""
    tracebacks, not_finite = [], []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for index, path in _FUZZ_FIELDS:
            node = _FUZZ_BASES[index]
            for key in path:
                node = node[key]
            if isinstance(node, bool) or not isinstance(node, (int, float)):
                continue
            for value in (1e300, -1e300, 1e-300, 709.8, -709.8):
                data = copy.deepcopy(_FUZZ_BASES[index])
                node = data
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                cfg = _write_config(Path(tmp), data)
                shutil.rmtree(out, ignore_errors=True)
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
                except Exception as exc:  # a traceback: the CLI let it escape
                    code = repr(exc)
                if code not in (0, 2, 3):
                    tracebacks.append((index, path, value, code))
                elif code == 0 and not _numeric_cells_are_finite(out):
                    not_finite.append((index, path, value))
    assert tracebacks == []
    assert not_finite == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(_FUZZ_FIELDS),
       value=st.sampled_from([None, "x", -1, 0, 0.5, True, [], {}]))
def test_malformed_config_field_exits_with_a_package_code(field, value):
    index, path = field
    data = copy.deepcopy(_FUZZ_BASES[index])
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_config(Path(tmp), data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["sweep", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)


@pytest.mark.parametrize("field, value, message", [
    # e ** 2 overflows in summarize
    ("spot", 1e300, "summarize: rmse is not finite, got inf"),
    # the simulated spots overflow to inf, or underflow to 0
    ("mu", 1e300, "paths: every spot must be finite and > 0"),
    ("mu", -1e300, "paths: every spot must be finite and > 0"),
])
def test_numerical_failure_prints_the_package_message_only(tmp_path, capsys, field, value,
                                                           message):
    data = copy.deepcopy(_FUZZ_BASES[0])
    data["target" if field == "spot" else "model"][field] = value
    cfg = _write_config(tmp_path, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
