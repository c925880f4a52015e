import csv
import json
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from statichedge import ConfigError, experiments, models, spanning
from statichedge.cli import main
from statichedge.models import MAX_TERMS, MIN_TERMS, PMF_CUTOFF
from statichedge.experiments import (
    Report,
    emit,
    load_config,
    parse_config,
    run_experiment,
)
from statichedge.simulation import summarize

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _base_config(**overrides):
    data = {
        "model": {"type": "bs", "r": 0.06, "delta_yield": 0.0, "sigma": 0.27, "mu": 0.1},
        "target": {"strike": 100.0, "maturity": 1.0, "spot": 100.0},
        "methods": [{"name": "GQ1", "n": 10}],
        "bands": [{"maturity": 0.1587, "lo": 80.0, "hi": 120.0}],
        "sweep": {"variable": "quad_points", "values": [4, 8]},
    }
    data.update(overrides)
    return data


def test_parse_round_trip_minimal():
    cfg = parse_config(_base_config())
    assert cfg.sweep.values == (4, 8)
    assert cfg.methods[0].name == "GQ1"
    assert cfg.simulation is None


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["model"].pop("r"), "model.r"),
        (lambda d: d["model"].update(type="heston"), "model.type"),
        (lambda d: d["model"].update(sigma=-0.1), "model"),
        (lambda d: d.update(methods=[]), "methods"),
        (lambda d: d.update(methods=[{"name": "XX"}]), "methods[0].name"),
        (lambda d: d.update(methods=[{"name": "GQ1"}],
                            sweep={"variable": "u1", "values": [0.1]}), "methods[0].n"),
        (lambda d: d.update(methods=[{"name": "GQ2", "n": 4}]), "GQ2"),
        (lambda d: d.update(methods=[{"name": "DH"}]), "DH"),
        (lambda d: d["sweep"].update(variable="vol_of_vol"), "sweep.variable"),
        (lambda d: d["sweep"].update(values=[]), "sweep.values"),
        (lambda d: d["sweep"].update(variable="lambda"), "jump-diffusion"),
        (lambda d: d["sweep"].update(hold_variance=0.07), "hold_variance"),
        (lambda d: d["target"].update(spot=-1.0), "target.spot"),
        (lambda d: d["bands"][0].update(maturity=2.0), "bands[0].maturity"),
        (lambda d: d.update(bands=[{"maturity": 0.1, "lo": 80, "hi": 120},
                                   {"maturity": 0.2, "lo": 80, "hi": 120}]),
         "strictly decrease"),
        (lambda d: d["target"].update(kind="put"), "target.kind: only 'call'"),
        (lambda d: d.update(target=5), "target: expected an object"),
        (lambda d: d.update(simulation=5), "simulation: expected an object"),
        (lambda d: d.update(modified_weight=5), "modified_weight: expected an object"),
        (lambda d: d.update(methods=["name"]), "methods[0]: expected an object"),
        (lambda d: d.update(methods=["GQ1"]), "methods[0]: expected an object"),
        (lambda d: d["target"].update(spot=True), "target.spot: expected float"),
        (lambda d: d["target"].update(maturity=True), "target.maturity: expected float"),
        (lambda d: d["bands"][0].update(lo=True), "bands[0].lo: expected float"),
        (lambda d: d["model"].update(mu=True), "model.mu: expected float"),
        (lambda d: d["model"].update(sigma="0.27"), "model.sigma: expected float, got '0.27'"),
        (lambda d: d["target"].update(spot=" 100 "), "target.spot: expected float, got ' 100 '"),
        *((lambda d, name=name: d.update(methods=[{"name": name, "n": 4}], bands=[]),
           f"methods[0]: {name} requires") for name in ("CW_a", "CW_b", "GQ1", "GQn")),
        (lambda d: d.update(methods=[{"name": "GQ1", "n": 4}, {"name": "GQ2", "n": 4}]),
         "methods[1]: GQ2 requires"),
        (lambda d: d.update(methods=[{"name": "GQ1", "n": 4}, {"name": "GQ1", "n": 6}]),
         "methods: duplicate method names"),
        (lambda d: d.pop("sweep"), "sweep: missing required block"),
        (lambda d: d.update(sweep=[]), "sweep: missing required block"),
        (lambda d: d["sweep"].update(variable="u2", values=[0.05]),
         "sweep.variable: 'u2' requires at least two bands"),
        (lambda d: d.update(methods=[{"name": "DH"}], bands=[],
                            sweep={"variable": "u1", "values": [0.1]}),
         "sweep.variable: 'u1' requires at least one band"),
        (lambda d: d.update(methods=[{"name": "DH", "n": 0}]), "methods[0].n: must be >= 1"),
        (lambda d: d.update(methods=[{"name": "GQ1", "n": 0}]),
         "methods[0].n: GQ1 uses legendre rules of order >= 1, got 0"),
        (lambda d: d.update(methods=[{"name": "CW_a", "n": -1}]),
         "methods[0].n: CW_a uses hermite rules of order >= 1, got -1"),
        # finite parameters that overflow a float
        (lambda d: d["model"].update(sigma=1e200), "model: sigma ** 2 must be finite, got inf"),
        *((lambda d, field=field, value=value: d["model"].update(
              {"type": "mjd", "lam": 1.0, "mu_j": 0.0, "sigma_j": 0.1, field: value}),
           f"model: {name} must be finite, got inf")
          for field, value, name in [("sigma", 1e200, "sigma ** 2"),
                                     ("mu_j", 800.0, "g = expm1(mu_j + sigma_j ** 2 / 2)"),
                                     ("sigma_j", 1e200, "g = expm1(mu_j + sigma_j ** 2 / 2)")]),
    ],
)
def test_parse_errors_name_the_field(tmp_path, capsys, mutate, fragment):
    data = _base_config()
    mutate(data)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(data)
    # the CLI reports the same error as a configuration error
    path = tmp_path / "exp.cfg"
    path.write_text(json.dumps(data))
    assert main(["price", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and fragment in err


@pytest.mark.parametrize("root", [[], 5, "x", None])
def test_config_root_must_be_an_object(tmp_path, capsys, root):
    with pytest.raises(ConfigError, match=r"^config root: expected an object$"):
        parse_config(root)
    path = tmp_path / "exp.cfg"
    path.write_text(json.dumps(root))
    assert main(["price", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: config root: expected an object\n"


def _mjd_model(data):
    data["model"] = {"type": "mjd", "r": 0.06, "delta_yield": 0.02, "sigma": 0.14,
                     "lam": 2.0, "mu_j": -0.1, "sigma_j": 0.13}


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(sweeep={}), "sweeep"),
    (lambda d: d["model"].update(sigmaa=0.2), "model.sigmaa"),
    (lambda d: d["model"].update(lam=2.0), "model.lam"),
    (lambda d: (_mjd_model(d), d["model"].update(lamda=2.0)), "model.lamda"),
    (lambda d: d["target"].update(strik=100.0), "target.strik"),
    (lambda d: d["methods"][0].update(order=4), "methods[0].order"),
    (lambda d: d["bands"][0].update(low=80.0), "bands[0].low"),
    (lambda d: d["sweep"].update(hold_variace=0.05), "sweep.hold_variace"),
    (lambda d: d.update(modified_weight={"n_lagurre": 40}), "modified_weight.n_lagurre"),
    (lambda d: _small_simulation(d)["simulation"].update(checkpionts=[0.02]),
     "simulation.checkpionts"),
    (lambda d: _small_simulation(d)["simulation"].update(spot0=50.0), "simulation.spot0"),
    (lambda d: d.update(sweep={"variable": "band", "values": [[{"lo": 85.0, "hi": 115.0,
                                                                "hii": 110.0}]]}),
     "sweep.values[..][0].hii"),
])
def test_unknown_field_is_config_error(tmp_path, capsys, mutate, fragment):
    data = _base_config()
    mutate(data)
    with pytest.raises(ConfigError, match=f"^{re.escape(fragment)}: unknown field$"):
        parse_config(data)
    path = tmp_path / "exp.cfg"
    path.write_text(json.dumps(data))
    assert main(["price", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {fragment}: unknown field\n"


@pytest.mark.parametrize("mutate, message", [
    # a block is read from its dataclass first, so a bad field comes before a bad name
    (lambda d: d["methods"][0].update(name="XX", n="x"), "methods[0].n: expected int, got 'x'"),
    (lambda d: d.update(sweep={"variable": "zz"}), "sweep.values: missing required field"),
])
def test_a_block_is_read_before_its_checks(mutate, message):
    data = _base_config()
    mutate(data)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(data)


@pytest.mark.parametrize("n_paths", [2 ** 32 + 1, 1e300])
def test_too_many_paths_is_config_error(n_paths):
    data = _small_simulation(_base_config())
    data["simulation"]["n_paths"] = n_paths
    with pytest.raises(ConfigError, match=r"^simulation\.n_paths: must be <= 2\*\*32, got "):
        parse_config(data)


def test_simulation_block_validation():
    data = _base_config()
    data["simulation"] = {"n_paths": 10, "seed": 1, "step": 0.01, "horizon": 0.05,
                          "checkpoints": [0.037]}
    with pytest.raises(ConfigError, match="checkpoints"):
        parse_config(data)
    data["simulation"]["checkpoints"] = [0.1]
    with pytest.raises(ConfigError, match="checkpoints"):
        parse_config(data)


@pytest.mark.parametrize("checkpoint", ["x", None, [], {}, True, "0.1"])
def test_non_numeric_checkpoint_is_config_error(checkpoint):
    data = _small_simulation(_base_config())
    data["simulation"]["checkpoints"] = [checkpoint]
    with pytest.raises(ConfigError, match="simulation.checkpoints: expected float"):
        parse_config(data)


def _jump_config(variable, value):
    data = _base_config()
    data["model"] = {"type": "mjd", "r": 0.06, "delta_yield": 0.02, "sigma": 0.14,
                     "mu": 0.1, "lam": 2.0, "mu_j": -0.1, "sigma_j": 0.13}
    data["sweep"] = {"variable": variable, "values": [value]}
    return data


def _band_config(variable, value):
    data = _base_config()
    data["bands"].append({"maturity": 0.0833, "lo": 60.0, "hi": 120.0})
    data["sweep"] = {"variable": variable, "values": [value]}
    return data


@pytest.mark.parametrize("make, variable, value, fragment", [
    *((_band_config if var in ("u1", "u2") else _jump_config, var, value, "expected float")
      for var in ("u1", "u2", "lambda", "mu_j", "sigma_j") for value in ("x", None, [], {})),
    (_band_config, "u1", -0.1, "band maturity must be > 0"),
    (_band_config, "u2", 0.0, "band maturity must be > 0"),
    (_jump_config, "lambda", -1.0, "lam must be >= 0"),
    (_jump_config, "sigma_j", 0.0, "sigma_j must be > 0"),
    (_band_config, "u1", True, "expected float"),
    *((_band_config if var in ("u1", "u2") else _jump_config, var, "0.1", "expected float")
      for var in ("u1", "u2", "lambda", "mu_j", "sigma_j")),
    (_band_config, "quad_points", 0, "quad_points must be >= 1, got 0"),
    (_band_config, "quad_points", -2, "quad_points must be >= 1, got -2"),
    (_band_config, "band", [{"lo": 85.0, "hi": 115.0}],
     "each band value must list one entry per configured band"),
    (_band_config, "band", 5, "each band value must list one entry per configured band"),
])
def test_bad_sweep_value_is_config_error(make, variable, value, fragment):
    with pytest.raises(ConfigError, match=f"sweep.values: {fragment}"):
        cfg = parse_config(make(variable, value))
        run_experiment(cfg)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_bad_json(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)


def test_reference_quad_sweep_through_config():
    report = run_experiment(load_config(CONFIG_DIR / "table1.cfg"))
    expected = {6: -0.28426, 8: -0.05559, 10: -0.00625,
                15: -0.00067, 25: -0.00067, 50: -0.00067}
    legs_expected = {6: 4, 8: 5, 10: 6, 15: 9, 25: 15, 50: 28}
    for row in report.rows:
        n = row.sweep_value
        assert row.methods["GQ1"]["edl"] == pytest.approx(expected[n], abs=5e-4)
        assert row.methods["CW_b"]["legs"] == legs_expected[n]
        assert row.methods["CW_a"]["edl"] == pytest.approx(0.9464, abs=5e-4)
        assert row.methods["CW_a"]["n"] == 2


def test_reference_jump_intensity_sweep_through_config():
    report = run_experiment(load_config(CONFIG_DIR / "table9.cfg"))
    expected = {0.02: 1.5985, 0.1: 1.5529, 0.5: 1.3332, 1.0: 1.0500}
    for row in report.rows:
        assert abs(row.methods["GQ1"]["edl"]) == pytest.approx(
            expected[row.sweep_value], abs=5e-3
        )


def test_band_sweep_rows_carry_pdl():
    report = run_experiment(load_config(CONFIG_DIR / "table2.cfg"))
    pdls = [row.pdl for row in report.rows]
    assert all(p is not None and p >= 0 for p in pdls)
    assert pdls[2] == pytest.approx(82.2, abs=1.0)


def test_zero_gq1_edl_leaves_the_pdl_cell_empty(tmp_path):
    cfg = load_config(CONFIG_DIR / "table2.cfg")
    (portfolios,) = spanning.build_sweep(cfg.target, cfg.spot, cfg.resolved[:1],
                                         cfg.modified_weight)
    orders = cfg.resolved[0][2]
    portfolios["GQ1"] = replace(portfolios["GQ1"], b0=0.0)
    row = experiments._inception_row(cfg, cfg.sweep.values[0], orders, portfolios)
    assert row.methods["GQ1"]["edl"] == 0.0 and row.methods["GQ2"]["edl"] != 0.0
    assert row.pdl is None
    (path,) = emit(Report(cfg.sweep.variable, [row], {"config": cfg.raw}), "csv", tmp_path)
    with open(path, newline="") as fh:
        header, cells = csv.reader(fh)
    assert header[-1] == "pdl" and cells[-1] == ""


def test_u2_sweep_emits_plot_series(tmp_path):
    report = run_experiment(load_config(CONFIG_DIR / "fig2.cfg"))
    (path,) = emit(report, "plot", tmp_path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,GQ1_edl,GQ1_log10_abs_edl,GQ2_edl,GQ2_log10_abs_edl"
    assert len(lines) == 8
    log_abs = [float(line.split(",")[4]) for line in lines[1:5]]
    assert all(a > b for a, b in zip(log_abs, log_abs[1:]))


def test_report_determinism_and_thread_independence():
    cfg = load_config(CONFIG_DIR / "table2.cfg")
    a = json.dumps(run_experiment(cfg, threads=1).to_dict(), sort_keys=True)
    b = json.dumps(run_experiment(cfg, threads=4).to_dict(), sort_keys=True)
    c = json.dumps(run_experiment(cfg, threads=1).to_dict(), sort_keys=True)
    assert a == b == c


def test_emit_json_round_trip(tmp_path):
    report = run_experiment(load_config(CONFIG_DIR / "table1.cfg"))
    (path,) = emit(report, "json", tmp_path)
    parsed = Report.from_dict(json.loads(path.read_text()))
    assert parsed.to_dict() == report.to_dict()


def test_emit_of_a_json_read_back_keeps_the_config_method_order(tmp_path):
    report = run_experiment(load_config(CONFIG_DIR / "table5.cfg"))
    (path,) = emit(report, "json", tmp_path / "json")
    parsed = Report.from_dict(json.loads(path.read_text()))
    assert list(parsed.rows[0].methods) != list(report.rows[0].methods)  # sorted on disk
    for fmt in ("csv", "plot"):
        direct = emit(report, fmt, tmp_path / fmt / "direct")
        read_back = emit(parsed, fmt, tmp_path / fmt / "read_back")
        assert [p.name for p in direct] == [p.name for p in read_back]
        for a, b in zip(direct, read_back):
            assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "csv" / "direct" / "report.csv").exists()


def test_emit_csv_single_row(tmp_path):
    data = _base_config()
    data["sweep"]["values"] = [7]
    report = run_experiment(parse_config(data))
    (path,) = emit(report, "csv", tmp_path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("sweep_value,GQ1_edl")


def test_emit_rejects_unknown_format(tmp_path):
    report = run_experiment(parse_config(_base_config()))
    with pytest.raises(ConfigError):
        emit(report, "parquet", tmp_path)


def test_emit_rejects_an_empty_report(tmp_path):
    with pytest.raises(ConfigError, match=r"^cannot emit an empty report$"):
        emit(Report("quad_points", [], {}), "csv", tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_simulation_stats_in_report(tmp_path):
    data = _base_config()
    data["methods"] = [{"name": "DH"}, {"name": "GQ1", "n": 8}]
    data["bands"] = [{"maturity": 40 / 252, "lo": 80.0, "hi": 120.0}]
    data["sweep"] = {"variable": "quad_points", "values": [8]}
    data["simulation"] = {"n_paths": 64, "seed": 5, "step": 1 / 252,
                          "horizon": 21 / 252, "checkpoints": [21 / 252]}
    report = run_experiment(parse_config(data))
    row = report.rows[0]
    assert "stats" in row.methods["DH"] and "stats" in row.methods["GQ1"]
    stat = row.methods["DH"]["stats"][0]
    assert stat["time"] == pytest.approx(21 / 252)
    assert stat["rmse"] > 0
    paths = emit(report, "csv", tmp_path)
    assert [p.name for p in paths] == ["report.csv", "stats.csv"]
    stats_lines = paths[1].read_text().strip().splitlines()
    assert len(stats_lines) == 3


def test_sweep_with_simulation_builds_each_portfolio_once(monkeypatch):
    built = []
    builder = experiments.build_sweep

    def counted(*args, **kwargs):
        portfolios = builder(*args, **kwargs)
        built.append([list(case) for case in portfolios])
        return portfolios

    monkeypatch.setattr(experiments, "build_sweep", counted)
    data = _base_config()
    data["methods"] = [{"name": "DH"}, {"name": "CW_a"}, {"name": "GQ1"}, {"name": "GQ2"}]
    data["bands"] = [{"maturity": 40 / 252, "lo": 80.0, "hi": 120.0},
                     {"maturity": 21 / 252, "lo": 60.0, "hi": 120.0}]
    data["sweep"] = {"variable": "quad_points", "values": [4, 6]}
    data["simulation"] = {"n_paths": 8, "seed": 5, "step": 1 / 252,
                          "horizon": 21 / 252, "checkpoints": [21 / 252]}
    report = run_experiment(parse_config(data))
    assert all("stats" in info for info in report.rows[0].methods.values())
    # one build pass per run, building every static method of each sweep value once
    assert built == [[["CW_a", "GQ1", "GQ2"]] * 2]


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return calls


def _small_simulation(data, n_paths=8):
    data["simulation"] = {"n_paths": n_paths, "seed": 5, "step": 1 / 252,
                          "horizon": 21 / 252, "checkpoints": [10 / 252, 21 / 252]}
    return data


def test_band_sweep_simulates_and_delta_hedges_once(monkeypatch):
    sims = _count_calls(monkeypatch, "simulate_paths")
    delta_runs = _count_calls(monkeypatch, "delta_hedge_run")
    data = _small_simulation(_base_config())
    data["methods"] = [{"name": "DH"}, {"name": "GQ1", "n": 6}, {"name": "GQ2", "n": 6}]
    data["bands"] = [{"maturity": 40 / 252, "lo": 80.0, "hi": 120.0},
                     {"maturity": 21 / 252, "lo": 60.0, "hi": 120.0}]
    data["sweep"] = {"variable": "band", "values": [
        [{"lo": 80.0, "hi": 120.0}, {"lo": 60.0, "hi": 120.0}],
        [{"lo": 85.0, "hi": 115.0}, {"lo": 60.0, "hi": 120.0}],
        [{"lo": 90.0, "hi": 110.0}, {"lo": 50.0, "hi": 130.0}],
    ]}
    report = run_experiment(parse_config(data))
    assert len(sims) == 1 and len(delta_runs) == 1
    assert all(len(info["stats"]) == 2 for row in report.rows for info in row.methods.values())


def test_table12_summarizes_each_error_matrix_once(monkeypatch):
    # 3 band values x 4 static methods, plus the one DH matrix the values share
    calls = _count_calls(monkeypatch, "summarize")
    report = run_experiment(load_config(CONFIG_DIR / "table12.cfg"), threads=1)
    assert len(calls) == 13
    assert all(row.methods["DH"]["stats"] == report.rows[0].methods["DH"]["stats"]
               for row in report.rows)


def test_lambda_sweep_simulates_once_per_value(monkeypatch):
    sims = _count_calls(monkeypatch, "simulate_paths")
    data = _small_simulation(_base_config())
    data["model"] = {"type": "mjd", "r": 0.06, "delta_yield": 0.02, "sigma": 0.14,
                     "mu": 0.1, "lam": 2.0, "mu_j": -0.1, "sigma_j": 0.13}
    data["methods"] = [{"name": "DH"}, {"name": "GQ1", "n": 6}]
    data["sweep"] = {"variable": "lambda", "values": [0.5, 1.0, 2.0]}
    run_experiment(parse_config(data))
    assert [model.lam for model in sims] == [0.5, 1.0, 2.0]


def _record_threads(monkeypatch, name):
    """Rebind ``name`` in every package module that holds it (as the bench
    tracer does) to a wrapper recording the thread of each call."""
    threads = []
    original = getattr(models, name)

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("statichedge"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recorded)
    return threads


def _pool_blocks(threads):
    """The calls in ``threads`` made off the calling thread."""
    return sum(ident != threading.get_ident() for ident in threads)


def test_grouped_simulation_matches_per_value_runs_at_any_thread_count(monkeypatch):
    # equal lambda values share one group; 300 paths and 40 GQ1 legs put the
    # leg pricing at the first checkpoint in 8 blocks, so the pool takes
    # some of them at 2 and 4 threads
    blocks = _record_threads(monkeypatch, "_d1")
    data = _small_simulation(_base_config(), n_paths=300)
    data["model"] = {"type": "mjd", "r": 0.06, "delta_yield": 0.02, "sigma": 0.14,
                     "mu": 0.1, "lam": 2.0, "mu_j": -0.1, "sigma_j": 0.13}
    data["methods"] = [{"name": "DH"}, {"name": "CW_b", "n": 5}, {"name": "GQ1", "n": 40}]
    data["bands"] = [{"maturity": 21 / 252, "lo": 80.0, "hi": 120.0}]
    data["sweep"] = {"variable": "lambda", "values": [1.0, 2.0, 1.0]}
    cfg = parse_config(data)
    blobs = set()
    for t in (1, 2, 4):
        del blocks[:]
        blobs.add(json.dumps(run_experiment(cfg, threads=t).to_dict(), sort_keys=True))
        assert (_pool_blocks(blocks) >= 2) == (t > 1)
    assert len(blobs) == 1
    # Two model groups plus DH: pricing on the pool leaves every matrix bitwise equal.
    built = spanning.build_sweep(cfg.target, cfg.spot, cfg.resolved, cfg.modified_weight)
    runs = [experiments.simulate_methods(cfg, built, threads=t) for t in (1, 2, 4)]
    assert len({model for model, _, _ in cfg.resolved}) == 2
    for run in runs[1:]:
        for errors, expected in zip(run, runs[0]):
            assert list(errors) == ["DH", "CW_b", "GQ1"]
            assert all(errors[name].tobytes() == expected[name].tobytes() for name in errors)
    report = json.loads(blobs.pop())
    columns = [round(c / cfg.simulation.step) for c in cfg.checkpoints]
    for value, row in zip(cfg.sweep.values, report["rows"]):
        alone = replace(cfg, sweep=replace(cfg.sweep, values=(value,)))
        (errors,) = experiments.simulate_methods(alone, spanning.build_sweep(
            alone.target, alone.spot, alone.resolved, alone.modified_weight))
        stats = {name: [{"time": c, **summarize(err[:, j]).to_dict()}
                        for c, j in zip(cfg.checkpoints, columns)]
                 for name, err in errors.items()}
        assert {name: info["stats"] for name, info in row["methods"].items()} == stats


def test_hedge_runs_price_on_the_pool_and_trace_on_the_calling_thread(monkeypatch):
    # Only untraced block bodies may leave the calling thread: the bench
    # tracer keeps one span stack and parents each series span to the
    # pricing call that asked for it.
    calls = {name: _record_threads(monkeypatch, name)
             for name in ("call_price", "delta", "strike_gamma_weight", "mjd_series_terms")}
    blocks = _record_threads(monkeypatch, "_d1")
    run_experiment(load_config(CONFIG_DIR / "table12.cfg"), threads=2)
    assert all(calls.values())
    assert {ident for threads in calls.values() for ident in threads} == {threading.get_ident()}
    assert _pool_blocks(blocks) >= 2


def test_criterion_9_thread_check_prices_on_the_pool(monkeypatch):
    # the byte-identity check of criterion 9 (table10 at 1 and 4 threads)
    # runs pricing blocks on the pool, so it compares pooled with serial work
    blocks = _record_threads(monkeypatch, "_d1")
    run_experiment(load_config(CONFIG_DIR / "table10.cfg"), threads=4)
    assert _pool_blocks(blocks) >= 2


def test_sweep_op_resolves_each_value_once(monkeypatch, tmp_path):
    from statichedge.cli import main

    resolved = _record_calls(monkeypatch, experiments, "_resolve")
    data = _small_simulation(_base_config(), n_paths=4)
    data["methods"] = [{"name": "DH"}, {"name": "GQ1", "n": 6}]
    data["sweep"] = {"variable": "u1", "values": [0.1587, 0.12, 0.1587]}
    path = tmp_path / "u1.cfg"
    path.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--seed", "3"]) == 0
    assert [args[1] for args in resolved] == [0.1587, 0.12, 0.1587]


def _rows(report):
    return [row.to_dict() for row in report.rows]


def test_replaced_bands_are_the_ones_built():
    cfg = load_config(CONFIG_DIR / "table1.cfg")
    narrow = replace(cfg, bands=(spanning.StrikeBand(0.1587, 90.0, 110.0),))
    data = json.loads((CONFIG_DIR / "table1.cfg").read_text())
    data["bands"] = [{"maturity": 0.1587, "lo": 90.0, "hi": 110.0}]
    assert _rows(run_experiment(narrow)) == _rows(run_experiment(parse_config(data)))
    assert _rows(run_experiment(narrow)) != _rows(run_experiment(cfg))


def test_replaced_sweep_values_are_the_ones_reported():
    cfg = load_config(CONFIG_DIR / "table1.cfg")
    (row,) = run_experiment(replace(cfg, sweep=replace(cfg.sweep, values=(4,)))).rows
    assert row.sweep_value == 4
    assert row.methods["GQ1"]["legs"] == row.methods["GQ1"]["n"] == 4


def test_hand_built_config_runs_like_the_parsed_one():
    cfg = load_config(CONFIG_DIR / "table1.cfg")
    hand = experiments.ExperimentConfig(cfg.model, cfg.target, cfg.spot, cfg.methods, cfg.bands,
                                        cfg.sweep, cfg.modified_weight, cfg.simulation,
                                        cfg.checkpoints, cfg.raw)
    assert _rows(run_experiment(hand)) == _rows(run_experiment(cfg))


def test_sweep_values_build_on_the_calling_thread(monkeypatch):
    callers = []
    build = experiments.build_sweep

    def recording_build(*args, **kwargs):
        built = build(*args, **kwargs)
        callers.append((threading.get_ident(), [list(case) for case in built]))
        return built

    monkeypatch.setattr(experiments, "build_sweep", recording_build)
    data = _small_simulation(_base_config(), n_paths=4)
    data["sweep"] = {"variable": "quad_points", "values": [4, 8]}
    run_experiment(parse_config(data), threads=4)
    # one build per run, on the calling thread, each value's method built once
    assert callers == [(threading.get_ident(), [["GQ1"], ["GQ1"]])]


def test_sweeping_into_the_maturity_guard_is_numerical_error():
    from statichedge import NumericalError

    data = _base_config()
    data["methods"] = [{"name": "GQ2", "n": 4}]
    data["bands"] = [{"maturity": 0.1587, "lo": 80.0, "hi": 120.0},
                     {"maturity": 0.0833, "lo": 60.0, "hi": 120.0}]
    data["sweep"] = {"variable": "u2", "values": [0.1587 - 5e-5]}
    cfg = parse_config(data)
    with pytest.raises(NumericalError):
        run_experiment(cfg)


def test_all_shipped_configs_run(tmp_path):
    # every reference table ships as a runnable config
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        report = run_experiment(load_config(path))
        assert report.rows, path.name
        emitted = emit(report, "csv", tmp_path / path.stem)
        assert emitted, path.name


def test_metadata_echoes_defaults():
    report = run_experiment(parse_config(_base_config()))
    md = report.metadata
    assert md["defaults"]["n_inner_gq"] == 5
    assert md["defaults"]["n_laguerre"] == 20
    assert md["defaults"]["mjd_series"] == {
        "min_terms": MIN_TERMS, "pmf_cutoff": PMF_CUTOFF, "max_terms": MAX_TERMS,
    }
    assert md["config"]["model"]["sigma"] == 0.27


_FIVE_BANDS = [{"maturity": 0.5 - 0.1 * i, "lo": 60.0, "hi": 140.0} for i in range(5)]


@pytest.mark.parametrize("name", list(spanning.STATIC_METHODS))
@pytest.mark.parametrize("n_bands", range(6))
@pytest.mark.parametrize("order", ["1", "cap", "cap + 1", "0", "-1"])
def test_config_and_builder_reject_the_same_methods(name, n_bands, order):
    from statichedge.quadrature import ORDER_CAP

    cap = ORDER_CAP[spanning.STATIC_METHODS[name][1]]
    n = {"1": 1, "cap": cap, "cap + 1": cap + 1, "0": 0, "-1": -1}[order]
    data = _base_config(methods=[{"name": name, "n": n}], bands=_FIVE_BANDS[:n_bands],
                        sweep={"variable": "quad_points", "values": [n]})
    config_error = build_error = None
    try:
        cfg = parse_config(data)
    except ConfigError as exc:
        prefix = re.match(r"methods\[0\](\.n)?: ", str(exc))
        assert prefix, str(exc)
        config_error = str(exc)[prefix.end():]
    model = models.BsParams(**{k: v for k, v in data["model"].items() if k != "type"})
    target = models.OptionRef(strike=100.0, maturity=1.0)
    bands = [spanning.StrikeBand(**band) for band in data["bands"]]
    try:
        (built,) = spanning.build_sweep(target, 100.0, [(model, bands, {name: n})])
    except spanning.SpanningError as exc:
        build_error = str(exc)
    assert config_error == build_error
    if build_error is None:  # the config builds the same portfolio
        (portfolios,) = spanning.build_sweep(cfg.target, cfg.spot, cfg.resolved,
                                             cfg.modified_weight)
        assert repr(portfolios) == repr(built)


def test_method_table_builds_what_the_builders_build():
    from statichedge.spanning import (build_cw_a, build_cw_b, build_gq1, build_gq2,
                                      build_gq_n)

    data = _base_config()
    data["methods"] = [{"name": name, "n": 6} for name in ("CW_a", "CW_b", "GQ1", "GQ2", "GQn")]
    data["bands"].append({"maturity": 0.0833, "lo": 60.0, "hi": 130.0})
    data["modified_weight"] = {"n_inner_gq": 4, "n_laguerre": 12}
    cfg = parse_config(data)
    (portfolios,) = spanning.build_sweep(cfg.target, cfg.spot, [experiments._resolve(cfg, 7)],
                                         cfg.modified_weight)
    b1, b2 = cfg.bands
    args = (cfg.model, cfg.target, cfg.spot)
    direct = {
        "CW_a": build_cw_a(*args, b1),
        "CW_b": build_cw_b(*args, b1, 7),
        "GQ1": build_gq1(*args, b1, 7),
        "GQ2": build_gq2(*args, b1, b2, 7, cfg.modified_weight),
        "GQn": build_gq_n(*args, [b1, b2], 7, cfg.modified_weight),
    }
    assert list(portfolios) == list(direct)
    assert {name: repr(p) for name, p in portfolios.items()} == {
        name: repr(p) for name, p in direct.items()}


_MIX_BANDS = [{"maturity": 0.3, "lo": 70.0, "hi": 130.0},
              {"maturity": 0.2, "lo": 60.0, "hi": 125.0},
              {"maturity": 0.12, "lo": 55.0, "hi": 140.0},
              {"maturity": 0.06, "lo": 50.0, "hi": 150.0}]
_MJD = {"type": "mjd", "r": 0.06, "delta_yield": 0.02, "sigma": 0.14, "mu": 0.1,
        "lam": 2.0, "mu_j": -0.1, "sigma_j": 0.13}


@pytest.mark.parametrize("model", ["bs", "mjd"])
@pytest.mark.parametrize("n_bands", [1, 2, 3, 4])
@pytest.mark.parametrize("gq_orders", [(6, 6, 6), (4, 6, 8)])
@pytest.mark.parametrize("mw", [None, {"n_inner_gq": 9, "n_laguerre": 14}])
def test_one_pass_build_is_bitwise_the_public_builders(model, n_bands, gq_orders, mw):
    from statichedge.spanning import (build_cw_a, build_cw_b, build_gq1, build_gq2,
                                      build_gq_n)

    data = _base_config()
    if model == "mjd":
        data["model"] = dict(_MJD)
    data["bands"] = _MIX_BANDS[:n_bands]
    data["methods"] = [{"name": "CW_a"}, {"name": "CW_b", "n": 9}]
    data["methods"] += [{"name": name, "n": n} for name, n in zip(("GQ1", "GQ2", "GQn"), gq_orders)
                        if name != "GQ2" or n_bands >= 2]
    data["sweep"] = {"variable": "u1", "values": [0.3]}
    if mw is not None:
        data["modified_weight"] = mw
    cfg = parse_config(data)
    (portfolios,) = spanning.build_sweep(cfg.target, cfg.spot, cfg.resolved, cfg.modified_weight)
    bands = list(cfg.bands)
    args = (cfg.model, cfg.target, cfg.spot)
    n1, n2, n_n = gq_orders
    direct = {"CW_a": build_cw_a(*args, bands[0]), "CW_b": build_cw_b(*args, bands[0], 9),
              "GQ1": build_gq1(*args, bands[0], n1)}
    if n_bands >= 2:
        direct["GQ2"] = build_gq2(*args, bands[0], bands[1], n2, cfg.modified_weight)
    direct["GQn"] = build_gq_n(*args, bands, n_n, cfg.modified_weight)
    assert list(portfolios) == list(direct)
    assert {name: repr(p) for name, p in portfolios.items()} == {
        name: repr(p) for name, p in direct.items()}


def _record_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_one_pass_build_prices_each_maturity_once_and_keeps_nothing(monkeypatch):
    from statichedge.quadrature import LEGENDRE, make_rule, map_to_interval

    prices = _record_calls(monkeypatch, models, "call_price")
    gammas = _record_calls(monkeypatch, spanning, "strike_gamma_weight")
    cfg = load_config(CONFIG_DIR / "table7.cfg")
    assert [m.name for m in cfg.methods] == ["CW_a", "CW_b", "GQ1", "GQ2"]
    (portfolios,) = spanning.build_sweep(cfg.target, cfg.spot, cfg.resolved[:1],
                                         cfg.modified_weight)
    maturities = {leg.maturity for p in portfolios.values() for leg in p.legs}
    # inception: one call_price call per distinct maturity, the target's included
    assert len(prices) == len(maturities | {cfg.target.maturity}) == 3
    # GQ1 and GQ2 share their first level: one gamma-weight call on its nodes
    band = cfg.bands[0]
    nodes = map_to_interval(make_rule(LEGENDRE, 20), band.lo, band.hi).nodes
    level1 = [args for args in gammas
              if np.shape(args[1]) == nodes.shape and np.array_equal(args[1], nodes)]
    assert len(level1) == 1
    # nothing built survives a call: a rerun makes every kernel call again
    runs = []
    for _ in range(2):
        before = len(prices), len(gammas)
        run_experiment(cfg)
        runs.append((len(prices) - before[0], len(gammas) - before[1]))
    # the sweep's values share one model: one inception call per maturity for the run
    assert runs[0] == runs[1] and runs[0][0] == 3


ROOT = CONFIG_DIR.parent


def _load_module(path):
    """Import a repository script by path; ``bench/`` and ``scripts/`` are
    read, never written."""
    import importlib.util
    import sys

    name = f"_loaded_{path.parent.name}_{path.stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _sweep_configs():
    """(name, config) for every shipped config, the benchmark's generated
    GQn pool, and the manifest's generated configs."""
    workloads = _load_module(ROOT / "bench" / "workloads.py")
    manifest = _load_module(ROOT / "scripts" / "report_manifest.py")
    out = [(path.stem, load_config(path)) for path in sorted(CONFIG_DIR.glob("*.cfg"))]
    out += [(f"gqn{i:02d}", parse_config(workloads.gqn_config(i)))
            for i in range(workloads.N_GQN)]
    generated = {"mixed_orders": manifest.MIXED_ORDERS, **manifest.SHARED_WORK}
    return out + [(name, parse_config(json.loads(json.dumps(data))))
                  for name, data in generated.items()]


_ONE_METHOD = {
    "CW_a": lambda args, bands, n, mw: spanning.build_cw_a(*args, bands[0]),
    "CW_b": lambda args, bands, n, mw: spanning.build_cw_b(*args, bands[0], n),
    "GQ1": lambda args, bands, n, mw: spanning.build_gq1(*args, bands[0], n),
    "GQ2": lambda args, bands, n, mw: spanning.build_gq2(*args, bands[0], bands[1], n, mw),
    "GQn": lambda args, bands, n, mw: spanning.build_gq_n(*args, bands, n, mw),
}


def _unshared_portfolio(model, target, S, bands, name, n, cfg):
    """A static hedge built with nothing shared or cached: every Legendre
    level from its own carry chain, every Hermite order weighted, and every
    leg priced by its own ``call_price`` call."""
    from statichedge.quadrature import HERMITE, LEGENDRE, ORDER_CAP, make_rule, map_to_interval

    K, T, u = target.strike, target.maturity, bands[0].maturity
    if name == "CW_a":
        for order in range(1, ORDER_CAP[HERMITE] + 1):
            trial = spanning.hermite_strike_map(model, K, T, u, order)
            if not all(bands[0].contains(k) for k, _ in trial):
                break
            pairs = trial
        legs = [spanning.HedgeLeg(k, u, w) for k, w in pairs]
    elif name == "CW_b":
        legs = [spanning.HedgeLeg(k, u, w) for k, w in spanning.hermite_strike_map(model, K, T, u, n)
                if bands[0].contains(k)]
    else:
        legs, carry = [], None
        for i, band in enumerate(bands[:{"GQ1": 1, "GQ2": 2}.get(name, len(bands))]):
            if i:
                carry = spanning._excluded_mass(model, target, bands[i - 1], cfg, carry)
            rule = map_to_interval(make_rule(LEGENDRE, n), band.lo, band.hi)
            wt = spanning._level_weight(model, target, rule.nodes, band.maturity, carry)
            legs += [spanning.HedgeLeg(k, band.maturity, w)
                     for k, w in zip(rule.nodes.tolist(), (rule.weights * wt).tolist())]
    legs = tuple(sorted(legs, key=lambda leg: (leg.maturity, leg.strike)))
    total = 0.0
    for leg in legs:
        total = total + leg.weight * models.call_price(model, S, 0.0, leg.strike, leg.maturity)
    b0 = models.call_price(model, S, 0.0, K, T) - total
    return spanning.HedgePortfolio(target, float(S), legs, float(b0), name)


@pytest.mark.filterwarnings("ignore:all .* hermite strikes fall outside")
def test_sweep_build_is_bitwise_the_per_value_builds():
    for name, cfg in _sweep_configs():
        built = spanning.build_sweep(cfg.target, cfg.spot, cfg.resolved, cfg.modified_weight)
        for value, (model, bands, orders), portfolios in zip(cfg.sweep.values, cfg.resolved,
                                                             built):
            static = {m.name: orders[m.name] for m in cfg.methods
                      if m.name in spanning.STATIC_METHODS}
            args = (model, cfg.target, cfg.spot)
            (alone,) = spanning.build_sweep(cfg.target, cfg.spot, [(model, bands, static)],
                                            cfg.modified_weight)
            single = {method: _ONE_METHOD[method](args, bands, n, cfg.modified_weight)
                      for method, n in static.items()}
            unshared = {method: _unshared_portfolio(*args, bands, method, n, cfg.modified_weight)
                        for method, n in static.items()}
            swept = {method: repr(p) for method, p in portfolios.items()}
            assert list(portfolios) == list(static), name
            assert swept == {method: repr(p) for method, p in unshared.items()}, (name, value)
            assert swept == {method: repr(p) for method, p in alone.items()}, (name, value)
            assert swept == {method: repr(p) for method, p in single.items()}, (name, value)


def _run_counts(cfg, calls):
    """Run ``cfg`` twice; each run's count of every recorded call list."""
    runs = []
    for _ in range(2):
        before = [len(c) for c in calls]
        run_experiment(cfg)
        runs.append([len(c) - b for c, b in zip(calls, before)])
    assert runs[0] == runs[1]
    return runs[0]


def test_sweep_computes_each_carry_once_per_run(monkeypatch):
    carries = _record_calls(monkeypatch, spanning, "_excluded_mass")
    gammas = _record_calls(monkeypatch, spanning, "strike_gamma_weight")
    prices = _record_calls(monkeypatch, models, "call_price")
    data = _base_config(model=dict(_MJD), bands=_MIX_BANDS,
                        methods=[{"name": "GQ1"}, {"name": "GQ2"}, {"name": "GQn"}],
                        sweep={"variable": "quad_points", "values": [6, 10]})
    cfg = parse_config(data)
    n_carries, _, n_prices = _run_counts(cfg, [carries, gammas, prices])
    # the carries into levels 2-4 serve both orders
    assert n_carries == len(_MIX_BANDS) - 1
    assert [args[2] for args in carries[:n_carries]] == list(cfg.bands[:-1])
    # one model: one inception call per maturity, the target's included
    assert n_prices == len(_MIX_BANDS) + 1


def test_sweep_keys_each_carry_by_the_band_prefix_it_reads(monkeypatch):
    carries = _record_calls(monkeypatch, spanning, "_excluded_mass")
    methods = [{"name": name, "n": 6} for name in ("GQ1", "GQ2", "GQn")]
    # a u2 sweep: the carry past the first band serves every value, and the
    # carry past the first two serves each distinct second band once
    data = _base_config(model=dict(_MJD), bands=_MIX_BANDS[:3], methods=methods,
                        sweep={"variable": "u2", "values": [0.2, 0.18, 0.2]})
    (n_carries,) = _run_counts(parse_config(data), [carries])
    assert n_carries == 3
    assert [args[2].maturity for args in carries[:n_carries]] == [0.3, 0.2, 0.18]
    assert [args[4] is None for args in carries[:n_carries]] == [True, False, False]
    # a band sweep that moves only the last band: the carries into levels 1
    # and 2 are computed once
    carries.clear()
    fixed = [{"lo": band["lo"], "hi": band["hi"]} for band in _MIX_BANDS[:2]]
    data["sweep"] = {"variable": "band", "values": [
        [*fixed, {"lo": lo, "hi": hi}] for lo, hi in ((55.0, 140.0), (60.0, 130.0), (50.0, 150.0))]}
    (n_carries,) = _run_counts(parse_config(data), [carries])
    assert [args[2].maturity for args in carries[:n_carries]] == [0.3, 0.2]


def test_cw_a_weights_one_ladder_per_distinct_band(monkeypatch):
    gammas = _record_calls(monkeypatch, spanning, "strike_gamma_weight")
    data = _base_config(model=dict(_MJD), bands=_MIX_BANDS[:1], methods=[{"name": "CW_a"}],
                        sweep={"variable": "u1", "values": [0.3, 0.2, 0.3, 0.12]})
    (n_gammas,) = _run_counts(parse_config(data), [gammas])
    assert n_gammas == 3


def test_sweep_prices_each_model_and_maturity_once(monkeypatch):
    prices = _record_calls(monkeypatch, models, "call_price")
    data = _base_config(model=dict(_MJD), bands=_MIX_BANDS[:3],
                        methods=[{"name": "CW_a"}, {"name": "CW_b", "n": 9},
                                 {"name": "GQ1", "n": 4}, {"name": "GQ2", "n": 6},
                                 {"name": "GQn", "n": 8}],
                        sweep={"variable": "lambda", "values": [1.0, 2.0, 1.0]})
    (n_prices,) = _run_counts(parse_config(data), [prices])
    # two distinct models, each marking 3 band maturities and the target's
    assert n_prices == 2 * 4
    assert {(args[0].lam, args[4]) for args in prices[:n_prices]} == {
        (lam, T) for lam in (1.0, 2.0) for T in (0.3, 0.2, 0.12, 1.0)}
