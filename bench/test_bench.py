"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest bench/test_bench.py -q``
(about a minute: each workload runs once untraced and once traced, for one
cycle each).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import refs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = _parse(_run(workload, trace))
        return cache[workload, trace]

    return get


def _layer(runs, workload, name):
    return runs(workload, 1)[1]["metrics"][name]["value"]


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_spec_metrics(runs, workload, trace):
    lines, result = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert [v["unit"] for v in result["metrics"].values()] == [m["unit"] for m in spec]
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_reports_identical_to_untraced(runs, workload):
    lines, _ = runs(workload, 1)
    (line,) = [ln for ln in lines if ln.startswith("traced_reports_identical ")]
    _, same, _, total = line.split()
    assert same == total and int(total) >= 1


def test_static_tables_bypasses_simulation(runs):
    assert _layer(runs, "static_tables", "simulation.simulate_paths.calls") == 0
    assert _layer(runs, "static_tables", "simulation.static_hedge_run.calls") == 0


def test_mc_diffusion_io_shows_simulation_rerun(runs):
    assert _layer(runs, "mc_diffusion_io", "simulation.simulate_paths.calls") > 1
    assert _layer(runs, "mc_diffusion_io", "simulation.simulate_paths.unique_ratio") < 1


def test_mc_jump_time_is_mostly_models(runs):
    metrics = runs("mc_jump", 1)[1]["metrics"]
    self_times = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    models = sum(v for k, v in self_times.items() if k.startswith("models."))
    assert models > 0.5 * sum(self_times.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("static_tables", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_tolerance():
    ref = [["sweep_value", "GQ1_edl"], ["6", "-0.28426"]]
    assert refs.close([["sweep_value", "GQ1_edl"], ["6", "-0.2842600000001"]], ref)
    assert not refs.close([["sweep_value", "GQ1_edl"], ["6", "-0.28436"]], ref)
    assert not refs.close([["sweep_value", "GQ2_edl"], ["6", "-0.28426"]], ref)
    assert not refs.close([["sweep_value", "GQ1_edl"]], ref)


def test_tracer_rebinds_every_import_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from statichedge import cli, models, simulation, spanning
    from tracer import Tracer

    original = models.call_price
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (models, spanning, simulation, cli):
            assert mod.call_price is not original
        models.call_price(models.BsParams(0.06, 0.0, 0.27), 100.0, 0.0, 100.0, 1.0)
    finally:
        tracer.uninstall()
    assert all(mod.call_price is original for mod in (models, spanning, simulation, cli))
    assert [s[0] for s in tracer.spans] == ["models.call_price"]
    assert tracer.missing == []
