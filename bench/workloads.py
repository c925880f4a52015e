"""Workload definitions: the CLI operations each workload sends, derived from
the benchmark seed.

An operation is one ``statichedge.cli.main`` call; ``Op.argv`` omits the
``--out`` directory, which the runner appends.  Every input an operation
can receive comes from a fixed pool (shipped configs, a pool of simulation
seeds, a pool of generated ``GQn`` configs), so every operation of every
seed has a recorded reference report in ``bench/refs``.  The seed picks
which pool entries run, in which order and in which output format.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

WORKLOADS = ("mc_jump", "mc_diffusion_io", "static_tables")

# Shipped configs without a simulation block.
STATIC_CONFIGS = ("fig2", "table1", "table2", "table3", "table4",
                  "table6", "table7", "table8", "table9")
FORMATS = ("csv", "json", "plot")

# Simulation seeds the MC workloads draw from.
SIM_SEEDS = (11, 23, 37, 41, 53, 67, 79, 97)

# Size of the generated GQn config pool; every static_tables cycle runs all
# of them, so the op-time distribution does not depend on the seed.
N_GQN = 24


@dataclass(frozen=True)
class Op:
    """One CLI operation: ``key`` names its reference report."""

    key: str
    argv: tuple

    @property
    def config(self) -> str:
        return self.argv[self.argv.index("--config") + 1]


def gqn_config(index: int) -> dict:
    """Generated config ``index`` of the GQn pool.

    GQ1 and GQn over 3-4 strictly decreasing short maturities, on BS
    (even index) or MJD (odd index), swept over two orders in [4, 60];
    every third config overrides the modified-weight rule orders.
    """
    rng = random.Random(f"statichedge-bench-gqn-{index}")
    if index % 2 == 0:
        model = {"type": "bs", "r": 0.06, "delta_yield": 0.0,
                 "sigma": round(rng.uniform(0.15, 0.40), 4), "mu": 0.1}
    else:
        model = {"type": "mjd", "r": 0.06, "delta_yield": 0.02,
                 "sigma": round(rng.uniform(0.10, 0.20), 4), "mu": 0.1,
                 "lam": round(rng.uniform(0.5, 3.0), 3),
                 "mu_j": round(rng.uniform(-0.20, 0.0), 3),
                 "sigma_j": round(rng.uniform(0.05, 0.20), 3)}
    n_bands = rng.choice((3, 4))
    maturity = round(rng.uniform(0.15, 0.60), 4)
    bands = []
    for _ in range(n_bands):
        bands.append({"maturity": maturity,
                      "lo": round(rng.uniform(50.0, 85.0), 1),
                      "hi": round(rng.uniform(110.0, 150.0), 1)})
        maturity = round(maturity * rng.uniform(0.35, 0.75), 4)
    orders = sorted(rng.sample(range(4, 61), 2))
    cfg = {
        "model": model,
        "target": {"strike": 100.0, "maturity": 1.0, "spot": 100.0},
        "methods": [{"name": "GQ1"}, {"name": "GQn"}],
        "bands": bands,
        "sweep": {"variable": "quad_points", "values": orders},
    }
    if index % 3 == 0:
        cfg["modified_weight"] = {"n_inner_gq": rng.randint(5, 20),
                                  "n_laguerre": rng.randint(10, 40)}
    return cfg


def write_gqn_configs(directory: Path):
    """Write the GQn pool into ``directory`` as ``gqnNN.cfg``."""
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(N_GQN):
        (directory / f"gqn{i:02d}.cfg").write_text(json.dumps(gqn_config(i), indent=2) + "\n")


def config_paths(workload: str, gqn_dir: Path) -> dict:
    """Every config file the workload's operations read, by name.  The GQn
    pool must already have been written to ``gqn_dir``."""
    if workload == "mc_jump":
        return {"table12": CONFIG_DIR / "table12.cfg"}
    if workload == "mc_diffusion_io":
        return {name: CONFIG_DIR / f"{name}.cfg" for name in ("table11", "table5")}
    if workload == "static_tables":
        paths = {name: CONFIG_DIR / f"{name}.cfg" for name in STATIC_CONFIGS}
        paths.update({f"gqn{i:02d}": gqn_dir / f"gqn{i:02d}.cfg" for i in range(N_GQN)})
        return paths
    raise ValueError(f"unknown workload {workload!r}")


def _sweep(configs, name, fmt="csv", seed=None):
    argv = ["sweep", "--config", str(configs[name]), "--format", fmt]
    key = f"{name}/{fmt}"
    if seed is not None:
        argv += ["--seed", str(seed)]
        key = f"{name}/sweep/seed{seed}"
    return Op(key, tuple(argv))


def _diffusion_cycle(configs, seed):
    t5 = str(configs["table5"])
    return [
        _sweep(configs, "table11", seed=seed),
        Op(f"table5/simulate-errors/seed{seed}",
           ("simulate", "--config", t5, "--errors", "--seed", str(seed))),
        Op(f"table5/pfe/seed{seed}", ("pfe", "--config", t5, "--seed", str(seed))),
    ]


def cycle(workload: str, rng: random.Random, configs: dict) -> list:
    """The next cycle of operations; the runner stops only between cycles,
    so every run sends the same operation mix."""
    if workload == "mc_jump":
        return [_sweep(configs, "table12", seed=rng.choice(SIM_SEEDS))]
    if workload == "mc_diffusion_io":
        return _diffusion_cycle(configs, rng.choice(SIM_SEEDS))
    if workload == "static_tables":
        ops = [_sweep(configs, name, fmt) for name in STATIC_CONFIGS for fmt in FORMATS]
        ops += [_sweep(configs, f"gqn{i:02d}", rng.choice(FORMATS)) for i in range(N_GQN)]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def all_ops(workload: str, configs: dict) -> list:
    """Every operation any seed can send: the reference set."""
    if workload == "mc_jump":
        return [_sweep(configs, "table12", seed=s) for s in SIM_SEEDS]
    if workload == "mc_diffusion_io":
        return [op for seed in SIM_SEEDS for op in _diffusion_cycle(configs, seed)]
    names = list(STATIC_CONFIGS) + [f"gqn{i:02d}" for i in range(N_GQN)]
    return [_sweep(configs, name, fmt) for name in names for fmt in FORMATS]

