"""Print a sha256 manifest of everything the CLI emits for the shipped configs
and the generated GQn configs.

Every config in ``<root>/configs`` runs through ``sweep`` in each format
(csv, json, plot), ``build`` and ``price``, and so does each generated GQn
config of the benchmark pool (3-4 band BS and MJD hedges, some with
``modified_weight`` overrides), which ``bench.workloads.write_gqn_configs``
writes to a temporary directory; ``bench/`` is only read.  Configs with
a simulation block also run through ``simulate --errors``, ``pfe``,
``sweep --threads 1`` (the serial path: every other call uses the default
thread count, the CPUs the process may use) and ``sweep --threads 2 --seed
7`` (a second seed on a two-thread pool, so the per-model grouping of sweep
values and the pricing blocks run on the pool are covered too); the others
run through ``sweep --threads 2`` as well.
``table5.cfg`` also runs ``simulate --errors`` with a seed of three 32-bit
words (2^64 + 3), so the per-path seeding of multi-word seeds is covered.
One more generated config, ``mixed_orders.cfg``, runs every static method
and DH on a jump model over 3 bands with unequal orders (GQ1 4, GQ2 6,
GQn 8) and a ``modified_weight`` override, so hedges that share some but
not all quadrature levels are covered.  ``off_grid_leg.cfg`` is
``mixed_orders.cfg`` with its third band at maturity 0.03, off the 1/252
step grid and inside the horizon: every call on it is a config error
(exit 2), so a change of exit code shows in the manifest too.  Four more
generated static configs (``SHARED_WORK``) sweep values that share build
work: a ``u2`` sweep over 3 jump-model bands with GQ2 and GQn, a band sweep
whose leading band (and one whole value) repeats, a ``lambda`` sweep with a
repeated value, and CW_a with CW_b under a ``quad_points`` sweep.
Each call gets a fresh output directory, and the manifest lists the sha256 of
every file written there and of the call's stdout (with the output
directory replaced by ``<out>``), plus its exit code.  Two checkouts emit
the same bytes exactly when their manifests are identical::

    python scripts/report_manifest.py [root] > manifest.txt

``root`` defaults to the checkout holding this script; the package is
imported from ``<root>/src`` and the GQn pool from ``<root>/bench``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path


def _calls(config: Path):
    """(label, argv tail) for every CLI call the manifest covers."""
    calls = [(f"sweep-{fmt}", ["sweep", "--format", fmt]) for fmt in ("csv", "json", "plot")]
    calls += [("build", ["build"]), ("price", ["price"])]
    if "simulation" in json.loads(config.read_text()):
        calls += [("simulate-errors", ["simulate", "--errors"]), ("pfe", ["pfe"]),
                  ("sweep-threads1", ["sweep", "--threads", "1"]),
                  ("sweep-threads2-seed7", ["sweep", "--threads", "2", "--seed", "7"])]
    else:
        calls.append(("sweep-threads2", ["sweep", "--threads", "2"]))
    if config.name == "table5.cfg":
        calls.append(("simulate-errors-seed2^64+3",
                      ["simulate", "--errors", "--seed", str(2 ** 64 + 3)]))
    return calls


# Every static method plus DH, each GQ method at its own order.
MIXED_ORDERS = {
    "model": {"type": "mjd", "r": 0.06, "delta_yield": 0.02, "sigma": 0.14, "mu": 0.1,
              "lam": 2.0, "mu_j": -0.1, "sigma_j": 0.13},
    "target": {"strike": 100.0, "maturity": 1.0, "spot": 100.0},
    "methods": [{"name": "DH"}, {"name": "CW_a"}, {"name": "CW_b", "n": 9},
                {"name": "GQ1", "n": 4}, {"name": "GQ2", "n": 6}, {"name": "GQn", "n": 8}],
    "bands": [{"maturity": 0.3, "lo": 70.0, "hi": 130.0},
              {"maturity": 0.2, "lo": 60.0, "hi": 125.0},
              {"maturity": 0.12, "lo": 55.0, "hi": 140.0}],
    "sweep": {"variable": "lambda", "values": [1.0, 2.0, 1.0]},
    "modified_weight": {"n_inner_gq": 9, "n_laguerre": 14},
    "simulation": {"n_paths": 200, "seed": 3, "step": 1 / 252, "horizon": 10 / 252,
                   "checkpoints": [5 / 252, 10 / 252]},
}


OFF_GRID_LEG = {**MIXED_ORDERS, "bands": [*MIXED_ORDERS["bands"][:2],
                                          {"maturity": 0.03, "lo": 55.0, "hi": 140.0}]}

_MJD = MIXED_ORDERS["model"]
_TARGET = MIXED_ORDERS["target"]

# Static sweeps whose values share part of their build work.
SHARED_WORK = {
    # every value shares the carry into the second level
    "u2_three_bands.cfg": {
        "model": _MJD, "target": _TARGET,
        "methods": [{"name": "GQ2", "n": 8}, {"name": "GQn", "n": 8}],
        "bands": MIXED_ORDERS["bands"],
        "sweep": {"variable": "u2", "values": [0.15, 0.25, 0.2]},
    },
    # the leading band repeats, and so does a whole value
    "band_lead_repeats.cfg": {
        "model": _MJD, "target": _TARGET,
        "methods": [{"name": "CW_a"}, {"name": "CW_b", "n": 7},
                    {"name": "GQ1", "n": 6}, {"name": "GQ2", "n": 6}],
        "bands": MIXED_ORDERS["bands"][:2],
        "sweep": {"variable": "band", "values": [
            [{"lo": 70.0, "hi": 130.0}, {"lo": 60.0, "hi": 125.0}],
            [{"lo": 70.0, "hi": 130.0}, {"lo": 50.0, "hi": 140.0}],
            [{"lo": 80.0, "hi": 120.0}, {"lo": 50.0, "hi": 140.0}],
            [{"lo": 70.0, "hi": 130.0}, {"lo": 60.0, "hi": 125.0}],
        ]},
    },
    "lambda_repeats.cfg": {
        "model": _MJD, "target": _TARGET,
        "methods": [{"name": "CW_a"}, {"name": "CW_b", "n": 9}, {"name": "GQ1", "n": 6},
                    {"name": "GQ2", "n": 6}, {"name": "GQn", "n": 6}],
        "bands": MIXED_ORDERS["bands"],
        "sweep": {"variable": "lambda", "values": [0.5, 2.0, 0.5], "hold_variance": 0.09},
    },
    "cw_quad_points.cfg": {
        "model": _MJD, "target": _TARGET,
        "methods": [{"name": "CW_a"}, {"name": "CW_b"}],
        "bands": MIXED_ORDERS["bands"][:1],
        "sweep": {"variable": "quad_points", "values": [5, 12, 5, 30]},
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path, help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root))
    from bench.workloads import write_gqn_configs
    from statichedge import cli

    n_files = 0
    with tempfile.TemporaryDirectory() as gqn_dir:
        write_gqn_configs(Path(gqn_dir))
        generated = {"mixed_orders.cfg": MIXED_ORDERS, "off_grid_leg.cfg": OFF_GRID_LEG,
                     **SHARED_WORK}
        for name, data in generated.items():
            (Path(gqn_dir) / name).write_text(json.dumps(data, indent=2) + "\n")
        configs = sorted((root / "configs").glob("*.cfg")) + sorted(Path(gqn_dir).glob("*.cfg"))
        for config in configs:
            for label, tail in _calls(config):
                with tempfile.TemporaryDirectory() as tmp:
                    out = Path(tmp) / "out"
                    stdout = io.StringIO()
                    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        code = cli.main(tail + ["--config", str(config), "--out", str(out)])
                    text = stdout.getvalue().replace(str(out), "<out>")
                    prefix = f"{config.name} {label}"
                    print(f"{prefix} exit={code}")
                    print(f"{_sha256(text.encode())}  {prefix} <stdout>")
                    for path in sorted(p for p in out.rglob("*") if p.is_file()):
                        print(f"{_sha256(path.read_bytes())}  {prefix} {path.relative_to(out)}")
                        n_files += 1
    print(f"# {n_files} emitted files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
