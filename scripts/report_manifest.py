"""Print a sha256 manifest of everything the CLI emits for the shipped configs
and the generated GQn configs.

Every config in ``<root>/configs`` runs through ``sweep`` in each format
(csv, json, plot), ``build`` and ``price``, and so does each generated GQn
config of the benchmark pool (3-4 band BS and MJD hedges, some with
``modified_weight`` overrides), which ``bench.workloads.write_gqn_configs``
writes to a temporary directory; ``bench/`` is only read.  Configs with
a simulation block also run through ``simulate --errors``, ``pfe`` and
``sweep --threads 2 --seed 7`` (a second seed on a thread pool, so the
per-model grouping of sweep values and the split of paths across threads
are covered too); the others run through ``sweep --threads 2`` as well.
``table5.cfg`` also runs ``simulate --errors`` with a seed of three 32-bit
words (2^64 + 3), so the per-path seeding of multi-word seeds is covered.
One more generated config, ``mixed_orders.cfg``, runs every static method
and DH on a jump model over 3 bands with unequal orders (GQ1 4, GQ2 6,
GQn 8) and a ``modified_weight`` override, so hedges that share some but
not all quadrature levels are covered.
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
        (Path(gqn_dir) / "mixed_orders.cfg").write_text(json.dumps(MIXED_ORDERS, indent=2) + "\n")
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
