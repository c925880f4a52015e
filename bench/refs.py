"""Reference reports: record them, and check an operation's output against them.

Run ``python3 bench/refs.py`` to record ``bench/refs/<workload>.json`` for
every operation any seed can send.  The files in this directory were
recorded at the commit that added the benchmark.

An output file that is byte-identical to its reference passes at once.
Otherwise its values are compared: every number within ``ABS_TOL +
REL_TOL * |reference|``, every other cell exactly.  1e-6 is the tightest
tolerance the acceptance suite puts on a reported value (criterion 1,
the target prices).  Error-matrix dumps (``errors_*.csv``, about 800 KB
each) are kept as a summary: header, row count, and per-column mean and
root mean square, plus the overall minimum and maximum.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl

ABS_TOL = 1e-6
REL_TOL = 1e-6

REF_DIR = Path(__file__).resolve().parent / "refs"


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _error_matrix_summary(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        sums = [0.0] * (len(header) - 1)
        squares = [0.0] * (len(header) - 1)
        low, high = math.inf, -math.inf
        n = 0
        for row in rows:
            values = [float(v) for v in row[1:]]
            n += 1
            for j, v in enumerate(values):
                sums[j] += v
                squares[j] += v * v
            low = min(low, *values)
            high = max(high, *values)
    return {"header": header, "rows": n,
            "col_mean": [s / n for s in sums],
            "col_rms": [math.sqrt(q / n) for q in squares],
            "min": low, "max": high}


def file_values(path: Path):
    """The comparable content of one output file."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.name.startswith("errors_"):
        return _error_matrix_summary(path)
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def close(got, ref) -> bool:
    """Structure equal, numbers within tolerance, everything else equal."""
    if isinstance(ref, dict):
        return (isinstance(got, dict) and got.keys() == ref.keys()
                and all(close(got[k], ref[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(close(g, r) for g, r in zip(got, ref)))
    g, r = _number(got), _number(ref)
    if g is None or r is None:
        return got == ref
    if g == r or (math.isnan(g) and math.isnan(r)):
        return True
    return abs(g - r) <= ABS_TOL + REL_TOL * abs(r)


def fingerprint(out_dir: Path, config_path) -> dict:
    """Reference entry for the output directory of one operation."""
    return {
        "config_sha256": sha256(config_path),
        "files": {p.name: {"sha256": sha256(p), "values": file_values(p)}
                  for p in sorted(out_dir.iterdir())},
    }


def check(out_dir: Path, ref: dict, config_sha: str):
    """Compare one operation's output with its reference.

    Returns ``(ok, identical, problem, output_bytes, hashes)``:
    ``identical`` when every file matches byte for byte, ``problem``
    naming the first mismatch when not ``ok``, and the sha256 of each
    output file by name.
    """
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    nbytes = sum(p.stat().st_size for p in files)
    hashes = {p.name: sha256(p) for p in files}
    if ref is None:
        return False, False, "no reference recorded for this operation", nbytes, hashes
    if ref["config_sha256"] != config_sha:
        return False, False, "config differs from the reference's", nbytes, hashes
    if sorted(hashes) != sorted(ref["files"]):
        return (False, False, f"output files {sorted(hashes)} != {sorted(ref['files'])}",
                nbytes, hashes)
    identical = True
    for path in files:
        expected = ref["files"][path.name]
        if hashes[path.name] == expected["sha256"]:
            continue
        identical = False
        if not close(file_values(path), expected["values"]):
            return False, False, f"{path.name} outside tolerance", nbytes, hashes
    return True, identical, "", nbytes, hashes


def load(workload: str) -> dict:
    return json.loads((REF_DIR / f"{workload}.json").read_text())["ops"]


def record(workloads=None):
    """Run every operation of each workload once and store its outputs."""
    sys.path.insert(0, str(wl.ROOT / "src"))
    from statichedge import cli

    REF_DIR.mkdir(exist_ok=True)
    (wl.ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="refs-", dir=wl.ROOT / ".bench_work"))
    try:
        wl.write_gqn_configs(work / "configs")
        for workload in workloads or wl.WORKLOADS:
            configs = wl.config_paths(workload, work / "configs")
            ops = {}
            for op in wl.all_ops(workload, configs):
                out = work / "out"
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(list(op.argv) + ["--out", str(out)])
                if rc != 0:
                    raise SystemExit(f"{op.key}: exit code {rc}")
                ops[op.key] = fingerprint(out, op.config)
                shutil.rmtree(out)
                print(f"recorded {workload} {op.key}", file=sys.stderr)
            doc = {"tolerance": {"abs": ABS_TOL, "rel": REL_TOL}, "ops": ops}
            (REF_DIR / f"{workload}.json").write_text(
                json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    record(sys.argv[1:])
