"""statichedge benchmark: end-to-end and per-layer metrics of CLI workloads.

Usage (from the repository root)::

    python3 bench/run.py --workload mc_jump --seed 1 --seconds 55 --trace 0

Each run starts fresh worker processes (BLAS and OpenMP pinned to one
thread): with ``--trace 0``, ``SETUP_SAMPLES - 1`` that only time set-up,
then one that sets up and runs the workload for ``--seconds`` (see
``worker.py``), and the run prints every ``end_to_end`` metric of
``BENCHMARK.json``.  With ``--trace 1`` the one worker runs each
operation untraced and traced, and the run prints every ``per_layer``
metric.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give sample counts and machine facts.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

SETUP_SAMPLES = 7
# Every run must end within 180 s; leave room for reporting and clean-up.
RUN_DEADLINE_S = 170.0
# A percentile needs at least this many samples beyond it to be a tail estimate.
TAIL_SAMPLES = 10

WORKER = Path(__file__).resolve().parent / "worker.py"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _worker(args, deadline, extra):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--work-dir", str(args.work_dir), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    env = {**os.environ, **THREAD_ENV}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result, setups):
    times = result["op_seconds"]
    n = len(times)
    p95_note = ("" if n * 0.05 >= TAIL_SAMPLES else
                f"; fewer than {int(TAIL_SAMPLES / 0.05)} samples, so this is the "
                "near-maximum, not a tail estimate")
    metrics = {
        "setup_s": statistics.median(setups),
        "reports_per_s": n / sum(times),
        "op_p50_s": percentile(times, 0.50),
        "op_p95_s": percentile(times, 0.95),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh workers: "
                   + " ".join(f"{s:.4f}" for s in setups),
        "reports_per_s": f"{n} ops in {sum(times):.3f} s of op wall time",
        "op_p50_s": f"n={n}",
        "op_p95_s": f"n={n}{p95_note}",
        "peak_rss_mib": "ru_maxrss of the measuring worker",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    for needed in (wl.ROOT / "src" / "statichedge" / "__init__.py",
                   wl.CONFIG_DIR / "table12.cfg", wl.ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"benchmark: {needed} is missing; run from a statichedge checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    args.work_dir = wl.ROOT / ".bench_work" / f"run-{os.getpid()}"
    try:
        wl.write_gqn_configs(args.work_dir / "configs")
        setups = [_worker(args, deadline, ["--setup-only"])["setup_s"]
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        result = _worker(args, deadline, [])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    setups.append(result["setup_s"])

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"failed_ops_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"byte_identical_reports {result['identical']} of {attempted}")
    for failure in result["failures"]:
        print(f"failure {failure}")
    if args.trace:
        values = result["layers"]
        notes = {}
        print(f"traced_reports_identical {result['traced_identical']} of {result['traced_ops']}")
        print(f"spans {result['spans']} over {result['traced_ops']} traced ops, "
              f"written to {result['spans_file']}")
        if result["missing_functions"]:
            print("untraced (missing) " + " ".join(result["missing_functions"]))
    else:
        values, notes = end_to_end(result, setups)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = notes.get(m["name"])
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
