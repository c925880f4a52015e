"""Benchmark worker: one fresh process per measurement.

``--setup-only`` times set-up (import ``statichedge`` and parse every
config the workload reads, with cold rule caches) and exits.  Otherwise
the worker sets up, then runs the workload as a closed loop: one client,
one thread, the next operation sent when the previous one has returned.
It stops between cycles, before a cycle that would overrun ``--seconds``.
Each operation's output is checked against its reference outside the
timed region.  With ``--trace 1`` the worker runs every operation twice,
untraced and traced, and compares the two reports byte for byte; per-layer
metrics come from the traced half.

The worker prints one JSON object on its last stdout line.
"""
import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import refs
import workloads as wl

MAX_FAILURE_DETAILS = 5


def setup(configs: dict) -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(wl.ROOT / "src"))
    import statichedge
    from statichedge import cli  # noqa: F401  (part of what a CLI user loads)
    from statichedge.experiments import load_config

    if not Path(statichedge.__file__).resolve().is_relative_to(wl.ROOT / "src"):
        raise SystemExit(f"statichedge imported from {statichedge.__file__}, not {wl.ROOT}/src")
    for path in configs.values():
        load_config(path)
    return time.perf_counter() - start


class Runner:
    """Sends operations to ``cli.main`` and checks each against its reference."""

    def __init__(self, cli, references, config_sha, out_root: Path):
        # Look ``main`` up on each call, so the tracer's rebinding is seen.
        self.cli = cli
        self.references = references
        self.config_sha = config_sha
        self.out_root = out_root
        self.count = 0
        self.failures = []

    def run(self, op) -> dict:
        out = self.out_root / f"op{self.count}"
        self.count += 1
        argv = list(op.argv) + ["--out", str(out)]
        problem = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = self.cli.main(argv)
            elapsed = time.perf_counter() - start
            if rc != 0:
                problem = f"exit code {rc}: {err.getvalue().strip()}"
        except (Exception, SystemExit):
            # A failed operation is counted and the loop goes on.
            elapsed = time.perf_counter() - start
            problem = traceback.format_exc(limit=3)
        ok, identical, mismatch, nbytes, hashes = False, False, problem, 0, {}
        if not problem:
            ok, identical, mismatch, nbytes, hashes = refs.check(
                out, self.references.get(op.key), self.config_sha[op.config])
        shutil.rmtree(out, ignore_errors=True)
        if not ok and len(self.failures) < MAX_FAILURE_DETAILS:
            self.failures.append(f"{op.key}: {mismatch}")
        return {"key": op.key, "seconds": elapsed, "ok": ok, "identical": identical,
                "bytes": nbytes, "hashes": hashes}


def run_for(workload, rng, configs, seconds, run_op):
    """Pass whole cycles of operations to ``run_op`` until the next cycle
    would overrun ``seconds``."""
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op in wl.cycle(workload, rng, configs):
            run_op(op)
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    configs = wl.config_paths(args.workload, args.work_dir / "configs")
    setup_s = setup(configs)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from statichedge import cli

    config_sha = {str(path): refs.sha256(path) for path in configs.values()}
    runner = Runner(cli, refs.load(args.workload), config_sha, args.work_dir / "out")
    rng = random.Random(f"{args.workload}:{args.seed}")
    result = {"setup_s": setup_s}
    if args.trace == 0:
        results = []
        run_for(args.workload, rng, configs, args.seconds,
                lambda op: results.append(runner.run(op)))
    else:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        untraced, traced = [], []

        def run_traced(op):
            tracer.op = len(traced)
            tracer.install()
            try:
                traced.append(runner.run(op))
            finally:
                tracer.uninstall()

        def run_pair(op):
            # Alternate which side runs first, so drift in machine speed and
            # cold caches fall on both sides alike.
            if len(traced) % 2 == 0:
                untraced.append(runner.run(op))
                run_traced(op)
            else:
                run_traced(op)
                untraced.append(runner.run(op))

        run_for(args.workload, rng, configs, args.seconds, run_pair)
        differ = 0
        for before, after in zip(untraced, traced):
            if before["hashes"] != after["hashes"]:
                differ += 1
                after["ok"] = False
                if len(runner.failures) < MAX_FAILURE_DETAILS:
                    runner.failures.append(f"{after['key']}: traced report differs")
        results = untraced + traced
        n_ops = len(traced)
        layers = layer_metrics(tracer.spans, n_ops, sum(r["bytes"] for r in traced))
        layers["trace.overhead_ratio"] = (sum(r["seconds"] for r in traced)
                                          / sum(r["seconds"] for r in untraced))
        trace_dir = wl.ROOT / ".bench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans_path = trace_dir / f"{args.workload}.spans.csv.gz"
        tracer.write(spans_path)
        result.update(layers=layers, traced_ops=n_ops, traced_identical=n_ops - differ,
                      spans=len(tracer.spans), spans_file=str(spans_path),
                      missing_functions=tracer.missing)
    result.update(
        op_seconds=[r["seconds"] for r in results],
        attempted=len(results),
        failed=sum(not r["ok"] for r in results),
        identical=sum(r["identical"] for r in results),
        failures=runner.failures,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        machine=machine_facts(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
