"""semirad benchmark entry point.

    python3 perfbench/run.py --workload operator-n32 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/semirad`` must exist).  It
times set-up in fresh interpreters, runs the workload in one fresh worker
process with BLAS pinned to one thread, writes the full result (with the
environment) to ``.perfbench/results/`` and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from problems import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
PROCESS_TIMEOUT_S = 160

# Fresh interpreter: import numpy, scipy.optimize and semirad, then one
# warm-up call.  argv: the wall-clock time at spawn, the perfbench
# directory.  Prints the seconds from spawn to ready, the same corrected
# for host speed (hostspeed.py, median of three calibrations taken after
# the set-up) and the import split in ms.
PROBE = """
import json, statistics, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.optimize
t2 = time.perf_counter()
import semirad
t3 = time.perf_counter()
semirad.bound_report(semirad.make_operator(semirad.identity_context(2), [[0, 1], [0, 0]]))
ready_s = time.time() - float(sys.argv[1])
sys.path.insert(0, sys.argv[2])
from hostspeed import REFERENCE_S, calibrate
cal = statistics.median(calibrate() for _ in range(3))
print(json.dumps({"ready_s": ready_s, "setup_s": ready_s * REFERENCE_S / cal,
                  "import_numpy_ms": (t1 - t0) * 1e3, "import_scipy_ms": (t2 - t1) * 1e3,
                  "import_semirad_ms": (t3 - t2) * 1e3}))
"""



def metric_units():
    """Units of every metric, as BENCHMARK.json defines them."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {d["name"]: d["unit"] for d in spec["end_to_end"] + spec["per_layer"]}


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run a child to completion; returns its stdout."""
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {argv[1:3]} exited with {proc.returncode}")
    return proc.stdout


def measure_setup(env):
    """Median of SETUP_SAMPLES fresh-interpreter set-ups, after one warm run
    that fills the bytecode and file caches.  Returns the corrected median,
    every probe's output and the median import split."""
    def probe():
        return json.loads(run_child([sys.executable, "-c", PROBE, repr(time.time()), HERE], env))

    probe()
    samples = [probe() for _ in range(SETUP_SAMPLES)]
    split = {f"setup.{k}": statistics.median(s[k] for s in samples)
             for k in ("import_numpy_ms", "import_scipy_ms", "import_semirad_ms")}
    return statistics.median(s["setup_s"] for s in samples), samples, split


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def environment(env, worker_result):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "openblas": worker_result.get("blas", "unknown"),
        "threads": {v: env[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "semirad", "__init__.py")):
        sys.stderr.write("run from the root of a semirad checkout (src/semirad missing)\n")
        return 2
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    env = child_env()

    setup_s, setup_samples, setup_split = measure_setup(env)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(results, tag + ".json")
    run_child([sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(OUT_DIR, f"work-{os.getpid()}"),
               "--out", out], env)
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)

    metrics = dict(res["metrics"], setup_s=setup_s)
    units = metric_units()
    shown = dict(res["layer"], **setup_split) if args.trace else metrics
    shown = {k: {"value": v, "unit": units[k]} for k, v in shown.items()}
    res.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, metrics=metrics, setup_samples=setup_samples,
        environment=environment(env, res),
    )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
