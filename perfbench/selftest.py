"""Self-test of the benchmark itself (not of semirad).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

  1. the same seed gives the same problem bytes, and another seed other bytes;
  2. two fresh processes that each run one checked pass and one traced
     pass of the first two problems give identical quality metrics,
     success rates and per-layer counts, on every workload;
  3. the operator checker flags a perturbed radius;
  4. one bound_report plus one estimate_range at n=32 makes 213 eigvalsh
     calls, 1 batched eigh and 219 SVDs (the trace anchor).

Exits 0 when all hold.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [HERE, os.path.abspath("src")]

import problems as P  # noqa: E402

# One checked pass and one traced pass of the first two problems of a
# workload (and their twins), through the worker's own functions.  Prints
# the quality metrics and the per-layer counts (times left out) as JSON.
SHORT_RUN = """
import json, os, sys
import worker
name, work_dir = sys.argv[1], sys.argv[2]
wl = worker.WORKLOADS[name](3, work_dir)
wl.items = wl.items[:2]
wl.probes = [p for p in wl.probes if p["base"] < 2]
timed = worker.timed_passes(wl, 0.0, 1)
metrics, _ = worker.end_to_end(wl, name, timed, worker.run_probes(wl, timed["first"]))
layer, _ = worker.traced_pass(wl, os.path.join(work_dir, "spans.tsv.gz"))
print(json.dumps({
    "quality": {k: metrics[k] for k in ("success_rate", "bracket_rel_width", "prk_ratio")},
    "counts": {k: v for k, v in layer.items() if not k.endswith(("_ms", ".ms"))},
}))
"""


def check_determinism():
    for w in P.WORKLOADS:
        a = P.problem_digest(P.make_problems(w, 7))
        b = P.problem_digest(P.make_problems(w, 7))
        c = P.problem_digest(P.make_problems(w, 8))
        assert a == b, f"{w}: seed 7 gave different problems"
        assert a != c, f"{w}: seeds 7 and 8 gave the same problems"
    print("ok  same seed, same problem bytes")


def short_run(workload):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.abspath("src")]))
    os.makedirs(".perfbench", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench") as work_dir:
        out = subprocess.run([sys.executable, "-c", SHORT_RUN, workload, work_dir],
                             env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_repeatable():
    for w in P.WORKLOADS:
        first, second = short_run(w), short_run(w)
        assert first == second, f"{w}: runs differ\n{first}\n{second}"
    print("ok  two runs: identical quality metrics and per-layer counts")


def check_checker():
    import worker

    wl = worker.OperatorWorkload(5, None)
    p = wl.items[3]
    assert p["w_known"] is not None
    out = wl.collect(p, wl.run(p))
    assert P.check_operator(p, out) == [], P.check_operator(p, out)
    bad = dict(out, radius=out["radius"] * (1 + 1e-6))
    assert P.check_operator(p, bad), "perturbed radius passed the checker"
    print("ok  checker flags a radius perturbed by 1e-6")


def check_anchor():
    import worker

    got = worker.anchor_counts(5)
    want = {"anchor.eigvalsh.calls": 213, "anchor.eigh.calls": 1, "anchor.svd.calls": 219}
    assert got == want, got
    print("ok  anchor counts 213 eigvalsh / 1 eigh / 219 svd")


if __name__ == "__main__":
    check_determinism()
    check_checker()
    check_anchor()
    check_repeatable()
    print("selftest passed")
