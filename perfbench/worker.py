"""One workload in one fresh process: timed passes, checks, optional trace.

Started by run.py with BLAS pinned to one thread and ``src`` on the path.
Writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

import numpy as np

import problems as P
import semirad
import semirad.cli
from hostspeed import REFERENCE_S, calibrate
from tracer import Tracer

# A calibration is taken before any problem that starts this long after
# the last one.
CALIBRATE_EVERY_S = 0.25


# ------------------------------------------------------------ workloads


# Each workload has run(item), the library calls that are timed, and
# collect(item, raw), which turns their result into the output that is
# checked and compared with pass 1, outside the clock.


class OperatorWorkload:
    """make_context + make_operator, then a_numerical_radius, a_crawford,
    bound_report and estimate_range on one n=32 operator."""

    def __init__(self, seed, work_dir):
        probs = P.operator_problems(seed)
        self.items = [p for p in probs if p["kind"] == "regular"]
        self.probes = [p for p in probs if p["kind"] == "twin"]

    def run(self, p):
        sr = semirad
        op = sr.make_operator(sr.make_context(p["A"]), p["T"])
        return (sr.a_numerical_radius(op), sr.a_crawford(op), sr.bound_report(op),
                sr.estimate_range(op))

    def collect(self, p, raw):
        radius, crawford, rep, est = raw
        return {
            "radius": radius, "crawford": crawford,
            "w_exact": rep.w_exact, "lower_21": rep.lower_21,
            "lower_22": rep.lower_22, "upper_hphi": rep.upper_hphi,
            "phi_star": rep.phi_star, "sandwich_lower": rep.sandwich_lower,
            "sandwich_upper": rep.sandwich_upper,
            "range_radius": est.radius, "range_crawford": est.crawford,
        }

    def check(self, p, out, first_outs):
        ref = first_outs[p["base"]] if p["kind"] == "twin" else None
        if p["kind"] == "twin" and ref is None:
            return ["unscaled reference failed"]
        return P.check_operator(p, out, ref)

    def quality(self, outs):
        return {"bracket_rel_width": P.bracket_rel_width(outs)}


class RootsWorkload:
    """zero_bound_report with the default weight optimizer."""

    def __init__(self, seed, work_dir):
        self.items = P.roots_problems(seed)
        self.probes = []

    def run(self, p):
        return semirad.zero_bound_report(semirad.make_polynomial(p["coeffs"]))

    def collect(self, p, rep):
        return {
            "r_c": rep.r_c, "r_cm": rep.r_cm, "r_fk": rep.r_fk,
            "r_prk": rep.r_prk, "alpha_max": float(np.max(rep.alphas)),
            "max_root_modulus": rep.max_root_modulus,
        }

    def check(self, p, out, first_outs):
        return P.check_roots(p, out)

    def quality(self, outs):
        return {"prk_ratio": P.prk_ratio(outs)}


class CliWorkload:
    """semirad.cli.main in process on small job files, output via --output."""

    EXT = {"json": "json", "table": "txt", "svg": "svg"}

    def __init__(self, seed, work_dir):
        self.items = []
        for i, job in enumerate(P.cli_problems(seed)):
            src = os.path.join(work_dir, f"job{i:03d}.json")
            with open(src, "w", encoding="utf-8") as fh:
                json.dump(job["doc"], fh)
            dst = os.path.join(work_dir, f"out{i:03d}.{self.EXT[job['format']]}")
            argv = ["--command", job["command"], "--input", src,
                    "--format", job["format"], "--output", dst]
            self.items.append(dict(job, argv=argv, dst=dst))
        self.probes = []
        self.bytes_out = 0

    def run(self, job):
        return semirad.cli.main(job["argv"])

    def collect(self, job, code):
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        with open(job["dst"], "rb") as fh:
            data = fh.read()
        os.unlink(job["dst"])
        self.bytes_out += len(data)
        return data

    def check(self, job, out, first_outs):
        if job["format"] != "json":
            return []
        return P.check_cli(job, json.loads(out))

    def quality(self, outs):
        return {}


WORKLOADS = {
    "operator-n32": OperatorWorkload,
    "roots-deg8-24": RootsWorkload,
    "cli-small": CliWorkload,
}

# A quality metric a workload does not compute is reported as this
# constant, so every workload prints every metric.
NOT_APPLICABLE = 1.0


# ------------------------------------------------------------ measuring


def attempt(wl, item, first_outs):
    """Run one problem; returns (seconds, output or None, mismatches, error)."""
    t0 = perf_counter()
    try:
        raw = wl.run(item)
        dt = perf_counter() - t0
        out = wl.collect(item, raw)
    except Exception as exc:  # every failure of the library is a result here
        return perf_counter() - t0, None, [], f"{type(exc).__name__}: {exc}"
    return dt, out, wl.check(item, out, first_outs), None


class HostClock:
    """Host-speed correction (see hostspeed.py).  Call tick() before each
    timed interval and record() after it; finish() returns every interval
    scaled by the mean of the calibrations taken just before and just
    after it."""

    def __init__(self):
        self.samples = []
        self._intervals = []  # (seconds, index of the calibration before)
        self._taken = -math.inf

    def tick(self):
        if perf_counter() - self._taken > CALIBRATE_EVERY_S:
            self.samples.append(calibrate())
            self._taken = perf_counter()

    def record(self, seconds):
        self._intervals.append((seconds, len(self.samples) - 1))

    def finish(self):
        self.samples.append(calibrate())
        return [dt * 2 * REFERENCE_S / (self.samples[k] + self.samples[k + 1])
                for dt, k in self._intervals]


def timed_passes(wl, seconds, n_min):
    """Whole passes over the list until the next would overrun ``seconds``
    of wall time (and at least ``n_min`` samples exist).  Pass 1 is the
    reference; later passes must reproduce it exactly.  Latencies are
    host-speed corrected; ``raw_latencies`` are as measured."""
    raw, ok, failures = [], [], []
    first = [None] * len(wl.items)
    clock = HostClock()
    attempt(wl, wl.items[0], first)  # warm-up: lazy imports and caches
    calibrate()  # and the calibration's own first call
    passes = 0
    t_start = perf_counter()
    while True:
        for i, item in enumerate(wl.items):
            clock.tick()
            dt, out, bad, err = attempt(wl, item, first)
            clock.record(dt)
            raw.append(dt)
            if passes == 0:
                first[i] = out
            elif out != first[i]:
                bad = bad + ["output differs from the first pass"]
            if err is not None or bad:
                failures.append({"index": i, "pass": passes, "error": err,
                                 "mismatch": bad})
            ok.append(err is None and not bad)
        passes += 1
        elapsed = perf_counter() - t_start
        attempted = passes * len(wl.items)
        if attempted >= n_min and elapsed * (passes + 1) / passes > seconds:
            break
    corrected = clock.finish()
    latencies = [dt for dt, good in zip(corrected, ok) if good]
    per_problem = [[] for _ in wl.items]
    for k, (dt, good) in enumerate(zip(corrected, ok)):
        if good:
            per_problem[k % len(wl.items)].append(dt)
    return {
        "wall_s": elapsed, "busy_s": sum(corrected), "passes": passes,
        "attempted": attempted, "latencies": latencies, "raw_latencies": raw,
        "failures": failures,
        "problem_ms": [statistics.median(v) * 1e3 if v else None for v in per_problem],
        "host_speed": [REFERENCE_S / c for c in clock.samples],
        "first": first,
    }


def run_probes(wl, first):
    """Scaled twins: run once, outside the timed loop."""
    results = []
    for p in wl.probes:
        _, out, bad, err = attempt(wl, p, first)
        results.append({"kind": p["kind"], "base": p.get("base"),
                        "scale": p.get("scale"), "error": err, "mismatch": bad})
    return results


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, name, timed, probes):
    lat_ms = [x * 1e3 for x in timed["latencies"]]
    q = P.TAIL_PERCENTILE[name]
    failed_first = {f["index"] for f in timed["failures"] if f["pass"] == 0}
    first_ok = [i for i in range(len(wl.items)) if i not in failed_first]
    whole = len(wl.items) + len(probes)
    ok = len(first_ok) + sum(1 for p in probes if not p["error"] and not p["mismatch"])
    outs = [timed["first"][i] for i in first_ok]
    quality = {"bracket_rel_width": NOT_APPLICABLE, "prk_ratio": NOT_APPLICABLE}
    quality.update(wl.quality(outs))
    tail = percentile(lat_ms, q)
    return {
        "problems_per_s": len(lat_ms) / timed["busy_s"],
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": ok / whole,
        **quality,
    }, {"tail_percentile": q, "latency_samples": len(lat_ms),
        "samples_beyond_tail": sum(1 for x in lat_ms if x > tail),
        "raw_latency_p50_ms": statistics.median(timed["raw_latencies"]) * 1e3,
        "host_speed_median": statistics.median(timed["host_speed"])}


def traced_pass(wl, spans_path):
    """One pass of the whole list (twins included) under the tracer; also
    returns the pass's successful problems per corrected second."""
    tracer = Tracer()
    clock = HostClock()
    first = [None] * len(wl.items)
    wl.bytes_out = 0  # only cli-small writes output
    with tracer:
        ok = 0
        for i, item in enumerate(wl.items):
            clock.tick()
            dt, first[i], bad, err = attempt(wl, item, first)
            clock.record(dt)
            ok += err is None and not bad
        busy = sum(clock.finish())
        for p in wl.probes:
            attempt(wl, p, first)
    metrics = tracer.layer_metrics()
    metrics["cli.bytes_out"] = wl.bytes_out
    tracer.write(spans_path)
    return metrics, ok / busy


def anchor_counts(seed):
    """Kernel calls of one bound_report plus one estimate_range at n=32."""
    p = P.operator_problems(seed)[0]
    op = semirad.make_operator(semirad.make_context(p["A"]), p["T"])
    tracer = Tracer()
    with tracer:
        semirad.bound_report(op)
        semirad.estimate_range(op)
    return {
        "anchor.eigvalsh.calls": tracer.calls["kernel.eigvalsh"],
        "anchor.eigh.calls": tracer.calls["kernel.eigh"],
        "anchor.svd.calls": tracer.calls["kernel.svd"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    os.makedirs(args.work_dir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.work_dir)
        q = P.TAIL_PERCENTILE[args.workload]
        timed = timed_passes(wl, args.seconds, math.ceil(10 / (1 - q / 100)))
        probes = run_probes(wl, timed["first"])
        metrics, info = end_to_end(wl, args.workload, timed, probes)
        result = {
            "metrics": metrics,
            "attempted": timed["attempted"],
            "failed": len(timed["failures"]),
            "correct": not any(f["mismatch"] for f in timed["failures"] + probes),
            "passes": timed["passes"],
            "measured_s": timed["wall_s"],
            "list_length": len(wl.items),
            "problem_ms": timed["problem_ms"],
            "failures": timed["failures"][:20],
            "probes": probes,
            **info,
        }
        if args.trace:
            spans = os.path.join(os.path.dirname(args.out),
                                 f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            layer, traced_pps = traced_pass(wl, spans)
            layer["trace.overhead_ratio"] = metrics["problems_per_s"] / traced_pps
            layer.update(anchor_counts(args.seed))
            result["layer"] = layer
            result["spans_file"] = spans
        result["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "version", "unknown")
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
