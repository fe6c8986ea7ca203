"""Seeded problem lists and output checkers for the three workloads.

Every list has a fixed shape (sizes, kinds, counts) and draws only the
numbers inside that shape from the seed, so two seeds give problem sets
with the same cost profile.  Generation needs numpy only; nothing here
imports semirad.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOADS = ("operator-n32", "roots-deg8-24", "cli-small")

# Tail percentile per workload, fixed so that latency_tail_ms means the same
# thing in every run; the timed loop runs until at least ten samples lie
# beyond it.  Set by cost: ~0.7 s (operator-n32), ~1.2 s (roots-deg8-24) and
# ~20 ms (cli-small) per problem in a 30 s run.  cli-small uses p98, not p99:
# a 30 s run holds 1300-1800 jobs, which leaves only 13-18 beyond p99, and
# over five runs p99 spread 0.09 of its median against 0.05 for p98.
TAIL_PERCENTILE = {"operator-n32": 75, "roots-deg8-24": 60, "cli-small": 98}

OPERATOR_N = 32
# Kinds of the regular operator-n32 problems, in list order:
# (kernel dimension of the weight, known radius?).  Three quarters of the
# weights (twins included) are full rank; the rest have a 1-4 dim kernel.
OPERATOR_LAYOUT = (
    (0, False), (0, False), (1, False), (0, True), (0, False), (0, False),
    (2, False), (0, False), (0, False), (3, False), (0, True), (0, False),
    (4, True), (0, False),
)
# Scaled twins: (index of the regular problem, log10 range of the scale).
TWINS = ((0, (-12.0, -10.5)), (3, (-10.5, -9.0)))

RUNNING_EXAMPLE = (0.1, 0.01, 3.0, 0.0, 0.0)

# Relative tolerance for bracket orderings and known radii.
ORDER_TOL = 1e-8
# Relative tolerance for a scaled twin against its unscaled reference.
TWIN_TOL = 1e-8


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n):
    q, r = np.linalg.qr(_crandn(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _operator_problem(rng, n, kernel, known):
    """Weight A with eigenvalues spread over 1e-2..1e1 (kernel zeroed) and
    an A-adjointable T.  A known-radius T is S+ N S with N normal on
    range(A), so its compressed matrix is normal and w = max |eig(N)|."""
    r = n - kernel
    q = _unitary(rng, n)
    lam = np.concatenate(
        [np.logspace(-2.0, 1.0, r) * rng.uniform(0.9, 1.1, r), np.zeros(kernel)]
    )
    a = (q * lam) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    if known:
        d = rng.uniform(0.5, 1.5, r) * np.exp(2j * np.pi * rng.uniform(size=r))
        v = _unitary(rng, r)
        qr_ = q[:, :r]
        root = np.sqrt(lam[:r])
        inner = (v * d) @ v.conj().T
        t = qr_ @ ((inner * root[None, :]) / root[:, None]) @ qr_.conj().T
        w_known = float(np.max(np.abs(d)))
    else:
        x = _crandn(rng, n, n) / math.sqrt(n)
        x[:r, r:] = 0.0
        t = q @ x @ q.conj().T
        w_known = None
    return {"A": a, "T": t, "w_known": w_known}


def operator_problems(seed):
    """Regular problems in OPERATOR_LAYOUT order, then the scaled twins."""
    rng = np.random.default_rng([seed, 32])
    regular = [
        dict(_operator_problem(rng, OPERATOR_N, k, known), kind="regular")
        for k, known in OPERATOR_LAYOUT
    ]
    twins = []
    for base, (lo, hi) in TWINS:
        c = 10.0 ** rng.uniform(lo, hi)
        src = regular[base]
        twins.append(
            {"A": c * src["A"], "T": src["T"], "w_known": src["w_known"],
             "kind": "twin", "base": base, "scale": c}
        )
    return regular + twins


def roots_problems(seed):
    """The running example plus 24 polynomials, degrees evenly over 8..24.

    Each slot fixes the degree, a magnitude profile spanning 0..4 decades
    and, for every fourth slot, which coefficients are zero (half of those
    with a_0 = 0).  The seed jitters the magnitudes by up to 0.1 decade
    and draws every phase, and so the roots.  The weight search sees only
    magnitudes, so its cost and r_prk stay nearly the same across seeds.
    """
    rng = np.random.default_rng([seed, 824])
    out = [{"coeffs": np.array(RUNNING_EXAMPLE, dtype=np.complex128),
            "kind": "running-example"}]
    for k in range(24):
        deg = 8 + round(16 * k / 23)
        decades = k % 5
        spread = np.mod(0.6180339887 * np.arange(1, deg + 1) + 0.31 * k, 1.0)
        log_mag = decades * spread + rng.uniform(-0.1, 0.1, deg) * (decades > 0)
        coeffs = 10.0 ** log_mag * np.exp(2j * np.pi * rng.uniform(size=deg))
        kind = "dense"
        if k % 4 == 3:
            kind = "zeros"
            slot = np.random.default_rng(k)
            nz = max(1, deg // 4)
            coeffs[slot.choice(np.arange(1, deg - 1), size=nz, replace=False)] = 0.0
            if k % 8 == 3:
                coeffs[0] = 0.0
        out.append({"coeffs": coeffs, "kind": kind})
    return out


def _cmat(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(m)]


def _cvec(v):
    return [[float(z.real), float(z.imag)] for z in v]


def _cli_weight(rng, n, singular):
    q = _unitary(rng, n)
    lam = rng.uniform(0.2, 2.0, n)
    if singular:
        lam[-1] = 0.0
    a = (q * lam) @ q.conj().T
    return 0.5 * (a + a.conj().T), q


def _cli_operator(rng, q, n, singular):
    x = _crandn(rng, n, n) / math.sqrt(n)
    if singular:
        x[: n - 1, n - 1:] = 0.0
    return q @ x @ q.conj().T


# (command, format) mix of one cli-small pass, with the number of jobs of
# each.  Costs: zeros ~1 ms, radius/range ~5-10 ms, bounds and blockbounds
# ~20-60 ms; the counts keep p50 inside the middle group and the tail
# inside the top one.
CLI_MIX = (
    ("zeros", "json", 4), ("zeros", "table", 4),
    ("radius", "json", 4), ("radius", "table", 4),
    ("range", "json", 3), ("range", "table", 3), ("range", "svg", 4),
    ("bounds", "json", 4), ("bounds", "table", 4),
    ("blockbounds", "json", 4), ("blockbounds", "table", 2),
)


def cli_problems(seed):
    """One job per entry: the input document and the CLI arguments."""
    rng = np.random.default_rng([seed, 48])
    jobs = []
    for command, fmt, count in CLI_MIX:
        for i in range(count):
            if command == "zeros":
                deg = 3 + (i % 6)
                coeffs = _crandn(rng, deg) * 10.0 ** rng.uniform(-1, 1, deg)
                doc = {"coeffs": _cvec(coeffs),
                       "d": [float(v) for v in np.exp(rng.normal(0, 0.7, deg))]}
            elif command == "blockbounds":
                n = 4
                singular = i % 3 == 2
                a, q = _cli_weight(rng, n, singular)
                blocks = [_cli_operator(rng, q, n, singular) for _ in range(4)]
                if i % 2 == 1:
                    blocks[2] = blocks[3] = np.zeros((n, n))
                doc = {"A": _cmat(a)} if i % 4 else {"identity_dim": n}
                doc.update(zip(("T11", "T12", "T21", "T22"), map(_cmat, blocks)))
            else:
                n = 4 + (i % 5)
                singular = i % 3 == 2
                a, q = _cli_weight(rng, n, singular)
                doc = {"A": _cmat(a)} if i % 4 else {"identity_dim": n}
                if "identity_dim" in doc:
                    q, singular = np.eye(n), False
                doc["T"] = _cmat(_cli_operator(rng, q, n, singular))
            jobs.append({"command": command, "format": fmt, "doc": doc})
    return jobs


def make_problems(workload, seed):
    if workload == "operator-n32":
        return operator_problems(seed)
    if workload == "roots-deg8-24":
        return roots_problems(seed)
    if workload == "cli-small":
        return cli_problems(seed)
    raise ValueError(f"unknown workload {workload!r}")


def problem_digest(problems):
    """sha256 over the canonical bytes of a problem list."""
    h = hashlib.sha256()
    for p in problems:
        for key in sorted(p):
            value = p[key]
            h.update(key.encode())
            if isinstance(value, np.ndarray):
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- checkers


def _le(a, b, scale):
    return a <= b + ORDER_TOL * (1.0 + abs(scale))


def check_bracket(out):
    """Mismatches of a BoundReport's orderings around w_exact."""
    bad = []
    w = out["w_exact"]
    for name in ("sandwich_lower", "lower_21", "lower_22"):
        if not _le(out[name], w, w):
            bad.append(f"{name} {out[name]!r} > w_exact {w!r}")
    for name in ("upper_hphi", "sandwich_upper"):
        if not _le(w, out[name], w):
            bad.append(f"w_exact {w!r} > {name} {out[name]!r}")
    return bad


def check_operator(problem, out, reference=None):
    """Mismatches (a list of strings) for one operator-n32 result.

    ``out`` holds radius, crawford, the BoundReport fields and the
    estimate_range radius and crawford; ``reference`` is the unscaled
    result a scaled twin must match.
    """
    bad = check_bracket(out)
    w = out["w_exact"]
    for name in ("radius", "range_radius"):
        if abs(out[name] - w) > ORDER_TOL * (1.0 + w):
            bad.append(f"{name} {out[name]!r} differs from w_exact {w!r}")
    if abs(out["crawford"] - out["range_crawford"]) > ORDER_TOL * (1.0 + w):
        bad.append("crawford differs between a_crawford and estimate_range")
    if not 0.0 <= out["crawford"] <= w:
        bad.append(f"crawford {out['crawford']!r} outside [0, w]")
    known = problem["w_known"]
    if known is not None and abs(out["radius"] - known) > ORDER_TOL * known:
        bad.append(f"radius {out['radius']!r} != known {known!r}")
    if reference is not None:
        for key, ref in reference.items():
            if key != "phi_star" and abs(out[key] - ref) > TWIN_TOL * abs(ref):
                bad.append(f"twin {key} {out[key]!r} != reference {ref!r}")
    return bad


def check_root_bounds(out):
    """Mismatches of the four root bounds against the largest root modulus."""
    root = out["max_root_modulus"]
    return [f"{name} {out[name]!r} < max root modulus {root!r}"
            for name in ("r_c", "r_cm", "r_fk", "r_prk")
            if not root <= out[name] + 1e-9 * (1.0 + root)]


def check_roots(problem, out):
    bad = check_root_bounds(out)
    if out["r_prk"] != out["alpha_max"]:
        bad.append("r_prk is not max(alphas)")
    if problem["kind"] == "running-example" and not (
        out["r_c"] == 4.0 and out["r_prk"] <= 2.0834
    ):
        bad.append(f"running example r_c={out['r_c']!r} r_prk={out['r_prk']!r}")
    return bad


def check_cli(job, payload):
    """Semantic checks on a parsed JSON output; table and svg jobs are
    covered by the byte comparison across passes."""
    bad = []
    cmd = job["command"]
    if cmd == "bounds":
        bad += check_bracket(payload)
    elif cmd == "blockbounds":
        wb = payload["w_b_exact"]
        for name in ("th25", "th27", "th28", "lemma24"):
            v = payload[name]
            if v is not None and not _le(wb, v, wb):
                bad.append(f"{name} {v!r} < w_b_exact {wb!r}")
        if (payload["lemma24"] is None) != bool(
            np.any(np.asarray(job["doc"]["T21"])) or np.any(np.asarray(job["doc"]["T22"]))
        ):
            bad.append("lemma24 presence does not match the zero bottom row")
    elif cmd == "zeros":
        bad += check_root_bounds(payload)
    elif cmd in ("radius", "range"):
        if not 0.0 <= payload["crawford"] <= payload["radius"] + ORDER_TOL:
            bad.append("crawford outside [0, radius]")
    return bad


def bracket_rel_width(outs):
    vals = [(o["upper_hphi"] - max(o["lower_21"], o["lower_22"])) / o["w_exact"]
            for o in outs]
    return sum(vals) / len(vals)


def prk_ratio(outs):
    logs = [math.log(o["r_prk"] / o["max_root_modulus"]) for o in outs]
    return math.exp(sum(logs) / len(logs))
