"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Each test prints `[criterion N] PASS/FAIL: ...` through the capture-disabled
channel so the verdicts survive pytest's output capturing, then asserts.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import semirad as sr


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num}] {verdict}: {detail}")

    return _report


def _random_strict_context(rng, n, floor=0.05):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return sr.make_context(g @ g.conj().T + floor * np.eye(n))


def _random_operator(rng, ctx):
    n = ctx.dim
    return sr.make_operator(
        ctx, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    )


def test_criterion_1_polynomial_running_example(report):
    t0 = time.perf_counter()
    p = sr.make_polynomial([0.1, 0.01, 3.0, 0.0, 0.0])
    r_c = sr.bound_cauchy(p)
    r_cm = sr.bound_carmichael_mason(p)
    r_fk = sr.bound_fujii_kubo(p)
    hand = sr.bound_prk(p, [2.0, 1.0, 2.0, 1.0 / 3.0, 1.0])
    _, opt = sr.optimize_weights(p, restarts=8, iters=2000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (
        r_c == 4.0
        and abs(r_cm - 3.1638) <= 5e-4
        and abs(r_fk - 2.3668) <= 5e-4
        and abs(hand - 2.0833) <= 5e-4
        and opt <= 2.0834
        and elapsed < 5.0
    )
    report(
        1,
        ok,
        f"r_c={r_c:g} r_cm={r_cm:.5f} r_fk={r_fk:.5f} "
        f"hand={hand:.5f} optimized={opt:.5f} time={elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_diagonal_lower_bounds(report):
    op = sr.make_operator(sr.identity_context(2), np.diag([1 + 1j, 2 + 1j]))
    l21 = sr.lower_bound_21(op)
    l22 = sr.lower_bound_22(op)
    re_norm = sr.a_operator_seminorm(sr.re_a(op))
    im_norm = sr.a_operator_seminorm(sr.im_a(op))
    w = sr.a_numerical_radius(op)
    ok = (
        abs(l21 - np.sqrt(5)) <= 1e-8
        and abs(l22 - np.sqrt(2)) <= 1e-8
        and abs(re_norm - 2.0) <= 1e-8
        and abs(im_norm - 1.0) <= 1e-8
        and abs(w - np.sqrt(5)) <= 1e-6
    )
    report(
        2,
        ok,
        f"lower21={l21:.9f} lower22={l22:.9f} "
        f"re={re_norm:g} im={im_norm:g} w={w:.9f}",
    )
    assert ok


def test_criterion_3_half_norm_equality(report):
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        ctx = _random_strict_context(rng, n)
        t12 = _random_operator(rng, ctx)
        zero = sr.make_operator(ctx, np.zeros((n, n)))
        big = sr.assemble_blocks(zero, t12, zero, zero)
        gap = abs(
            sr.a_numerical_radius(big) - 0.5 * sr.a_operator_seminorm(t12)
        )
        worst = max(worst, gap)
    ok = worst <= 1e-6
    report(3, ok, f"50 instances, worst |w_B - norm/2| = {worst:.2e}")
    assert ok


def test_criterion_4_block_anchor_values(report):
    ctx = sr.identity_context(2)
    eye = sr.make_operator(ctx, np.eye(2))
    zero = sr.make_operator(ctx, np.zeros((2, 2)))
    neg2 = sr.make_operator(ctx, -2 * np.eye(2))
    v25 = sr.block_bound_th25(zero, eye, neg2, zero)
    v27 = sr.block_bound_th27(eye, eye, eye, zero, t=0.5)
    golden = (1 + np.sqrt(5)) / 2
    cap = (2 + np.sqrt(2)) / 2
    ok = abs(v25 - 1.5) <= 1e-10 and abs(v27 - golden) <= 1e-10 and v27 < cap
    report(4, ok, f"th25={v25:.12f} th27(1/2)={v27:.12f} cap={cap:.12f}")
    assert ok


def test_criterion_5_bracket_suite(report):
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    bracket_bad = 0
    block_bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        ctx = _random_strict_context(rng, n)
        op = _random_operator(rng, ctx)
        w = sr.a_numerical_radius(op)
        nrm = sr.a_operator_seminorm(op)
        lower = max(
            sr.lower_bound_21(op), sr.lower_bound_22(op), 0.5 * nrm
        )
        upper_val, _ = sr.upper_bound_hphi(op)
        upper = min(upper_val, nrm)
        if not (lower - 1e-6 <= w <= upper + 1e-6):
            bracket_bad += 1

        blocks = tuple(_random_operator(rng, ctx) for _ in range(4))
        wb = sr.a_numerical_radius(sr.assemble_blocks(*blocks))
        zero = sr.make_operator(ctx, np.zeros((n, n)))
        tri = sr.a_numerical_radius(
            sr.assemble_blocks(blocks[0], blocks[1], zero, zero)
        )
        bounds = (
            sr.block_bound_lemma24(blocks[0], blocks[1]) - tri,
            sr.block_bound_th25(*blocks) - wb,
            sr.block_bound_th27(*blocks, t=0.5) - wb,
            sr.block_bound_th28(*blocks, t=0.5) - wb,
        )
        if min(bounds) < -1e-6:
            block_bad += 1
    elapsed = time.perf_counter() - t0
    ok = bracket_bad == 0 and block_bad == 0 and elapsed < 60.0
    report(
        5,
        ok,
        f"200 instances, bracket violations={bracket_bad} "
        f"block violations={block_bad} time={elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_oracle_equivalence(report):
    rng = np.random.default_rng(606)
    worst_under = 0.0
    worst_over = 0.0
    worst_identity = 0.0
    for k in range(50):
        n = int(rng.integers(2, 7))
        ctx = _random_strict_context(rng, n)
        op = _random_operator(rng, ctx)
        w = sr.a_numerical_radius(op)
        mc = sr.monte_carlo_radius(op, samples=100_000, seed=k)
        worst_under = max(worst_under, w - mc)
        worst_over = max(worst_over, mc - w)
        worst_identity = max(
            worst_identity, abs(sr.w_theta_identity_check(op) - w)
        )
    ok = worst_under <= 5e-3 and worst_over <= 1e-8 and worst_identity <= 1e-6
    report(
        6,
        ok,
        f"50 instances, mc deficit={worst_under:.2e} "
        f"mc excess={worst_over:.2e} identity gap={worst_identity:.2e}",
    )
    assert ok


def test_criterion_7_spectral_inclusion(report):
    rng = np.random.default_rng(707)
    worst = 0.0
    failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        ctx = _random_strict_context(rng, n)
        op = _random_operator(rng, ctx)
        rep = sr.spectral_inclusion_check(op)
        worst = max(worst, rep.max_violation / (1 + rep.radius))
        if not rep.passed:
            failures += 1
    rejected = False
    singular = sr.make_operator(
        sr.make_context(np.diag([1.0, 0.0])), np.diag([1.0, 3.0])
    )
    try:
        sr.spectral_inclusion_check(singular)
    except sr.NotStrictlyPositive:
        rejected = True
    ok = failures == 0 and worst <= 1e-6 and rejected
    report(
        7,
        ok,
        f"100 instances, failures={failures} worst rel violation={worst:.2e} "
        f"singular weight rejected={rejected}",
    )
    assert ok


def test_criterion_8_zero_bound_soundness(report):
    rng = np.random.default_rng(808)
    worst = -np.inf
    for k in range(500):
        n = int(rng.integers(1, 13))
        coeffs = rng.uniform(-7, 7, size=n) + 1j * rng.uniform(-7, 7, size=n)
        p = sr.make_polynomial(coeffs)
        r = sr.max_root_modulus(p)
        _, prk = sr.optimize_weights(p, restarts=3, iters=300, seed=k)
        margin = r - min(
            sr.bound_cauchy(p),
            sr.bound_carmichael_mason(p),
            sr.bound_fujii_kubo(p),
            prk,
        )
        worst = max(worst, margin)
    ok = worst <= 1e-8
    report(8, ok, f"500 polynomials, worst root excess over a bound={worst:.2e}")
    assert ok


def test_criterion_9_cli_determinism(report, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {"coeffs": [[0.1, 0], [0.01, 0], [3, 0], [0, 0], [0, 0]]}
        )
    )
    args = [
        sys.executable, "-m", "semirad",
        "--command", "zeros", "--input", str(job),
        "--format", "json", "--restarts", "4", "--seed", "11",
    ]
    # the child runs the semirad under test, whether installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(sr.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    first = subprocess.run(args, capture_output=True, env=env)
    second = subprocess.run(args, capture_output=True, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    report(
        9,
        ok,
        f"two runs, {len(first.stdout)} bytes each, "
        f"identical={first.stdout == second.stdout}",
    )
    assert ok
