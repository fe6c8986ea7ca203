"""Shared random-instance generators and a recorder of batched solves.

Every test seeds its own np.random.default_rng, so the suite is fully
deterministic; the generators only shape the draws.
"""

import numpy as np
import pytest

import semirad as sr
from semirad import arange


def random_strict_context(rng, n, floor=0.05):
    """Random strictly positive weight G G* + floor*I."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return sr.make_context(g @ g.conj().T + floor * np.eye(n))


def random_operator(rng, ctx):
    """Random dense operator; valid for any strictly positive context."""
    n = ctx.dim
    t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return sr.make_operator(ctx, t)


def singular_pair(rng, n, r, leak=0.0):
    """A rank-r weight together with an operator compatible with it.

    The weight's kernel is spanned by the trailing eigenvectors of a
    random unitary; the operator maps that kernel into itself (block
    upper-right zero in the eigenbasis), which is exactly the condition
    for the adjointability range test to pass.  A nonzero *leak* fills
    that block with *leak* times the norm of the rest instead.
    """
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    lam = np.concatenate([rng.uniform(0.2, 2.0, size=r), np.zeros(n - r)])
    a = (q * lam) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    blk = x.copy()
    blk[:r, r:] = 0.0
    if leak:
        y = rng.normal(size=(r, n - r)) + 1j * rng.normal(size=(r, n - r))
        blk[:r, r:] = leak * np.linalg.norm(blk, 2) * y / np.linalg.norm(y, 2)
    t = q @ blk @ q.conj().T
    return sr.make_context(a), t


def separated(c, theta, w):
    """Mask of the angles *theta* whose support point of C is well posed:
    the top eigenvalue of Re(exp(-i theta) C) lies at least 1e-3 * w clear
    of the next one."""
    if c.shape[0] == 1:
        return np.ones(len(theta), dtype=bool)
    lam = np.linalg.eigvalsh(arange._rotated(c, theta))
    return lam[:, -1] - lam[:, -2] >= 1e-3 * w


def record_angles(monkeypatch):
    """(cells, base angles) of every round of the support-line cells from
    now on; the base angles are integers, in units of arange._UNIT."""
    rounds = []
    evaluate = arange._Cells.evaluate

    def recorded(self, base):
        rounds.append((self, base.copy()))
        return evaluate(self, base)

    monkeypatch.setattr(arange._Cells, "evaluate", recorded)
    return rounds


def record_batched_solves(monkeypatch):
    """(kind, shape) of every stacked eigvalsh/eigh/svd/solve call from now
    on; the shape is that of the stack of matrices."""
    calls = []
    for name in ("eigvalsh", "eigh", "svd", "solve"):

        def counted(m, *args, _fn=getattr(np.linalg, name), _name=name, **kw):
            if np.ndim(m) > 2:
                calls.append((_name, np.shape(m)))
            return _fn(m, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def dense_min(objective, lo, hi, n=10**5):
    """Least value of *objective* (a function of an array of angles) on n
    angles over [lo, hi], zoomed twice into the cells next to the best one,
    so the reference resolves the argmin to about 1e-14 * (hi - lo)."""
    for _ in range(3):
        angles = np.linspace(lo, hi, n)
        values = np.concatenate(
            [objective(angles[i : i + 10**4]) for i in range(0, n, 10**4)]
        )
        best = int(np.argmin(values))
        step = angles[1] - angles[0]
        lo, hi = angles[best] - step, angles[best] + step
    return float(values[best])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
