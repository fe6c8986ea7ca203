"""Host-speed calibration, so that timings from different minutes compare.

On a shared virtual machine the speed of one core drifts by up to a
factor of two over tens of seconds, and every kind of work (interpreted
Python, small numpy calls, LAPACK) slows together.  The benchmark
therefore times a fixed piece of its own work next to the library calls
and reports each time as it would read on a host where that piece takes
``REFERENCE_S``::

    corrected = measured * REFERENCE_S / calibrate()

The piece mixes the two kinds of work semirad does: an interpreted
Python loop and a scipy Nelder-Mead search on a fixed 10-parameter
function.  It calls nothing in semirad and nothing the tracer wraps.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.optimize import minimize

# Seconds calibrate() takes on the reference host.  It only sets the scale
# of the corrected times; it is about 1.45 times what calibrate() took on
# the benchmark's 2-vCPU development VM in a quiet minute, which is close
# to that VM's typical speed.
REFERENCE_S = 0.020

_TARGET = np.exp(np.linspace(-1.0, 1.0, 10))
_OPTIONS = {"maxfev": 600, "xatol": 1e-14, "fatol": 1e-14}


def _objective(u):
    return float(np.max(np.abs(np.exp(u) - _TARGET)))


def calibrate():
    """Seconds one run of the fixed calibration work takes now."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(40000):
        table[i & 255] = acc
        acc += (i * 7) % 13
    minimize(_objective, np.zeros(10), method="Nelder-Mead", options=_OPTIONS)
    return perf_counter() - t0
