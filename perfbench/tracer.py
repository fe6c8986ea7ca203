"""Spans and counts for the traced run, installed from outside the library.

Every public function defined in a ``semirad`` module is rebound, in every
``semirad.*`` namespace that holds it, to a wrapper that records a span;
``numpy.linalg.{eigvalsh,eigh,svd,eig}`` are wrapped the same way and also
count matrices and computed work.  A span's self time is its duration
minus the time covered by its child spans.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

KERNELS = ("eigvalsh", "eigh", "svd", "eig")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per finished span, in the columns below.
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next = 0
        self._stack: list[list] = []  # [span id, name, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_stack_mb = 0.0
        self._active: dict[str, int] = defaultdict(int)
        self._block_ops: list[set] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name):
        sid = self._next
        self._next += 1
        self._stack.append([sid, name, 0.0])
        self._active[name] += 1
        return perf_counter()

    def _exit(self, name, t0, exc):
        t1 = perf_counter()
        sid, _, child = self._stack.pop()
        self._active[name] -= 1
        dur = t1 - t0
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if exc is not None:
            self.errors[(name, type(exc).__name__)] += 1
        self.span_id.append(sid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_name.append(self._nid(name))
        self.span_start.append(t0)
        self.span_end.append(t1)

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            t0 = tracer._enter(name)
            exc = None
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer._exit(name, t0, exc)
                if after is not None:
                    after()

        return wrapper

    # ------------------------------------------------------- layer hooks

    def _kernel_before(self, kind):
        def before(args):
            shape = np.shape(args[0])
            batch = math.prod(shape[:-2])
            m, k = shape[-2], shape[-1]
            self.counts[f"kernel.{kind}.matrices"] += batch
            self.counts["kernel.work_n3"] += batch * m * k * min(m, k)
            self.peak_stack_mb = max(self.peak_stack_mb, batch * m * k * 16 / 1e6)
            if len(shape) > 2:
                self.counts["arange.grid_scans"] += 1
            return args

        return before

    def _golden_before(self, args):
        f = args[0]

        def counted(x):
            self.counts["scan.golden.evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:])

    def _seminorm_before(self, args):
        if self._active["bounds.upper_bound_hphi"]:
            self.counts["bounds.upper_bound_hphi.seminorms"] += 1
        return args

    def _radius_before(self, args):
        if self._active["bounds.matrix_bound_report"]:
            self.counts["bounds.block_radius_calls"] += 1
            self._block_ops[-1].add(id(args[0]))
        return args

    def _block_before(self, args):
        self._block_ops.append(set())
        return args

    def _block_after(self):
        self.counts["bounds.block_distinct_ops"] += len(self._block_ops.pop())

    # ----------------------------------------------------- installation

    def install(self):
        """Rebind every public semirad function and the numpy.linalg kernels."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "semirad" or name.startswith("semirad.")}
        wrappers = {}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("semirad.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.split(".", 1)[1]
                    name = f"{layer}.{obj.__name__}"
                    before = after = None
                    if name == "scan.golden_section_min":
                        before = self._golden_before
                    elif name == "semihilbert.a_operator_seminorm":
                        before = self._seminorm_before
                    elif name == "arange.a_numerical_radius":
                        before = self._radius_before
                    elif name == "bounds.matrix_bound_report":
                        before, after = self._block_before, self._block_after
                    wrappers[obj] = self._wrap(name, obj, before, after)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        for kind in KERNELS:
            fn = getattr(np.linalg, kind)
            self._undo.append((np.linalg, kind, fn))
            setattr(np.linalg, kind,
                    self._wrap(f"kernel.{kind}", fn, self._kernel_before(kind)))
        return self

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # --------------------------------------------------------- results

    def layer_metrics(self):
        """Per-layer counts (exact) and times (ms) over everything traced."""
        c, tot, slf = self.calls, self.total_s, self.self_s
        ms = 1e3
        kernel = [f"kernel.{k}" for k in KERNELS]
        block_calls = self.counts["bounds.block_radius_calls"]
        return {
            "kernel.eigvalsh.calls": c["kernel.eigvalsh"],
            "kernel.eigvalsh.matrices": self.counts["kernel.eigvalsh.matrices"],
            "kernel.eigh.calls": c["kernel.eigh"],
            "kernel.eigh.matrices": self.counts["kernel.eigh.matrices"],
            "kernel.svd.calls": c["kernel.svd"],
            "kernel.eig.calls": c["kernel.eig"],
            "kernel.work_n3": self.counts["kernel.work_n3"],
            "kernel.peak_stack_mb": self.peak_stack_mb,
            "kernel.self_ms": sum(slf[k] for k in kernel) * ms,
            "linalg.hermitian_eig.calls": c["linalg.hermitian_eig"],
            "linalg.hermitian_eig.self_ms": slf["linalg.hermitian_eig"] * ms,
            "linalg.spectral_norm.calls": c["linalg.spectral_norm"],
            "linalg.spectral_norm.self_ms": slf["linalg.spectral_norm"] * ms,
            "linalg.numerical_rank.calls": c["linalg.numerical_rank"],
            "semihilbert.make_context.calls": c["semihilbert.make_context"],
            "semihilbert.make_context.ms": tot["semihilbert.make_context"] * ms,
            "semihilbert.make_operator.calls": c["semihilbert.make_operator"],
            "semihilbert.make_operator.ms": tot["semihilbert.make_operator"] * ms,
            "semihilbert.make_operator.not_adjointable":
                self.errors[("semihilbert.make_operator", "NotAAdjointable")],
            "semihilbert.re_im.calls": c["semihilbert.re_a"] + c["semihilbert.im_a"],
            "scan.golden.calls": c["scan.golden_section_min"],
            "scan.golden.evals": self.counts["scan.golden.evals"],
            "scan.golden.self_ms":
                (slf["scan.golden_section_min"] + slf["scan.golden_section_max"]) * ms,
            "arange.grid_scans": self.counts["arange.grid_scans"],
            "arange.a_numerical_radius.ms": tot["arange.a_numerical_radius"] * ms,
            "arange.a_crawford.ms": tot["arange.a_crawford"] * ms,
            "arange.estimate_range.ms": tot["arange.estimate_range"] * ms,
            "bounds.upper_bound_hphi.ms": tot["bounds.upper_bound_hphi"] * ms,
            "bounds.upper_bound_hphi.evals":
                self.counts["bounds.upper_bound_hphi.seminorms"] // 2,
            "bounds.bound_report.self_ms": slf["bounds.bound_report"] * ms,
            "bounds.matrix_bound_report.self_ms": slf["bounds.matrix_bound_report"] * ms,
            "bounds.block_radius_useful_ratio":
                self.counts["bounds.block_distinct_ops"] / block_calls if block_calls else 0.0,
            "polyzero.optimize_weights.ms": tot["polyzero.optimize_weights"] * ms,
            "polyzero.alphas.calls": c["polyzero.alphas"],
            "polyzero.max_root_modulus.ms": tot["polyzero.max_root_modulus"] * ms,
            "cli.main.self_ms":
                sum(v for k, v in slf.items() if k.startswith("cli.")) * ms,
            "trace.spans": len(self.span_id),
        }

    def write(self, path):
        """Spans as gzip TSV: a header naming the columns and the name ids."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names: " + "\t".join(self.names) + "\n")
            fh.write("# span_id\tparent_id\tname_id\tstart_s\tend_s\n")
            cols = (self.span_id, self.span_parent, self.span_name,
                    self.span_start, self.span_end)
            fh.writelines(
                f"{s}\t{p}\t{n}\t{a:.9f}\t{b:.9f}\n" for s, p, n, a, b in zip(*cols)
            )
