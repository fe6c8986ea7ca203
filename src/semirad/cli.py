"""Command-line front end.

Reads a JSON problem description, runs one of the analyses, and writes a
human table, machine JSON, or an SVG picture of the numerical range.

Input schema (complex scalars are two-element arrays [re, im], matrices
are row-major nested arrays of them):

  radius / bounds / range:  {"A": matrix}  or  {"identity_dim": n}, plus {"T": matrix}
  blockbounds:              weight as above, plus "T11", "T12", "T21", "T22"
  zeros:                    {"coeffs": [a0 .. a_{n-1}]}, optional {"d": [positive reals]}

Every input array ("A", "T", "T11" to "T22", "coeffs", "d") is read by
one validator, which walks it once, raises its first fault of shape or
type in row-major order naming the key and the row, and converts it with
one ``np.array`` call; one check rejects an unknown key, then a missing
required one.  Exit codes: 0 success, 1 numerical failure (also a
result that is not finite, which JSON cannot hold), 2 validation error:
every malformed input, with one ``error:`` line (an unknown,
missing or mistyped flag, a negative ``--mc-samples`` or ``--seed``,
``--format svg`` with a command other than ``range``, malformed JSON
with line and column, JSON nested too deeply to read, a JSON integer too
large for a float, a number that is not finite, an ``"identity_dim"``
other than the size of the operator, checked before the weight is built,
an input file that is not UTF-8, an ``--output`` path that cannot be
written).  Each warning of a job that succeeds, such as a rank-0
weight's, is one ``warning:`` line after the output.  The gap of the
range picture (``cells.RTOL``) and every tolerance (``linalg.HERM_TOL``,
``linalg.RANK_TOL``, ``scan.TOL``) are fixed; the output carries results
only, plus ``seed`` where the Monte-Carlo check of a radius job used it.  A range job gives the inner
polygon of support points (``boundary``) and the outer polygon of
support-line vertices (``outer``), at least 32 points each.  Output for a
fixed config and seed is byte-identical across runs at a fixed BLAS
thread count; files are written atomically (temp file + rename).

:func:`main` is the one entry point: the console script and ``python -m
semirad`` call it, and argparse is the one validator of its flags.  Each
runner returns the fields of its job (a report's ``vars``, in field
order); :func:`_plain` checks that each number is finite and turns an
array into a list (floats, or [re, im] pairs if complex) by ``tolist``,
and ``main`` writes ``"command"`` first.  ``main`` may be called many
times in one process, and each call pays only for its own job: it parses
with one parser, built on the first call.  Every call's output is
byte-identical to the same call made first in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from functools import cache

import numpy as np

from .arange import a_crawford, a_numerical_radius, estimate_range, monte_carlo_radius
from .bounds import bound_report, matrix_bound_report
from .errors import DimensionMismatch, NumericalFailure, ValidationError
from .polyzero import make_polynomial, zero_bound_report
from .semihilbert import (
    PositiveOperator,
    SemiOperator,
    a_operator_seminorm,
    make_context,
    make_operator,
)

FORMATS = ("table", "json", "svg")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read input file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # the JSON reader's depth limit
        raise ValidationError("malformed JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise ValidationError("input must be a JSON object")
    return data


def _keys(data: dict, required: tuple, optional: tuple = ()) -> None:
    """Reject a key outside *required* and *optional*, then a missing
    required key."""
    unknown = sorted(set(data).difference(required, optional))
    if unknown:
        raise ValidationError(f"unknown input key(s): {', '.join(unknown)}")
    missing = [f'"{k}"' for k in required if k not in data]
    if missing:
        raise ValidationError(f"missing required key(s): {', '.join(missing)}")


def _array(data: dict, key: str, rows: bool = False, pairs: bool = True) -> np.ndarray:
    """``data[key]``, a nonempty array of [re, im] pairs (complex128) or,
    without *pairs*, of numbers (float64); with *rows*, a matrix: a
    nonempty array of equal nonempty rows of them.

    The value is walked once and its first fault of shape or type in
    row-major order is raised, naming *key* and the row; ``type`` rejects
    bool, an int subclass.  Then one ``np.array`` call converts it, and its
    float64 pairs viewed as complex128 hold the bits of ``complex(re, im)``;
    an integer beyond the float range fails there, and a number that is
    not finite after it.
    """
    where = f'"{key}"'
    value = data[key]
    if type(value) is not list or not value:
        raise ValidationError(f"{where}: expected a nonempty array" + " of rows" * rows)
    for i, row in enumerate(value if rows else [value]):
        at = f"{where} row {i}" if rows else where
        if rows and (type(row) is not list or not row):
            raise ValidationError(f"{at} is not a nonempty array")
        if rows and len(row) != len(value[0]):
            raise ValidationError(f"{at} has ragged length")
        if pairs:
            for e in row:
                if (
                    type(e) is not list
                    or len(e) != 2
                    or type(e[0]) not in (int, float)
                    or type(e[1]) not in (int, float)
                ):
                    raise ValidationError(
                        f"{at}: complex entries must be two-element arrays [re, im]"
                    )
        elif not all(type(e) in (int, float) for e in row):
            raise ValidationError(f"{at}: entries must be numbers")
    try:
        a = np.array(value, dtype=np.float64)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValidationError(f"{where}: number too large for a float") from exc
    if not np.isfinite(a).all():  # NaN, Infinity or a float literal like 1e400
        raise ValidationError(f"{where}: numbers must be finite")
    return a.view(np.complex128)[..., 0] if pairs else a


def _context_from(data: dict, dim: int, where: str) -> PositiveOperator:
    """The weight of a job whose operator *where* has *dim* rows; an
    identity weight is checked against *dim* before it is built."""
    has_a = "A" in data
    has_dim = "identity_dim" in data
    if has_a == has_dim:
        raise ValidationError('exactly one of "A" or "identity_dim" is required')
    if has_dim:
        n = data["identity_dim"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError('"identity_dim" must be a positive integer')
        if n != dim:
            raise DimensionMismatch(
                f'"identity_dim" is {n}, but {where} has {dim} rows'
            )
        a = np.eye(n, dtype=np.complex128)
    else:
        a = _array(data, "A", rows=True)
    return make_context(a)


def _operator_from(data: dict) -> SemiOperator:
    """The weight and the operator "T" of a radius, bounds or range job."""
    _keys(data, ("T",), ("A", "identity_dim"))
    t = _array(data, "T", rows=True)
    return make_operator(_context_from(data, t.shape[0], '"T"'), t)


def _run_radius(args: argparse.Namespace, data: dict) -> dict:
    op = _operator_from(data)
    payload = {
        "radius": a_numerical_radius(op),
        "crawford": a_crawford(op),
        "seminorm": a_operator_seminorm(op),
    }
    if args.mc_samples > 0:
        payload["seed"] = args.seed
        payload["mc_radius"] = monte_carlo_radius(
            op, samples=args.mc_samples, seed=args.seed
        )
        payload["mc_samples"] = args.mc_samples
    return payload


def _plain(key: str, value):
    """The output field *key*: an array as a list, of floats if real and of
    [re, im] pairs if complex.  A number that is not finite, which JSON
    cannot hold, raises NumericalFailure."""
    if isinstance(value, np.ndarray):
        finite = np.isfinite(value).all()
        if value.dtype.kind == "c":
            value = np.stack((value.real, value.imag), -1)
        value = value.tolist()
    else:
        finite = not isinstance(value, float) or math.isfinite(value)
    if not finite:
        raise NumericalFailure(f"{key} is not finite: past the float range")
    return value


def _run_bounds(args: argparse.Namespace, data: dict) -> dict:
    return vars(bound_report(_operator_from(data)))


def _run_blockbounds(args: argparse.Namespace, data: dict) -> dict:
    block_keys = ("T11", "T12", "T21", "T22")
    _keys(data, block_keys, ("A", "identity_dim"))
    blocks = [_array(data, k, rows=True) for k in block_keys]
    ctx = _context_from(data, blocks[0].shape[0], '"T11"')
    ops = [make_operator(ctx, b) for b in blocks]
    return vars(matrix_bound_report(*ops))


def _run_zeros(args: argparse.Namespace, data: dict) -> dict:
    _keys(data, ("coeffs",), ("d",))
    p = make_polynomial(_array(data, "coeffs"))
    weights = _array(data, "d", pairs=False) if "d" in data else None
    return {"degree": p.degree, **vars(zero_bound_report(p, d=weights))}


def _run_range(args: argparse.Namespace, data: dict) -> dict:
    return vars(estimate_range(_operator_from(data)))


def _render_table(payload: dict) -> str:
    lines = []
    for key, value in payload.items():
        if key in ("boundary", "outer"):
            lines.append(f"{key:<18} {len(value)} points")
        elif isinstance(value, list):
            lines.append(f"{key:<18} " + " ".join(f"{v:.6g}" for v in value))
        elif isinstance(value, bool):
            lines.append(f"{key:<18} {str(value).lower()}")
        elif isinstance(value, float):
            lines.append(f"{key:<18} {value:.6g}")
        elif value is None:
            lines.append(f"{key:<18} n/a")
        else:
            lines.append(f"{key:<18} {value}")
    return "\n".join(lines) + "\n"


def _render_svg(payload: dict) -> str:
    size = 800
    margin = 60
    radius = payload["radius"]
    crawford = payload["crawford"]
    boundary, outer = payload["boundary"], payload["outer"]
    extent = max(
        [radius, crawford]
        + [abs(v) for point in boundary + outer for v in point]
        + [1e-12]
    )
    scale = (size / 2 - margin) / extent
    cx = cy = size / 2

    def px(x: float) -> float:
        return cx + x * scale

    def py(y: float) -> float:
        return cy - y * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{cy:.2f}" x2="{size - margin}" y2="{cy:.2f}" '
        'stroke="#999999" stroke-width="1"/>',
        f'<line x1="{cx:.2f}" y1="{margin}" x2="{cx:.2f}" y2="{size - margin}" '
        'stroke="#999999" stroke-width="1"/>',
    ]
    if boundary:
        # the range lies between the outer polygon, dashed, and the inner one
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in outer)
        parts.append(
            f'<polygon points="{points}" fill="none" stroke="#1f77b4" '
            'stroke-width="1" stroke-dasharray="4 3"/>'
        )
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in boundary)
        parts.append(
            f'<polygon points="{points}" fill="#9ecae1" fill-opacity="0.4" '
            'stroke="#1f77b4" stroke-width="1.5"/>'
        )
    if radius > 0:
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius * scale:.2f}" '
            'fill="none" stroke="#d62728" stroke-width="1" stroke-dasharray="6 4"/>'
        )
    if crawford > 0:
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{crawford * scale:.2f}" '
            'fill="none" stroke="#2ca02c" stroke-width="1" stroke-dasharray="2 4"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render(output_format: str, payload: dict) -> str:
    if output_format == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output_format == "svg":
        return _render_svg(payload)
    return _render_table(payload)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".semirad-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write output file: {exc}") from exc


_RUNNERS = {
    "radius": _run_radius,
    "bounds": _run_bounds,
    "blockbounds": _run_blockbounds,
    "zeros": _run_zeros,
    "range": _run_range,
}


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a ValidationError, which
    :func:`main` reports in one ``error:`` line with exit code 2, instead
    of printing the usage block and exiting."""

    def error(self, message):
        raise ValidationError(message)


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the command line, built once per process: parsing
    leaves no state in it, so one call of :func:`main` cannot change the
    next.  An unknown flag, a malformed value or a missing required flag
    raises ValidationError; ``--help`` prints the usage and exits 0."""
    parser = _Parser(
        prog="semirad",
        description=(
            "Weighted numerical radius toolkit: radii, bound brackets, "
            "block-matrix bounds, polynomial zero bounds, range plots."
        ),
    )
    parser.add_argument("--command", required=True, choices=_RUNNERS)
    parser.add_argument("--input", required=True, help="path to the JSON problem file")
    parser.add_argument("--format", default="table", choices=FORMATS)
    parser.add_argument("--mc-samples", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", default=None, help="output file (default: stdout)"
    )
    return parser


def main(argv=None) -> int:
    """Run one job from its command line, *argv* without the program name
    (default ``sys.argv[1:]``); returns the process exit code.  Each
    distinct warning message of a job that succeeds is printed once."""
    try:
        args = _parser().parse_args(argv)
        if args.mc_samples < 0:
            raise ValidationError("mc_samples must be nonnegative")
        if args.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if args.format == "svg" and args.command != "range":
            raise ValidationError("svg output is only available for the range command")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = _RUNNERS[args.command](args, _load_json(args.input))
        payload = {key: _plain(key, value) for key, value in result.items()}
        _emit(_render(args.format, {"command": args.command, **payload}), args.output)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
