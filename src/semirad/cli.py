"""Command-line front end.

Reads a JSON problem description, runs one of the analyses, and writes a
human table, machine JSON, or an SVG picture of the numerical range.

Input schema (complex scalars are two-element arrays [re, im], matrices
are row-major nested arrays of them):

  radius / bounds / range:  {"A": matrix}  or  {"identity_dim": n}, plus {"T": matrix}
  blockbounds:              weight as above, plus "T11", "T12", "T21", "T22"
  zeros:                    {"coeffs": [a0 .. a_{n-1}]}, optional {"d": [positive reals]}

Unknown keys are rejected.  Exit codes: 0 success, 1 numerical failure,
2 validation error: every malformed input, with one ``error:`` line
(malformed JSON with line and column, a negative ``--seed``, a JSON
integer too large for a float, an ``"identity_dim"`` other than the size
of the operator, checked before the weight is built, an input file that
is not UTF-8, an ``--output`` path that cannot be written).  The gap of
the range picture (``arange.RTOL``) and every tolerance
(``linalg.HERM_TOL``, ``linalg.RANK_TOL``, ``scan.TOL``) are fixed; the
output carries results only, plus ``seed`` where the Monte-Carlo check of
a radius job used it.  A range job gives the inner polygon of support
points (``boundary``) and the outer polygon of support-line vertices
(``outer``), at least 32 points each.
Output for a fixed config and seed is byte-identical across runs at a
fixed BLAS thread count; files are written atomically (temp file +
rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

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

COMMANDS = ("radius", "bounds", "blockbounds", "zeros", "range")
FORMATS = ("table", "json", "svg")


@dataclass(frozen=True)
class JobConfig:
    """One CLI invocation's worth of settings."""

    command: str
    input_path: str
    output_format: str = "table"
    mc_samples: int = 0
    seed: int = 0
    output_path: str | None = None


def _validate_config(cfg: JobConfig) -> None:
    if cfg.command not in COMMANDS:
        raise ValidationError(f"unknown command {cfg.command!r}")
    if cfg.output_format not in FORMATS:
        raise ValidationError(f"unknown format {cfg.output_format!r}")
    if cfg.mc_samples < 0:
        raise ValidationError("mc_samples must be nonnegative")
    if cfg.seed < 0:
        raise ValidationError("seed must be nonnegative")
    if cfg.output_format == "svg" and cfg.command != "range":
        raise ValidationError("svg output is only available for the range command")


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
    if not isinstance(data, dict):
        raise ValidationError("input must be a JSON object")
    return data


def _check_keys(data: dict, allowed: set[str]) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValidationError(f"unknown input key(s): {', '.join(unknown)}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(v, where: str) -> float:
    try:
        return float(v)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValidationError(f"{where}: number too large for a float") from exc


def _parse_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not all(_is_number(part) for part in entry)
    ):
        raise ValidationError(
            f"{where}: complex entries must be two-element arrays [re, im]"
        )
    return complex(_float(entry[0], where), _float(entry[1], where))


def _parse_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where}: expected a nonempty array of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ValidationError(f"{where}: row {i} is not a nonempty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"{where}: row {i} has ragged length")
        rows.append([_parse_complex(e, f"{where}[{i}]") for e in row])
    return np.array(rows, dtype=np.complex128)


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
        a = _parse_matrix(data["A"], '"A"')
    return make_context(a)


def _operator_from(data: dict) -> SemiOperator:
    """The weight and the operator "T" of a radius, bounds or range job."""
    _check_keys(data, {"A", "identity_dim", "T"})
    if "T" not in data:
        raise ValidationError('missing required key "T"')
    t = _parse_matrix(data["T"], '"T"')
    return make_operator(_context_from(data, t.shape[0], '"T"'), t)


def _run_radius(cfg: JobConfig, data: dict) -> dict:
    op = _operator_from(data)
    payload = {
        "command": "radius",
        "radius": a_numerical_radius(op),
        "crawford": a_crawford(op),
        "seminorm": a_operator_seminorm(op),
    }
    if cfg.mc_samples > 0:
        payload["seed"] = cfg.seed
        payload["mc_radius"] = monte_carlo_radius(
            op, samples=cfg.mc_samples, seed=cfg.seed
        )
        payload["mc_samples"] = cfg.mc_samples
    return payload


def _run_bounds(cfg: JobConfig, data: dict) -> dict:
    op = _operator_from(data)
    return {"command": "bounds", **asdict(bound_report(op))}


def _run_blockbounds(cfg: JobConfig, data: dict) -> dict:
    block_keys = ("T11", "T12", "T21", "T22")
    _check_keys(data, {"A", "identity_dim", *block_keys})
    missing = [k for k in block_keys if k not in data]
    if missing:
        raise ValidationError(f"missing required key(s): {', '.join(missing)}")
    blocks = [_parse_matrix(data[k], f'"{k}"') for k in block_keys]
    ctx = _context_from(data, blocks[0].shape[0], '"T11"')
    ops = [make_operator(ctx, b) for b in blocks]
    return {"command": "blockbounds", **asdict(matrix_bound_report(*ops))}


def _run_zeros(cfg: JobConfig, data: dict) -> dict:
    _check_keys(data, {"coeffs", "d"})
    if "coeffs" not in data:
        raise ValidationError('missing required key "coeffs"')
    raw = data["coeffs"]
    if not isinstance(raw, list) or not raw:
        raise ValidationError('"coeffs" must be a nonempty array')
    coeffs = [_parse_complex(e, f'"coeffs"[{i}]') for i, e in enumerate(raw)]
    p = make_polynomial(coeffs)
    weights = None
    if "d" in data:
        if not isinstance(data["d"], list) or not all(
            _is_number(v) for v in data["d"]
        ):
            raise ValidationError('"d" must be an array of numbers')
        weights = [_float(v, '"d"') for v in data["d"]]
    rep = zero_bound_report(p, d=weights)
    return {
        "command": "zeros",
        "degree": p.degree,
        **asdict(rep),
        "d_star": [float(v) for v in rep.d_star],
        "alphas": [float(v) for v in rep.alphas],
    }


def _run_range(cfg: JobConfig, data: dict) -> dict:
    op = _operator_from(data)
    est = estimate_range(op)
    return {
        "command": "range",
        **asdict(est),
        "boundary": [[float(z.real), float(z.imag)] for z in est.boundary],
        "outer": [[float(z.real), float(z.imag)] for z in est.outer],
    }


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
    if extent <= 0:
        extent = 1.0
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


def _render(cfg: JobConfig, payload: dict) -> str:
    if cfg.output_format == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.output_format == "svg":
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


def run(cfg: JobConfig) -> int:
    """Execute one job; returns the process exit code."""
    try:
        _validate_config(cfg)
        data = _load_json(cfg.input_path)
        payload = _RUNNERS[cfg.command](cfg, data)
        _emit(_render(cfg, payload), cfg.output_path)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semirad",
        description=(
            "Weighted numerical radius toolkit: radii, bound brackets, "
            "block-matrix bounds, polynomial zero bounds, range plots."
        ),
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--input", required=True, help="path to the JSON problem file")
    parser.add_argument("--format", default="table", choices=FORMATS)
    parser.add_argument("--mc-samples", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", default=None, help="output file (default: stdout)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(
        JobConfig(
            command=args.command,
            input_path=args.input,
            output_format=args.format,
            mc_samples=args.mc_samples,
            seed=args.seed,
            output_path=args.output,
        )
    )


if __name__ == "__main__":
    sys.exit(main())
