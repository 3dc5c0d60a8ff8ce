"""Command-line front end: reproducible CSV/JSON emission of all results.

Numbers are always written with 17 significant digits and a ``.`` decimal
separator, so identical invocations produce byte-identical files.  JSON
records carry the tool version and the fully resolved configuration.

Exit codes: 0 success, 2 usage error, 3 inadmissible crack configuration,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .characteristic import build_quartic, limit_polynomial
from .continuation import BranchFamily, continue_branch, double_root_l1, find_fold
from .crack import CrackSpec, check_linear, check_nonlinear
from .errors import NumericsError
from .pencil import Family, build_eigenfunction
from .perturbation import mu_via_ift, mu_via_quadrature
from .shooting import shoot

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _json_dump(obj, indent: int = 0) -> str:
    """Minimal deterministic JSON writer with 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {_json_dump(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return '"nan"'
        if math.isinf(f):
            return '"inf"' if f > 0 else '"-inf"'
        return _fmt(f)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, numeric knobs, output routing."""

    command: str
    options: Dict[str, object]
    output_format: str
    output_path: Optional[str]

    def provenance(self) -> Dict[str, object]:
        return {
            "tool": "cracktip",
            "version": __version__,
            "command": self.command,
            "config": dict(self.options),
        }


@dataclass(frozen=True)
class FigureDataset:
    """Rectangular (Lambda, Phi) grid reproducing one reference figure."""

    figure_id: int
    l: int
    n_values: Tuple[float, ...]
    lambda_grid: Tuple[float, ...]
    values: Tuple[Tuple[float, ...], ...]  # one row per n value


_FIGURES: Dict[int, Tuple[int, Tuple[float, ...]]] = {
    # figure id -> (l, n list from the figure caption)
    3: (1, tuple(round(0.1 * k, 10) for k in range(0, 21))),
    4: (3, tuple(round(0.01 * k, 10) for k in range(0, 11))),
    5: (2, (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)),
    6: (4, tuple(round(0.001 * k, 10) for k in range(0, 11))),
}


def _lambda_grid(lo: float, hi: float, step: float = 0.01) -> Tuple[float, ...]:
    count = int(round((hi - lo) / step)) + 1
    return tuple(round(lo + k * step, 10) for k in range(count))


def emit_figure(figure_id: int) -> FigureDataset:
    """Dataset behind one of the reference characteristic-polynomial plots.

    Figure 2 is the l = 2 pair of curves: the large-n limit quartic and the
    n = 0 quadratic with roots -2, -3.  Figures 3-6 sweep the quartic over
    the n-list of the corresponding caption (l = 1, 3, 2, 4 respectively).
    """
    if figure_id == 2:
        grid = _lambda_grid(-6.0, 1.0)
        fl = limit_polynomial(2)
        lim_row = tuple(float(fl(x)) for x in grid)
        quad_row = tuple(float(x * x + 5.0 * x + 6.0) for x in grid)
        return FigureDataset(
            figure_id=2,
            l=2,
            n_values=(math.inf, 0.0),
            lambda_grid=grid,
            values=(lim_row, quad_row),
        )
    if figure_id not in _FIGURES:
        raise ValueError("figure id must be one of 2, 3, 4, 5, 6")
    l, n_values = _FIGURES[figure_id]
    grid = _lambda_grid(-(l + 3.0), 0.5)
    rows = []
    for n in n_values:
        q = build_quartic(l, n)
        rows.append(tuple(float(q(x)) for x in grid))
    return FigureDataset(
        figure_id=figure_id, l=l, n_values=n_values, lambda_grid=grid, values=tuple(rows)
    )


def _figure_csv(ds: FigureDataset) -> str:
    def ntag(n: float) -> str:
        return "inf" if math.isinf(n) else _fmt(n)

    header = "lambda," + ",".join(f"phi_n={ntag(n)}" for n in ds.n_values)
    lines = [header]
    for j, lam in enumerate(ds.lambda_grid):
        row = [_fmt(lam)] + [_fmt(ds.values[i][j]) for i in range(len(ds.n_values))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# argument handling

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cracktip",
        description="Crack-tip pencil spectra, eigenvalue branches, and admissibility checks.",
    )
    parser.add_argument("--config", help="key=value file merged beneath explicit flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pencil", help="pencil eigenfunction coefficients")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--family", default=None)
    _common(p, default_format="csv")

    p = sub.add_parser("char-scan", help="characteristic polynomial grids")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--n-list", default=None, help="comma-separated n values")
    p.add_argument("--figure", type=int, default=None, help="emit a reference figure dataset (2-6)")
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--lambda-step", type=float, default=None)
    _common(p, default_format="csv")

    p = sub.add_parser("fold", help="saddle-node point of one index")
    p.add_argument("--l", type=int, required=True)
    _common(p, default_format="json")

    p = sub.add_parser("branch", help="continue one eigenvalue branch in n")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--family", default=None, help="upper|lower")
    p.add_argument("--n-max", type=float, default=None)
    p.add_argument("--initial-step", type=float, default=None)
    _common(p, default_format="csv")

    p = sub.add_parser("mu", help="branch slope at n = 0 by both methods")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--family", default=None, help="first|second")
    p.add_argument("--method", default=None, help="ift|quad|both")
    _common(p, default_format="json")

    p = sub.add_parser("shoot", help="integrate the tip eigenfunction ODE")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--z-max", type=float, default=None)
    p.add_argument("--transversality-tol", type=float, default=None)
    _common(p, default_format="csv")

    p = sub.add_parser("crack", help="admissibility of a slope configuration")
    p.add_argument("--alphas", required=True, help="comma-separated slopes")
    p.add_argument("--n", type=float, default=None)
    p.add_argument("--l-max", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--any-subset", action="store_true", default=None)
    _common(p, default_format="json")
    return parser


def _common(p: argparse.ArgumentParser, default_format: str) -> None:
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.set_defaults(_default_format=default_format)


_CONFIG_KEYS = {
    "family", "n_max", "initial_step", "method", "z_max", "n", "l_max",
    "tol", "transversality_tol", "format", "output", "n_list",
    "lambda_min", "lambda_max", "lambda_step", "figure", "degree", "l",
    "alphas", "any_subset",
}


def _apply_config_file(args: argparse.Namespace, path: str) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown configuration key {key!r}")
            if getattr(args, key, None) is None:
                cur_type = {"degree": int, "l": int, "l_max": int, "figure": int}.get(key)
                if cur_type is not None:
                    setattr(args, key, cur_type(value))
                elif key in {"n", "n_max", "tol", "transversality_tol", "z_max",
                             "initial_step", "lambda_min", "lambda_max", "lambda_step"}:
                    setattr(args, key, float(value))
                elif key == "any_subset":
                    setattr(args, key, value.lower() in {"1", "true", "yes"})
                else:
                    setattr(args, key, value)


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _resolved(args: argparse.Namespace, keys: Sequence[str]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            out[k] = v
    return out


# ----------------------------------------------------------------------
# per-command drivers

def _cmd_pencil(args) -> int:
    family = Family.parse(args.family or "first")
    pair = build_eigenfunction(args.degree, family)
    cfg = RunConfig("pencil", _resolved(args, ("degree", "family")), args.format, args.output)
    if args.format == "json":
        rec = cfg.provenance()
        rec.update(
            {
                "degree": pair.degree,
                "family": family.value,
                "lambda": pair.lam,
                "coefficients": list(pair.poly.coeffs),
            }
        )
        _write(_json_dump(rec) + "\n", args.output)
    else:
        lines = ["k,coefficient"]
        lines += [f"{k},{_fmt(c)}" for k, c in enumerate(pair.poly.coeffs)]
        _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_char_scan(args) -> int:
    if args.figure is not None:
        ds = emit_figure(args.figure)
    else:
        if args.l is None or args.n_list is None:
            raise ValueError("char-scan needs either --figure or both --l and --n-list")
        n_values = tuple(float(s) for s in args.n_list.split(","))
        lo = args.lambda_min if args.lambda_min is not None else -(args.l + 3.0)
        hi = args.lambda_max if args.lambda_max is not None else 0.5
        step = args.lambda_step if args.lambda_step is not None else 0.01
        grid = _lambda_grid(lo, hi, step)
        rows = []
        for n in n_values:
            q = build_quartic(args.l, n)
            rows.append(tuple(float(q(x)) for x in grid))
        ds = FigureDataset(
            figure_id=0, l=args.l, n_values=n_values, lambda_grid=grid, values=tuple(rows)
        )
    if args.format == "json":
        cfg = RunConfig(
            "char-scan",
            _resolved(args, ("l", "n_list", "figure", "lambda_min", "lambda_max", "lambda_step")),
            args.format,
            args.output,
        )
        rec = cfg.provenance()
        rec.update(
            {
                "figure_id": ds.figure_id,
                "l": ds.l,
                "n_values": list(ds.n_values),
                "lambda": list(ds.lambda_grid),
                "phi": [list(row) for row in ds.values],
            }
        )
        _write(_json_dump(rec) + "\n", args.output)
    else:
        _write(_figure_csv(ds), args.output)
    return EXIT_OK


def _fold_record(cfg: RunConfig, fp) -> Dict[str, object]:
    rec = cfg.provenance()
    rec.update(
        {
            "l": fp.l,
            "n_star": fp.n_star,
            "lambda_star": fp.lambda_star,
            "residual_phi": fp.residual_phi,
            "residual_dphi": fp.residual_dphi,
            "second_derivative": fp.second_derivative,
            "kind": fp.kind,
        }
    )
    return rec


def _cmd_fold(args) -> int:
    cfg = RunConfig("fold", _resolved(args, ("l",)), args.format, args.output)
    fp = double_root_l1() if args.l == 1 else find_fold(args.l)
    _write(_json_dump(_fold_record(cfg, fp)) + "\n", args.output)
    return EXIT_OK


def _cmd_branch(args) -> int:
    family = BranchFamily.parse(args.family or "upper")
    n_max = args.n_max if args.n_max is not None else 1.0
    step = args.initial_step if args.initial_step is not None else 1e-3
    br = continue_branch(args.l, family, n_max, initial_step=step)
    if args.format == "json":
        cfg = RunConfig("branch", _resolved(args, ("l", "family", "n_max", "initial_step")),
                        args.format, args.output)
        rec = cfg.provenance()
        rec.update(
            {
                "l": br.l,
                "family": family.value,
                "reached_n_max": br.reached_n_max,
                "samples": [[n, lam] for n, lam in br.samples],
                "fold": None if br.fold is None else _fold_record(cfg, br.fold),
            }
        )
        _write(_json_dump(rec) + "\n", args.output)
    else:
        lines = ["n,lambda"] + [f"{_fmt(n)},{_fmt(lam)}" for n, lam in br.samples]
        _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_mu(args) -> int:
    family = Family.parse(args.family or "first")
    method = (args.method or "both").lower()
    if method not in {"ift", "quad", "both"}:
        raise ValueError("--method must be ift, quad, or both")
    cfg = RunConfig("mu", _resolved(args, ("l", "family", "method")), args.format, args.output)
    rec = cfg.provenance()
    rec.update({"l": args.l, "family": family.value})
    if method in {"ift", "both"}:
        rec["mu_ift"] = mu_via_ift(args.l, family)
    if method in {"quad", "both"}:
        mu, diag = mu_via_quadrature(args.l, family)
        rec["mu_quadrature"] = mu
        rec["quadrature_diagnostics"] = {
            "windows": list(diag.windows),
            "mu_values": list(diag.mu_values),
            "tail_magnitudes": list(diag.tail_magnitudes),
            "divergent_tail": diag.divergent_tail,
            "converged": diag.converged,
        }
    _write(_json_dump(rec) + "\n", args.output)
    return EXIT_OK


def _cmd_shoot(args) -> int:
    z_max = args.z_max if args.z_max is not None else 100.0
    ttol = args.transversality_tol if args.transversality_tol is not None else 1e-6
    if ttol <= 0.0:
        raise ValueError("--transversality-tol must be positive")
    sol = shoot(args.l, args.n, args.lam, z_max=z_max, transversality_tol=ttol)
    if args.format == "json":
        cfg = RunConfig("shoot", _resolved(args, ("l", "n", "lam", "z_max")), args.format, args.output)
        rec = cfg.provenance()
        rec.update(
            {
                "l": sol.l,
                "n": sol.n,
                "lambda": sol.lam,
                "zeros": list(sol.zeros.zeros),
                "zero_derivatives": list(sol.zeros.derivative_magnitudes),
                "transversal": list(sol.zeros.transversal),
                "growth_exponent": sol.growth_exponent,
                "degeneracy_events": list(sol.degeneracy_events),
            }
        )
        _write(_json_dump(rec) + "\n", args.output)
    else:
        lines = ["z,psi,dpsi"]
        lines += [
            f"{_fmt(z)},{_fmt(p)},{_fmt(dp)}"
            for z, p, dp in zip(sol.z, sol.psi, sol.dpsi)
        ]
        _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_crack(args) -> int:
    alphas = tuple(float(s) for s in args.alphas.split(","))
    spec = CrackSpec(alphas=alphas)
    tol = args.tol if args.tol is not None else 1e-8
    if tol <= 0.0:
        raise ValueError("--tol must be positive")
    consecutive = not bool(args.any_subset)
    n = args.n if args.n is not None else 0.0
    if n == 0.0:
        report = check_linear(spec, l_max=args.l_max, tol=tol, consecutive=consecutive)
    else:
        report = check_nonlinear(spec, n, l_max=args.l_max, tol=tol, consecutive=consecutive)
    cfg = RunConfig("crack", _resolved(args, ("alphas", "n", "l_max", "tol", "any_subset")),
                    args.format, args.output)
    rec = cfg.provenance()
    rec.update(
        {
            "admissible": report.admissible,
            "decay_exponent": report.decay_exponent,
            "mode": report.mode,
            "experimental": report.experimental,
            "matches": [
                {
                    "l": m.l,
                    "ratio": list(m.ratio),
                    "zero_indices": list(m.zero_indices),
                    "max_residual": m.max_residual,
                    "zeros": list(m.zeros),
                }
                for m in report.matches
            ],
            "notes": list(report.notes),
        }
    )
    _write(_json_dump(rec) + "\n", args.output)
    return EXIT_OK if report.admissible else EXIT_INADMISSIBLE


_DRIVERS = {
    "pencil": _cmd_pencil,
    "char-scan": _cmd_char_scan,
    "fold": _cmd_fold,
    "branch": _cmd_branch,
    "mu": _cmd_mu,
    "shoot": _cmd_shoot,
    "crack": _cmd_crack,
}


def _join_list_values(argv: Sequence[str]) -> list:
    """Fuse ``--alphas -1,1`` into ``--alphas=-1,1`` so comma lists that
    begin with a minus sign are not mistaken for flags."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--alphas", "--n-list") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_list_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.config:
            _apply_config_file(args, args.config)
        if args.format is None:
            args.format = args._default_format
        return _DRIVERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())
