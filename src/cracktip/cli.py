"""Command-line front end: reproducible CSV/JSON emission of all results.

Numbers are always written with 17 significant digits and a ``.`` decimal
separator, so identical invocations produce byte-identical files.  JSON
records carry the tool version and, under ``config``, the options that were
set by flag or configuration file; options left at their defaults are not
listed.

Each command's options are declared once, in ``_COMMANDS``.  The parser,
the ``--config`` keys and the ``config`` record all come from there, and a
command without a CSV writer accepts only ``--format json``.  A
configuration file holds ``key=value`` lines (``#`` starts a comment); a key
is a long option of the invoked command without its dashes, with ``-`` or
``_`` (``n-max`` or ``n_max``).  Each value is converted and checked as the
flag's would be, a switch takes true/false, yes/no or 1/0, and flags given
on the command line win over the file.

Exit codes: 0 success, 2 usage error, 3 inadmissible crack configuration,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import numbers
import sys
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from . import __version__
from .errors import NumericsError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# what a JSON string escapes (RFC 8259): the quote, the backslash and U+0000-U+001F
_JSON_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{k: f"\\u{k:04x}" for k in range(32)}}


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
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        f = float(obj)
        if math.isnan(f):
            return '"nan"'
        if math.isinf(f):
            return '"inf"' if f > 0 else '"-inf"'
        return _fmt(f)
    return '"' + str(obj).translate(_JSON_ESCAPES) + '"'


def _csv(header: str, rows: Iterable[Sequence[float]]) -> Iterable[str]:
    """CSV lines, each number formatted only when the line is written."""
    yield header
    for row in rows:
        yield ",".join(map(_fmt, row))


class FigureDataset(NamedTuple):
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


_MAX_LAMBDA_POINTS = 100_000  # a default grid has 100 (l + 3.5) + 1, so up to l = 996


def _lambda_grid(lo: float, hi: float, step: float = 0.01) -> Tuple[float, ...]:
    if not step > 0.0:
        raise ValueError(f"lambda step must be positive, got {step!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"lambda range [{lo!r}, {hi!r}] is not a finite interval")
    steps = (hi - lo) / step
    if not steps < _MAX_LAMBDA_POINTS - 0.5:  # then round(steps) + 1 points are at most the cap
        raise ValueError(f"lambda grid [{lo!r}, {hi!r}] by {step!r} has more than "
                         f"{_MAX_LAMBDA_POINTS} points")
    grid = tuple(round(lo + k * step, 10) for k in range(round(steps) + 1))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"lambda step {step!r} is lost in the grid's rounding to 10 decimals")
    return grid


def _quartic_dataset(
    figure_id: int, l: int, n_values: Tuple[float, ...],
    lo: Optional[float] = None, hi: Optional[float] = None, step: Optional[float] = None,
) -> FigureDataset:
    """The quartic of index l, one row per n, on a Lambda grid that defaults
    to [-(l + 3), 0.5] in steps of 0.01."""
    from .characteristic import build_quartic
    grid = _lambda_grid(
        -(l + 3.0) if lo is None else lo,
        0.5 if hi is None else hi,
        0.01 if step is None else step,
    )
    quartics = (build_quartic(l, n) for n in n_values)
    rows = tuple(tuple(float(q(x)) for x in grid) for q in quartics)
    return FigureDataset(figure_id, l, n_values, grid, rows)


def emit_figure(figure_id: int) -> FigureDataset:
    """Dataset behind one of the reference characteristic-polynomial plots.

    Figure 2 is the l = 2 pair of curves: the large-n limit quartic and the
    n = 0 quadratic with roots -2, -3.  Figures 3-6 sweep the quartic over
    the n-list of the corresponding caption (l = 1, 3, 2, 4 respectively).
    """
    if figure_id == 2:
        from .characteristic import limit_polynomial
        grid = _lambda_grid(-6.0, 1.0)
        fl = limit_polynomial(2)
        lim_row = tuple(float(fl(x)) for x in grid)
        quad_row = tuple(float(x * x + 5.0 * x + 6.0) for x in grid)
        return FigureDataset(2, 2, (math.inf, 0.0), grid, (lim_row, quad_row))
    if figure_id not in _FIGURES:
        raise ValueError("figure id must be one of 2, 3, 4, 5, 6")
    return _quartic_dataset(figure_id, *_FIGURES[figure_id])


# ----------------------------------------------------------------------
# per-command drivers: each imports its layer when called and returns
# (JSON fields, CSV lines or None, exit code)

def _set(args, *names):
    """The named options that were set; the library's defaults stand for the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_pencil(args):
    from .pencil import Family, build_eigenfunction
    family = Family(args.family or "first")
    pair = build_eigenfunction(args.degree, family)
    fields = {
        "degree": pair.degree,
        "family": family.value,
        "lambda": pair.lam,
        "coefficients": list(pair.poly.coeffs),
    }
    return fields, _csv("k,coefficient", enumerate(pair.poly.coeffs)), EXIT_OK


def _cmd_char_scan(args):
    if args.figure is not None:
        grid = (args.l, args.n_list, args.lambda_min, args.lambda_max, args.lambda_step)
        if any(v is not None for v in grid):
            raise ValueError("--figure fixes its own grid; drop --l, --n-list and --lambda-*")
        ds = emit_figure(args.figure)
    elif args.l is None or args.n_list is None:
        raise ValueError("char-scan needs either --figure or both --l and --n-list")
    else:
        n_values = tuple(float(s) for s in args.n_list.split(","))
        ds = _quartic_dataset(
            0, args.l, n_values, args.lambda_min, args.lambda_max, args.lambda_step
        )
    fields = {
        "figure_id": ds.figure_id,
        "l": ds.l,
        "n_values": list(ds.n_values),
        "lambda": list(ds.lambda_grid),
        "phi": [list(row) for row in ds.values],
    }
    header = "lambda," + ",".join(f"phi_n={_fmt(n)}" for n in ds.n_values)
    rows = ((lam, *col) for lam, col in zip(ds.lambda_grid, zip(*ds.values)))
    return fields, _csv(header, rows), EXIT_OK


def _cmd_fold(args):
    from .continuation import find_fold
    return find_fold(args.l)._asdict(), None, EXIT_OK


def _cmd_branch(args):
    from .continuation import BranchFamily, continue_branch
    family = BranchFamily(args.family or "upper")
    n_max = args.n_max if args.n_max is not None else 1.0
    br = continue_branch(args.l, family, n_max)
    fields = {
        "l": br.l,
        "family": family.value,
        "reached_n_max": br.reached_n_max,
        "samples": [[n, lam] for n, lam in br.samples],
        "fold": None if br.fold is None else br.fold._asdict(),
    }
    return fields, _csv("n,lambda", br.samples), EXIT_OK


def _cmd_mu(args):
    from .pencil import Family
    from .perturbation import mu_via_ift, mu_via_quadrature
    family = Family(args.family or "first")
    method = args.method or "both"
    fields = {"l": args.l, "family": family.value}
    if method in {"ift", "both"}:
        fields["mu_ift"] = mu_via_ift(args.l, family)
    if method in {"quad", "both"}:
        mu, diag = mu_via_quadrature(args.l, family)
        fields["mu_quadrature"] = mu
        fields["quadrature_diagnostics"] = diag._asdict()
    return fields, None, EXIT_OK


def _cmd_shoot(args):
    from .shooting import shoot
    sol = shoot(args.l, args.n, args.lam, **_set(args, "z_max", "transversality_tol"))
    fields = {
        "l": sol.l,
        "n": sol.n,
        "lambda": sol.lam,
        "zeros": list(sol.zeros.zeros),
        "zero_derivatives": list(sol.zeros.derivative_magnitudes),
        "transversal": list(sol.zeros.transversal),
        "growth_exponent": sol.growth_exponent,
    }

    def rows():  # the samples are formed only for CSV
        yield from zip(sol.z, sol.psi, sol.dpsi)
    return fields, _csv("z,psi,dpsi", rows()), EXIT_OK


def _cmd_crack(args):
    from .crack import CrackSpec, check_linear, check_nonlinear
    spec = CrackSpec(alphas=tuple(float(s) for s in args.alphas.split(",")))
    opts = dict(l_max=args.l_max, consecutive=not args.any_subset, **_set(args, "tol"))
    n = args.n if args.n is not None else 0.0
    if n == 0.0:
        report = check_linear(spec, **opts)
    else:
        report = check_nonlinear(spec, n, **opts)
    fields = {
        "admissible": report.admissible,
        "decay_exponent": report.decay_exponent,
        "mode": report.mode,
        "experimental": report.experimental,
        "matches": [m._asdict() for m in report.matches],
        "notes": list(report.notes),
    }
    return fields, None, EXIT_OK if report.admissible else EXIT_INADMISSIBLE


# ----------------------------------------------------------------------
# the command table and argument handling

# name -> (driver, help, output formats with the default first, options);
# a command whose driver writes no CSV takes only json
_COMMANDS = {
    "pencil": (_cmd_pencil, "pencil eigenfunction coefficients", ("csv", "json"), (
        ("--degree", dict(type=int, required=True)),
        ("--family", dict(type=str.lower, choices=("first", "second"))),
    )),
    "char-scan": (_cmd_char_scan, "characteristic polynomial grids", ("csv", "json"), (
        ("--l", dict(type=int)),
        ("--n-list", dict(help="comma-separated n values")),
        ("--figure", dict(type=int, help="emit a reference figure dataset (2-6)")),
        ("--lambda-min", dict(type=float)),
        ("--lambda-max", dict(type=float)),
        ("--lambda-step", dict(type=float)),
    )),
    "fold": (_cmd_fold, "meeting point of one index: a fold, or the l = 1 crossing", ("json",), (
        ("--l", dict(type=int, required=True)),
    )),
    "branch": (_cmd_branch, "continue one eigenvalue branch in n", ("csv", "json"), (
        ("--l", dict(type=int, required=True)),
        ("--family", dict(type=str.lower, choices=("upper", "lower"))),
        ("--n-max", dict(type=float)),
    )),
    "mu": (_cmd_mu, "branch slope at n = 0 by both methods", ("json",), (
        ("--l", dict(type=int, required=True)),
        ("--family", dict(type=str.lower, choices=("first", "second"))),
        ("--method", dict(type=str.lower, choices=("ift", "quad", "both"))),
    )),
    "shoot": (_cmd_shoot, "integrate the tip eigenfunction ODE", ("csv", "json"), (
        ("--l", dict(type=int, required=True)),
        ("--n", dict(type=float, required=True)),
        ("--lambda", dict(dest="lam", type=float, required=True)),
        ("--z-max", dict(type=float)),
        ("--transversality-tol", dict(type=float)),
    )),
    "crack": (_cmd_crack, "admissibility of a slope configuration", ("json",), (
        ("--alphas", dict(required=True, help="comma-separated slopes")),
        ("--n", dict(type=float)),
        ("--l-max", dict(type=int)),
        ("--tol", dict(type=float)),
        ("--any-subset", dict(action="store_true", default=None)),
    )),
}

_SWITCH_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cracktip",
        description="Crack-tip pencil spectra, eigenvalue branches, and admissibility checks.",
    )
    parser.add_argument("--config", help="key=value file merged beneath explicit flags")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, formats, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name in argv:  # argparse matches a command name whole, so the invoked one is here
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
            p.add_argument("--format", choices=formats)
            p.add_argument("--output", help="output path (default: stdout)")
            p.set_defaults(_parser=p)
    return parser


def _config_value(action: argparse.Action, text: str):
    """``text`` converted and checked as the option's flag would be."""
    if action.nargs == 0:  # a switch
        if text.lower() not in _SWITCH_VALUES:
            raise ValueError(f"expected true or false, got {text!r}")
        return _SWITCH_VALUES[text.lower()]
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice {value!r} (choose from {', '.join(action.choices)})")
    return value


def _apply_config_file(args: argparse.Namespace, path: str) -> None:
    actions = args._parser._option_string_actions
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            action = actions.get("--" + key.replace("_", "-"))
            if action is None or action.dest == "help":
                raise ValueError(f"{path}:{line_no}: unknown configuration key {key!r}")
            try:
                value = _config_value(action, value)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
            if getattr(args, action.dest) is None:
                setattr(args, action.dest, value)


def _provenance(args: argparse.Namespace) -> Dict[str, object]:
    """Tool, command and the options that were set, in declaration order.
    Every option defaults to None, so a value that is not None was set."""
    dests = (a.dest for a in args._parser._actions if a.dest not in ("help", "format", "output"))
    return {
        "tool": "cracktip",
        "version": __version__,
        "command": args.command,
        "config": {d: getattr(args, d) for d in dests if getattr(args, d) is not None},
    }


def _is_value(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return "," in tok
    return True


def _join_list_values(argv: Sequence[str]) -> list:
    """Fuse ``--alphas -1,1`` into ``--alphas=-1,1`` and ``--lambda -1e6``
    into ``--lambda=-1e6``: argparse takes a token that begins with a minus
    sign for a flag unless it is a plain number without an exponent, and no
    flag contains a comma or reads as a number."""
    out: list = []
    for tok in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and tok.startswith("-") and _is_value(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = _join_list_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    driver, _, formats, _ = _COMMANDS[args.command]
    try:
        if args.config:
            _apply_config_file(args, args.config)
        args.format = args.format or formats[0]
        fields, csv_lines, code = driver(args)
        if args.format == "json":
            text = _json_dump({**_provenance(args), **fields}) + "\n"
        else:
            text = "".join(line + "\n" for line in csv_lines)
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())
