import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cracktip.cli import (
    EXIT_INADMISSIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _COMMANDS,
    _build_parser,
    _join_list_values,
    _json_dump,
    emit_figure,
    run,
)


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pencil_csv(capsys):
    code, out, _ = run_capture(["pencil", "--degree", "4", "--family", "first"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k,coefficient"
    coeffs = [float(line.split(",")[1]) for line in lines[1:]]
    assert coeffs == [1.0, 0.0, -6.0, 0.0, 1.0]


def test_pencil_json_provenance(capsys):
    code, out, _ = run_capture(
        ["pencil", "--degree", "2", "--family", "second", "--format", "json"], capsys
    )
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["tool"] == "cracktip"
    assert rec["version"]
    assert rec["lambda"] == -3.0
    assert rec["coefficients"] == [-1.0 / 3.0, 0.0, 1.0]


def test_fold_json(capsys):
    code, out, _ = run_capture(["fold", "--l", "2"], capsys)
    assert code == EXIT_OK
    rec = json.loads(out)
    assert 0.11912 < rec["n_star"] < 0.11913
    assert rec["kind"] == "fold"
    assert rec["config"] == {"l": 2}


def test_fold_l1_is_crossing(capsys):
    code, out, _ = run_capture(["fold", "--l", "1"], capsys)
    rec = json.loads(out)
    assert code == EXIT_OK
    assert rec["kind"] == "crossing"
    assert rec["n_star"] == pytest.approx(0.5, abs=1e-10)


def test_branch_csv_header_and_seed(capsys):
    code, out, _ = run_capture(
        ["branch", "--l", "2", "--family", "upper", "--n-max", "0.05"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,lambda"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == -2.0
    assert float(lines[-1].split(",")[0]) == pytest.approx(0.05)


def test_char_scan_matches_caption_list(capsys):
    code, out, _ = run_capture(
        ["char-scan", "--l", "2", "--n-list", "0,0.1,0.2,0.3,0.4,0.5"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "lambda"
    assert header[1:] == [f"phi_n={v}" for v in ("0", "0.10000000000000001", "0.20000000000000001",
                                                 "0.29999999999999999", "0.40000000000000002", "0.5")]
    widths = {len(line.split(",")) for line in lines[1:]}
    assert widths == {7}


def test_shoot_csv(capsys):
    code, out, _ = run_capture(
        ["shoot", "--l", "2", "--n", "0", "--lambda", "-2", "--z-max", "5"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "z,psi,dpsi"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    mid = rows[np.abs(rows[:, 0]).argmin()]
    assert mid[1] == pytest.approx(1.0)


def test_shoot_json_summary(capsys):
    code, out, _ = run_capture(
        ["shoot", "--l", "2", "--n", "0", "--lambda", "-2", "--z-max", "10", "--format", "json"],
        capsys,
    )
    rec = json.loads(out)
    assert code == EXIT_OK
    assert rec["zeros"] == pytest.approx([-1.0, 1.0], abs=1e-9)
    assert all(rec["transversal"])


def test_mu_json_both_methods(capsys):
    code, out, _ = run_capture(["mu", "--l", "2", "--family", "second"], capsys)
    rec = json.loads(out)
    assert code == EXIT_OK
    assert rec["mu_ift"] == pytest.approx(2.4, rel=1e-12)
    assert rec["quadrature_diagnostics"]["divergent_tail"] is False
    assert rec["mu_quadrature"] == pytest.approx(0.5, abs=1e-3)


def test_mu_first_family_divergent_flag(capsys):
    code, out, _ = run_capture(["mu", "--l", "2", "--family", "first", "--method", "quad"], capsys)
    rec = json.loads(out)
    assert code == EXIT_OK
    assert rec["quadrature_diagnostics"]["divergent_tail"] is True


def test_crack_exit_codes(capsys):
    code, out, _ = run_capture(["crack", "--alphas", "-1,1"], capsys)
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["admissible"] is True
    assert rec["decay_exponent"] == 2

    code, out, _ = run_capture(["crack", "--alphas", "-3,3", "--l-max", "2"], capsys)
    assert code == EXIT_INADMISSIBLE
    assert json.loads(out)["admissible"] is False

    code, _, err = run_capture(
        ["crack", "--alphas", "-1,1", "--n", "0.2", "--l-max", "2"], capsys
    )
    assert code == EXIT_NUMERICAL
    assert "no real eigenvalue" in err


def test_shoot_transversality_flag(capsys):
    code, out, _ = run_capture(
        ["shoot", "--l", "2", "--n", "0", "--lambda", "-2", "--z-max", "10",
         "--transversality-tol", "1e-3", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    assert all(json.loads(out)["transversal"])
    code, _, err = run_capture(
        ["shoot", "--l", "2", "--n", "0", "--lambda", "-2", "--transversality-tol", "-1"],
        capsys,
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "head,flag,value,tail",
    [
        (["crack"], "--alphas", "-1e6", []),
        (["crack"], "--alphas", "-2.5E-1", ["--n", "0.01", "--l-max", "2"]),
        (["shoot", "--l", "2", "--n", "0"], "--lambda", "-1e6", ["--z-max", "1e-5"]),
    ],
)
def test_negative_exponent_values_parse_as_with_equals(head, flag, value, tail, capsys):
    # argparse reads -1e6 as a flag; a value that parses as a float is
    # fused onto the option before it, as a comma-separated list is
    spaced = run_capture([*head, flag, value, *tail, "--format", "json"], capsys)
    joined = run_capture([*head, f"{flag}={value}", *tail, "--format", "json"], capsys)
    assert spaced == joined
    assert spaced[0] == EXIT_OK


def test_mu_degenerate_quadrature_is_numerical_failure(capsys):
    # the degree-one seed annihilates the slope coefficient identically
    code, _, err = run_capture(["mu", "--l", "1", "--family", "first", "--method", "quad"], capsys)
    assert code == EXIT_NUMERICAL
    assert "orthogonality degenerate" in err


def test_mu_quadrature_runs_past_the_monomial_overflow(capsys):
    code, out, _ = run_capture(
        ["mu", "--l", "60", "--family", "second", "--method", "quad"], capsys
    )
    assert code == EXIT_OK
    assert abs(json.loads(out)["mu_quadrature"] - 0.5) <= 1e-12


def test_mu_past_the_coefficient_range(capsys):
    # the seed's coefficients of degree 1100 exceed the largest double, but
    # both routes read the seed off its lattice and never form them
    code, out, _ = run_capture(["mu", "--l", "1100", "--family", "second"], capsys)
    assert code == EXIT_OK
    rec = json.loads(out)
    assert abs(rec["mu_quadrature"] - 0.5) <= 1e-12
    assert rec["mu_ift"] == float(Fraction(1100 * (1100 ** 3 - 3 * 1100 ** 2 + 4 * 1100 + 2),
                                            1100 ** 2 + 1))


def test_pencil_past_double_range_is_numerical_failure(capsys):
    # the exact coefficients of degree 1100 exceed the largest double
    code, out, err = run_capture(["pencil", "--degree", "1100", "--family", "first"], capsys)
    assert code == EXIT_NUMERICAL
    assert out == "" and "numerical failure" in err


def test_usage_errors(capsys):
    code, _, _ = run_capture(["pencil", "--degree", "3", "--family", "third"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_capture(["bogus-command"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_capture(["char-scan"], capsys)
    assert code == EXIT_USAGE


def test_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["fold", "--l", "3", "--output", str(a)]) == EXIT_OK
    assert run(["fold", "--l", "3", "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# branch defaults\n\nfamily=upper\nn-max=0.01\n")
    code, out, _ = run_capture(["--config", str(cfg), "branch", "--l", "2"], capsys)
    assert code == EXIT_OK
    assert float(out.strip().splitlines()[-1].split(",")[0]) == pytest.approx(0.01)
    # explicit flags win over the file
    code, out, _ = run_capture(
        ["--config", str(cfg), "branch", "--l", "2", "--n-max", "0.02"], capsys
    )
    assert float(out.strip().splitlines()[-1].split(",")[0]) == pytest.approx(0.02)


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume=11\n")
    code, _, err = run_capture(["--config", str(cfg), "fold", "--l", "2"], capsys)
    assert code == EXIT_USAGE
    assert "unknown configuration key" in err


# command -> (required flags, optional options as config keys, the JSON config they give)
CONFIGURED = {
    "pencil": (["--degree", "5"], {"family": "second"}, {"degree": 5, "family": "second"}),
    "char-scan": (
        [],
        {"l": "2", "n-list": "0,0.1", "lambda_min": "-3", "lambda-max": "-1",
         "lambda-step": "0.1"},
        {"l": 2, "n_list": "0,0.1", "lambda_min": -3, "lambda_max": -1, "lambda_step": 0.1},
    ),
    "fold": (["--l", "2"], {}, {"l": 2}),
    "branch": (
        ["--l", "2"],
        {"family": "lower", "n-max": "0.05"},
        {"l": 2, "family": "lower", "n_max": 0.05},
    ),
    "mu": (["--l", "3"], {"family": "second", "method": "ift"},
           {"l": 3, "family": "second", "method": "ift"}),
    "shoot": (
        ["--l", "2", "--n", "0", "--lambda", "-2"],
        {"z-max": "8", "transversality_tol": "1e-3"},
        {"l": 2, "n": 0, "lam": -2, "z_max": 8, "transversality_tol": 1e-3},
    ),
    "crack": (
        ["--alphas", "-1,0,1"],
        {"n": "0", "l-max": "6", "tol": "1e-6", "any-subset": "true"},
        {"alphas": "-1,0,1", "n": 0, "l_max": 6, "tol": 1e-6, "any_subset": True},
    ),
}


@pytest.mark.parametrize("command", sorted(CONFIGURED))
def test_config_file_matches_flags(command, tmp_path, capsys):
    required, options, config = CONFIGURED[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in options.items()) + "format=json\n")
    flags = []
    for k, v in options.items():
        flags += ["--" + k.replace("_", "-")] + ([] if v == "true" else [v])
    by_flag = run_capture([command, *required, *flags, "--format", "json"], capsys)
    by_file = run_capture(["--config", str(cfg), command, *required], capsys)
    assert by_flag[0] == EXIT_OK
    assert by_file == by_flag
    assert json.loads(by_flag[1])["config"] == config


@pytest.mark.parametrize(
    "line, argv, message",
    [
        ("format=xml", ["pencil", "--degree", "3"], "invalid choice"),
        ("format=csv", ["fold", "--l", "2"], "invalid choice"),
        ("any_subset=maybe", ["crack", "--alphas", "-1,0,1"], "expected true or false"),
        ("degree=3", ["crack", "--alphas", "-1,1"], "unknown configuration key"),
        ("figure=two", ["char-scan"], "invalid literal"),
        ("n-max 0.01", ["branch", "--l", "2"], "expected key=value"),
        ("initial_step=0.001", ["branch", "--l", "2"], "unknown configuration key"),
    ],
)
def test_config_values_checked_like_flags(line, argv, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_capture(["--config", str(cfg), *argv], capsys)
    assert code == EXIT_USAGE
    assert out == "" and message in err


def _parse(parser, argv, capsys):
    """The options that parsing ``argv`` sets, or the exit code and the text
    that help or a usage error writes."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err
    return {k: v for k, v in vars(args).items() if k != "_parser"}


# help, usage errors and good calls of every command, an unknown command,
# and a --config value that is itself a command name
PARSER_CASES = [
    ["--help"], [], ["bogus-command"], ["--config"], ["--config", "fold"],
    ["--config", "fold", "branch", "--l", "2"], ["fold", "--l"], ["fold", "--l", "two"],
    *([command, "--help"] for command in CONFIGURED),
    *([command, "--bogus"] for command in CONFIGURED),
    *([command, *CONFIGURED[command][0], "--bogus", "1"] for command in CONFIGURED),
    *([command, *CONFIGURED[command][0], "--format", "xml"] for command in CONFIGURED),
    *([command, *CONFIGURED[command][0], "--output", "out"] for command in CONFIGURED),
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_parses_as_one_with_every_commands_options(argv, capsys):
    # a call builds the options of only the commands its argv names; its
    # help, usage errors and parsed options are those of the full parser
    argv = _join_list_values(argv)
    full = _parse(_build_parser(list(_COMMANDS)), argv, capsys)
    assert _parse(_build_parser(argv), argv, capsys) == full


def test_config_file_named_like_a_command(tmp_path, monkeypatch, capsys):
    # a configuration file whose path is another command's name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fold").write_text("family=lower\nn-max=0.05\nformat=json\n")
    by_file = run_capture(["--config", "fold", "branch", "--l", "2"], capsys)
    flags = ["--family", "lower", "--n-max", "0.05", "--format", "json"]
    assert by_file == run_capture(["branch", "--l", "2", *flags], capsys)
    assert by_file[0] == EXIT_OK and json.loads(by_file[1])["family"] == "lower"
    assert run_capture(["bogus-command", "--config", "fold"], capsys)[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fold", "--l", "2", "--format", "csv"], "invalid choice"),
        (["mu", "--l", "2", "--format", "csv"], "invalid choice"),
        (["crack", "--alphas", "-1,1", "--format", "csv"], "invalid choice"),
        # branches are sampled in Lam, with no step to set
        (["branch", "--l", "2", "--initial-step", "0.001"], "unrecognized arguments"),
        (["branch", "--l", "2", "--initial-step", "-0.01"], "unrecognized arguments"),
        (["branch", "--l", "2", "--n-max", "nan"], "n_max"),
        (["char-scan", "--l", "2", "--n-list", "0", "--lambda-step", "0"], "must be positive"),
        (["char-scan", "--l", "2", "--n-list", "0", "--lambda-step", "-0.01"], "must be positive"),
        (["char-scan", "--l", "2", "--n-list", "0", "--lambda-min", "1", "--lambda-max", "0"],
         "not a finite interval"),
        (["char-scan", "--l", "2", "--n-list", "0", "--lambda-max", "inf"],
         "not a finite interval"),
        (["shoot", "--l", "2", "--n", "0", "--lambda", "-2", "--z-max", "0"], "z_max"),
        (["shoot", "--l", "2", "--n", "0", "--lambda", "-2", "--z-max", "-5"], "z_max"),
        (["shoot", "--l", "2", "--n", "0", "--lambda", "-2", "--z-max", "inf"], "z_max"),
        (["char-scan", "--figure", "5", "--l", "3"], "fixes its own grid"),
        (["char-scan", "--figure", "5", "--n-list", "0", "--format", "json"],
         "fixes its own grid"),
        (["char-scan", "--figure", "3", "--lambda-step", "0.1"], "fixes its own grid"),
        (["shoot", "--l", "2", "--n", "nan", "--lambda", "-2"], "n must be"),
        (["shoot", "--l", "2", "--n", "inf", "--lambda", "-2"], "n must be"),
        (["shoot", "--l", "2", "--n", "0", "--lambda", "nan"], "lambda finite"),
        (["shoot", "--l", "2", "--n", "0", "--lambda", "-2", "--transversality-tol", "nan"],
         "transversality_tol"),
        (["crack", "--alphas", "-1,1", "--n", "nan"], "n must be"),
        (["crack", "--alphas", "-1,1", "--tol", "nan"], "tol must be positive"),
        (["crack", "--alphas", "-1,1", "--n", "0.01", "--tol", "-1"], "tol must be positive"),
        (["char-scan", "--l", "2", "--n-list", "nan"], "n must be finite"),
        (["char-scan", "--l", "2", "--n-list", "0,inf"], "n must be finite"),
        (["branch", "--l", "2", "--family", "sideways"], "unknown branch family"),
        (["mu", "--l", "2", "--method", "xyz"], "--method must be"),
        # every perturbation route takes the quartic's index, an int l >= 1
        (["mu", "--l", "0", "--family", "second", "--method", "quad"], "l must be an int >= 1"),
        (["mu", "--l", "0", "--family", "second"], "l must be an int >= 1"),
        (["fold", "--l", "0"], "l must be an int >= 1"),
        (["shoot", "--l", "0", "--n", "0", "--lambda", "-2"], "l must be an int >= 1"),
        # check_nonlinear takes build_quartic's rule for n: finite and >= 0
        (["crack", "--alphas", "-1,1", "--n", "inf"], "n must be finite"),
    ],
)
def test_invalid_options_are_usage_errors(argv, message, capsys):
    code, out, err = run_capture(argv, capsys)
    assert code == EXIT_USAGE
    assert out == "" and message in err


@pytest.mark.parametrize("argv, key, value", [
    (["crack", "--alphas", "-1,\t1"], "alphas", "-1,\t1"),
    (["pencil", "--degree", "2", "--family", "first\n", "--format", "json"], "family", "first\n"),
])
def test_json_escapes_control_characters(argv, key, value, capsys):
    # an echoed option string with a control character stays valid JSON
    code, out, _ = run_capture(argv, capsys)
    assert code == EXIT_OK
    assert json.loads(out)["config"][key] == value


def test_json_strings_round_trip():
    text = "".join(map(chr, range(40))) + '"\\ \u00e9\u2028'
    assert json.loads(_json_dump({"s": text})) == {"s": text}


def test_figure_two_contains_published_minimum(capsys):
    ds = emit_figure(2)
    assert ds.n_values[0] == math.inf
    # JSON has no infinities: the writer spells them as strings, as it does nan
    code, out, _ = run_capture(["char-scan", "--figure", "2", "--format", "json"], capsys)
    assert code == EXIT_OK and json.loads(out)["n_values"] == ["inf", 0]
    assert _json_dump([-math.inf, math.nan]) == '[\n  "-inf",\n  "nan"\n]'
    limit_row = np.array(ds.values[0])
    assert 6.84 <= limit_row.min() <= 6.85
    quad_row = np.array(ds.values[1])
    grid = np.array(ds.lambda_grid)
    for root in (-2.0, -3.0):
        k = np.abs(grid - root).argmin()
        assert abs(quad_row[k]) <= 1e-9


def test_figure_three_passes_through_persistent_root():
    ds = emit_figure(3)
    assert ds.l == 1
    assert len(ds.n_values) == 21
    grid = np.array(ds.lambda_grid)
    k = np.abs(grid - (-1.0)).argmin()
    assert grid[k] == pytest.approx(-1.0, abs=1e-12)
    for row in ds.values:
        assert abs(row[k]) <= 1e-10


def test_figure_five_root_pair_disappears():
    ds = emit_figure(5)
    assert ds.l == 2
    assert ds.n_values == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

    def has_sign_change(row):
        row = np.asarray(row)
        return bool(np.any(np.sign(row[:-1]) * np.sign(row[1:]) < 0))

    by_n = dict(zip(ds.n_values, ds.values))
    assert has_sign_change(by_n[0.1])
    assert not has_sign_change(by_n[0.2])


def test_figure_caption_lists():
    ds4 = emit_figure(4)
    assert ds4.l == 3
    assert ds4.n_values == tuple(round(0.01 * k, 10) for k in range(11))
    ds6 = emit_figure(6)
    assert ds6.l == 4
    assert ds6.n_values == tuple(round(0.001 * k, 10) for k in range(11))
    # the l = 3 sweep brackets its fold: roots present at n = 0.05, gone at 0.06
    grid = np.array(ds4.lambda_grid)
    row_lo = np.array(ds4.values[ds4.n_values.index(0.05)])
    row_hi = np.array(ds4.values[ds4.n_values.index(0.06)])
    window = (grid > -4.6) & (grid < -3.0)
    assert np.any(np.sign(row_lo[window][:-1]) * np.sign(row_lo[window][1:]) < 0)
    assert not np.any(np.sign(row_hi[window][:-1]) * np.sign(row_hi[window][1:]) < 0)


def test_figure_ids_validated():
    with pytest.raises(ValueError):
        emit_figure(7)
    for fid in (2, 3, 4, 5, 6):
        ds = emit_figure(fid)
        assert len({len(r) for r in ds.values}) == 1


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports cracktip from this
    checkout and return what it prints; its assertions fail the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the cracktip modules each command loads, besides cracktip, cli and errors
COMMAND_MODULES = [
    (["fold", "--l", "3"], "characteristic continuation"),
    (["branch", "--l", "2"], "characteristic continuation"),
    (["char-scan", "--figure", "2"], "characteristic"),
    (["char-scan", "--figure", "5"], "characteristic"),
    (["pencil", "--degree", "4"], "_record pencil"),
    (["crack", "--alphas", "-1,1"], "_record pencil crack"),
    (["mu", "--l", "3", "--family", "second"], "_record characteristic pencil perturbation"),
    (["shoot", "--l", "3", "--n", "0.05", "--lambda", "-3.1", "--format", "json"],
     "_record characteristic shooting _dopri"),
    (["crack", "--alphas", "-1,1", "--n", "0.05", "--l-max", "2", "--tol", "0.3"],
     "_record characteristic continuation crack pencil shooting _dopri"),
]
# commands that load no numpy: every one but shoot's CSV
NUMPY_FREE_COMMANDS = [argv for argv, _ in COMMAND_MODULES]


def test_scipy_loads_on_first_use():
    # only solve_correction uses scipy: neither the import nor these
    # commands, the shot and the nonlinear crack check included, load it
    code = (
        "import sys, cracktip, cracktip.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded(), loaded()\n"
        "assert cracktip.cli.run(['fold', '--l', '3']) == 0\n"
        "assert not loaded(), loaded()\n"
        "assert cracktip.cli.run(['crack', '--alphas', '-1,1']) == 0\n"
        "assert not loaded(), loaded()\n"
        "assert cracktip.cli.run(['mu', '--l', '3', '--family', 'second']) == 0\n"
        "assert not loaded(), loaded()\n"
        "args = ['crack', '--alphas', '-1,1', '--n', '0.05', '--l-max', '2', '--tol', '0.3']\n"
        "assert cracktip.cli.run(args) == 0\n"
        "assert not loaded(), loaded()\n"
        "assert cracktip.cli.run(['shoot', '--l', '3', '--n', '0.01', '--lambda', '-3']) == 0\n"
        "assert not loaded(), loaded()\n"
    )
    run_fresh(code)


def test_correction_solve_loads_no_scipy_sparse():
    # the correction solve factors its band with LAPACK and loads no
    # scipy.sparse module of its own; scipy releases before 1.17 load
    # scipy.sparse with scipy.linalg itself, so the check is against
    # what a bare LAPACK import loads
    code = (
        "import sys\n"
        "def sparse(): return {m for m in sys.modules if m == 'scipy.sparse' or m.startswith('scipy.sparse.')}\n"
        "import scipy.linalg.lapack\n"
        "base = sparse()\n"
        "from cracktip import Family, solve_correction\n"
        "solve_correction(2, Family.SECOND, 0.5)\n"
        "assert sparse() == base, sorted(sparse() - base)\n"
    )
    run_fresh(code)


def test_numpy_loads_on_first_use():
    # the polynomial and scalar layers run on Python floats, quartic roots
    # and folds included, and so do a shot's zeros, growth exponent and
    # scale and its JSON record: only a shot's samples, which CSV writes,
    # load numpy
    code = (
        "import sys, cracktip, cracktip.cli\n"
        "from cracktip.cli import run\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert not loaded(), loaded()\n"
        "assert cracktip.real_roots(cracktip.build_quartic(3, 0.01))\n"
        "assert cracktip.limit_polynomial(2).global_min()[1] > 6.8\n"
        "assert cracktip.find_fold(4).n_star > 0.0\n"
        "assert not loaded(), loaded()\n"
        f"for argv in {NUMPY_FREE_COMMANDS!r}:\n"
        "    assert run(argv) == 0, argv\n"
        "    assert not loaded(), (argv, loaded())\n"
        "sol = cracktip.shoot(3, 0.05, -3.1)\n"
        "assert sol.zeros.zeros and sol.growth_exponent > 0.0 and sol.scale >= 1.0\n"
        "assert not loaded(), loaded()\n"
        "assert sol.z.size == 4001 and loaded()\n"
        "assert run(['shoot', '--l', '3', '--n', '0.01', '--lambda', '-3']) == 0\n"
    )
    run_fresh(code)


def test_records_load_no_dataclasses():
    # the result records are NamedTuples or slotted classes, so neither the
    # import nor a command loads dataclasses, or the inspect, ast and dis
    # modules it pulls in, which together cost a CLI call several milliseconds
    run_fresh(
        "import sys\n"
        "loaded = lambda: sorted({'dataclasses', 'inspect'}.intersection(sys.modules))\n"
        "import cracktip\n"
        "assert not loaded(), loaded()\n"
        "import cracktip.cli\n"
        "assert not loaded(), loaded()\n"
        f"for argv in {NUMPY_FREE_COMMANDS!r}:\n"
        "    assert cracktip.cli.run(argv) == 0, argv\n"
        "    assert not loaded(), (argv, loaded())\n"
    )


def test_commands_load_only_their_layer():
    # import cracktip loads none of its modules, and each command, alone in
    # a fresh interpreter, loads exactly its layer: a linear crack check no
    # continuation or ODE layer, a shot no pencil; no command loads
    # fractions or the decimal module that it pulls in, since pencil forms
    # its float coefficients from integers
    run_fresh(
        "import sys, cracktip\n"
        "own = lambda: sorted(m for m in sys.modules\n"
        "                     if m.startswith('cracktip.') or m in ('fractions', 'decimal'))\n"
        "assert not own(), own()\n"
        "assert cracktip.NodalSet.__module__ == 'cracktip._record'\n"
        "assert own() == ['cracktip._record'], own()\n"
    )
    got, want = {}, {}
    for argv, modules in COMMAND_MODULES:
        got[" ".join(argv)] = run_fresh(
            "import contextlib, io, sys\n"
            "from cracktip.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = run({argv!r})\n"
            "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'cracktip'\n"
            "                    or m in ('fractions', 'decimal')))\n"
        ).split()
        want[" ".join(argv)] = ["0", *sorted({"cracktip", "cracktip.cli", "cracktip.errors",
                                              *(f"cracktip.{m}" for m in modules.split())})]
    assert got == want


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
README_COMMANDS = [line for block in re.findall(r"```sh\n(.*?)```", README, re.S)
                   for line in block.splitlines() if line.startswith("cracktip ")]


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_runs(line, capsys):
    # each documented invocation runs as written, so a removed flag or
    # option cannot stay in the docs
    code, _, err = run_capture(shlex.split(line)[1:], capsys)
    assert code == EXIT_OK, err


def test_readme_library_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(example, {})
