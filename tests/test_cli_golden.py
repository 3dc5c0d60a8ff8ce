"""Byte-for-byte regression of CLI output against recorded files.

None of these invocations uses scipy or numpy: the nonlinear crack check
and ``shoot`` run the in-module DOP853 stepper on Python floats, and the
samples that ``shoot``'s CSV writes are tuples of floats.  After a
deliberate change to the output, see what it moves with

    PYTHONPATH=src python tests/test_cli_golden.py --diff

which prints each changed JSON field or CSV line and its largest relative
change, or each added or removed one, and writes nothing, then record the
files again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cracktip.cli import EXIT_INADMISSIBLE, EXIT_OK, run

from golden import changes, report

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

# file name -> (argv, exit code)
CASES = {
    "pencil_7_second.csv": (["pencil", "--degree", "7", "--family", "second"], EXIT_OK),
    "pencil_7_second.json": (
        ["pencil", "--degree", "7", "--family", "second", "--format", "json"], EXIT_OK),
    "char_scan_figure_5.csv": (["char-scan", "--figure", "5"], EXIT_OK),
    "fold_2.json": (["fold", "--l", "2"], EXIT_OK),
    "fold_200.json": (["fold", "--l", "200"], EXIT_OK),
    "fold_3000.json": (["fold", "--l", "3000"], EXIT_OK),
    "fold_1.json": (["fold", "--l", "1"], EXIT_OK),  # the crossing
    "branch_1_lower.json": (  # through the crossing and on along Lam = -1
        ["branch", "--l", "1", "--family", "lower", "--n-max", "1", "--format", "json"], EXIT_OK),
    "branch_10.json": (["branch", "--l", "10", "--format", "json"], EXIT_OK),
    "branch_3_lower.json": (
        ["branch", "--l", "3", "--family", "lower", "--format", "json"], EXIT_OK),
    "branch_3000.json": (["branch", "--l", "3000", "--format", "json"], EXIT_OK),
    "crack_admissible.json": (["crack", "--alphas", "-1,1"], EXIT_OK),
    "crack_lattice_any_subset.json": (  # 14 matches, each at a generic phase
        ["crack", "--alphas", "0.22571761784552116,0.7935511478423171", "--any-subset",
         "--l-max", "100"], EXIT_OK),
    "crack_inadmissible.json": (
        ["crack", "--alphas", "-3,3", "--l-max", "2"], EXIT_INADMISSIBLE),
    "crack_nonlinear.json": (
        ["crack", "--alphas", "-1,1", "--n", "0.05", "--l-max", "4", "--tol", "0.3"], EXIT_OK),
    "mu_2_second.json": (["mu", "--l", "2", "--family", "second"], EXIT_OK),
    "mu_3_first.json": (["mu", "--l", "3", "--family", "first"], EXIT_OK),  # divergent: "nan"
    "shoot_3_nonlinear.json": (
        ["shoot", "--l", "3", "--n", "0.05", "--lambda", "-3.1", "--z-max", "30",
         "--format", "json"], EXIT_OK),
    "shoot_3_nonlinear.csv": (
        ["shoot", "--l", "3", "--n", "0.05", "--lambda", "-3.1", "--z-max", "30"], EXIT_OK),
    "shoot_2_rescaled.json": (
        ["shoot", "--l", "2", "--n", "0", "--lambda", "-100", "--format", "json"], EXIT_OK),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recorded_bytes(name, capsysbinary):
    argv, code = CASES[name]
    assert run(argv) == code
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


def _fields(name, text):
    """(label, value) for each top-level JSON field or each CSV line."""
    if name.endswith(".json"):
        return [(f"{name}:{key}", value) for key, value in json.loads(text).items()]
    return [(f"{name}:{i}", line) for i, line in enumerate(text.splitlines(), 1)]


if __name__ == "__main__":
    diff = sys.argv[1:] == ["--diff"]
    triples = []
    for name, (argv, code) in CASES.items():
        if diff:
            with redirect_stdout(io.StringIO()) as out:
                got = run(argv)
            path = GOLDEN / name  # a case not yet recorded has only added fields
            old = dict(_fields(name, path.read_text())) if path.exists() else {}
            triples += changes(old, dict(_fields(name, out.getvalue())))
        else:
            GOLDEN.mkdir(parents=True, exist_ok=True)
            got = run(argv + ["--output", str(GOLDEN / name)])
        if got != code:
            raise SystemExit(f"{name}: exit {got}, expected {code}")
    if diff:
        report(triples)
