"""The result records' contract: field names and order, defaults, keyword
construction, immutability and validation.

The CLI writes records through ``_asdict()``, so their field names and
order are JSON keys.  Ten records are ``typing.NamedTuple``s; the five
that must not behave as tuples derive from ``cracktip._record.Record``.
"""

import copy
import math

import pytest

from cracktip import (
    AdmissibilityReport,
    BranchFamily,
    CrackSpec,
    Family,
    FoldPoint,
    NodalSet,
    Polynomial,
    build_eigenfunction,
    build_quartic,
    check_linear,
    combine,
    continue_branch,
    find_fold,
    limit_polynomial,
    mu_via_quadrature,
    nodal_set,
    shoot,
    solve_correction,
    two_sided_profile,
)
from cracktip.cli import emit_figure

NOT_TUPLES = {"Polynomial", "NodalSet", "ShootingSolution", "Profile", "CrackMatch"}

# record name -> (how to make one, its fields in order)
RECORDS = {
    "CharacteristicQuartic": (lambda: build_quartic(2, 0.1), ("l", "n", "a4", "a3", "a2", "a1", "a0")),
    "LimitQuartic": (lambda: limit_polynomial(3), ("l", "coeffs")),
    "FoldPoint": (lambda: find_fold(2), (
        "l", "n_star", "lambda_star", "residual_phi", "residual_dphi", "second_derivative", "kind",
    )),
    "Branch": (lambda: continue_branch(2, BranchFamily.UPPER, 0.05), (
        "l", "family", "samples", "fold", "reached_n_max",
    )),
    "CrackSpec": (lambda: CrackSpec(alphas=(-1.0, 1.0)), ("alphas",)),
    "CrackMatch": (lambda: check_linear(CrackSpec((-1.0, 1.0))).matches[0], (
        "l", "ratio", "zero_indices", "max_residual", "zeros",
    )),
    "AdmissibilityReport": (lambda: check_linear(CrackSpec((-1.0, 1.0))), (
        "admissible", "matches", "decay_exponent", "mode", "n", "experimental", "notes",
    )),
    "Polynomial": (lambda: combine(1.0, 0.5, 3), ("lattice",)),
    "PencilEigenpair": (lambda: build_eigenfunction(3, Family.FIRST), ("degree", "family", "lam", "poly")),
    "NodalSet": (lambda: nodal_set(combine(1.0, 0.5, 3)), (
        "zeros", "derivative_magnitudes", "transversal", "tol",
    )),
    "QuadratureDiagnostics": (lambda: mu_via_quadrature(2, Family.SECOND)[1], (
        "windows", "mu_values", "divergent_tail", "converged",
    )),
    "CorrectionSolution": (lambda: solve_correction(2, Family.SECOND, 0.5, num_points=201), (
        "l", "family", "mu", "z", "phi", "interior_residual_max", "resonance_amplitude",
        "orthogonality_value",
    )),
    "ShootingSolution": (lambda: shoot(2, 0.0, -2.0, z_max=5.0), (
        "l", "n", "lam", "zeros", "growth_exponent", "scale", "nfev", "steps", "_traj",
    )),
    "Profile": (lambda: two_sided_profile(0.0, -2.0, (1.0, 0.0), 3.0), (
        "lam", "n", "ic", "z_max", "_pos", "_neg", "nfev", "steps",
    )),
    "FigureDataset": (lambda: emit_figure(2), ("figure_id", "l", "n_values", "lambda_grid", "values")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, fields = RECORDS[name]
    rec = make()
    assert type(rec).__name__ == name
    assert isinstance(rec, tuple) is (name not in NOT_TUPLES)
    assert rec._fields == fields
    values = rec._asdict()
    assert list(values) == list(fields)
    assert all(values[f] is getattr(rec, f) for f in fields)
    # by keyword and by position, and by copy, the same fields come back
    for again in (type(rec)(**values), type(rec)(*values.values()), copy.copy(rec)):
        assert type(again) is type(rec)
        assert all(getattr(again, f) is getattr(rec, f) for f in fields)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, getattr(rec, f))
    assert repr(rec).startswith(name + "(")


def test_record_defaults():
    fold = FoldPoint(l=2, n_star=0.1, lambda_star=-2.5, residual_phi=0.0,
                     residual_dphi=0.0, second_derivative=1.0)
    assert fold.kind == "fold"
    report = AdmissibilityReport(admissible=False, matches=(), decay_exponent=None)
    assert (report.mode, report.n, report.experimental, report.notes) == ("linear", 0.0, False, ())


def test_polynomial_compares_on_its_lattice():
    poly = combine(1.0, 2.0, 3)
    poly.coeffs  # formed output is not a field
    assert poly == Polynomial((3, 1.0, 2.0)) and hash(poly) == hash(Polynomial((3, 1.0, 2.0)))
    assert poly != combine(1.0, 3.0, 3) and poly != combine(1.0, 2.0, 4)
    assert combine(1.0, 0.0, 3) == build_eigenfunction(3, Family.FIRST).poly  # one seed
    assert poly._asdict() == {"lattice": (3, 1.0, 2.0)}


@pytest.mark.parametrize("coeffs", [(), (1.0, 0.0), (1.0, 2.0, 3.0)])
def test_polynomial_rejects_bad_coefficients(coeffs):
    # a polynomial is defined by its lattice (l, c, d), never by coefficients
    with pytest.raises(ValueError):
        Polynomial(coeffs)


@pytest.mark.parametrize("lattice", [
    (-1, 1.0, 0.0), (2.0, 1.0, 0.0), ("2", 1.0, 0.0), (None, 1.0, 0.0),
    (2, math.nan, 0.0), (2, 1.0, math.inf), (2, -math.inf, 1.0), (0, 1.0, math.nan),
    (3, 0.0, 0.0), (1, -0.0, 0.0),
])
def test_polynomial_rejects_a_bad_lattice(lattice):
    # l a nonnegative int, c and d finite, and not both zero from l = 1 on:
    # the zero polynomial is (0, 0, 0), with no zeros of its own
    with pytest.raises(ValueError, match="lattice"):
        Polynomial(lattice)
    with pytest.raises(ValueError, match="lattice"):
        Polynomial(lattice=lattice)


@pytest.mark.parametrize("alphas", [(), (0.0, math.nan), (1.0, 1.0), (2.0, 1.0)])
def test_crack_spec_rejects_bad_slopes(alphas):
    with pytest.raises(ValueError):
        CrackSpec(alphas=alphas)
    with pytest.raises(ValueError):
        CrackSpec((-1.0, 1.0))._replace(alphas=alphas)


def test_nodal_set_length_is_its_number_of_zeros():
    full = nodal_set(combine(1.0, 0.5, 3))
    assert len(full) == len(full.zeros) == 3
    second_only = nodal_set(build_eigenfunction(2, Family.SECOND).poly)  # no first-family part
    assert len(second_only) == len(second_only.zeros) == 2


def test_record_needs_every_field_once():
    with pytest.raises(TypeError):
        NodalSet((), (), ())
    with pytest.raises(TypeError):
        NodalSet((), (), (), 1e-8, tol=1e-8)
