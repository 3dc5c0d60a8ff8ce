import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cracktip import (
    BranchFamily,
    NoFoldInBracketError,
    NoRealEigenvalueError,
    build_quartic,
    continue_branch,
    double_root_l1,
    find_fold,
    mu_via_ift,
    real_roots,
)
from cracktip.continuation import _eigenvalue
from cracktip.pencil import Family

from oracles import exact_fold, quartic_residual


def test_branch_l1_upper_is_flat():
    br = continue_branch(1, BranchFamily.UPPER, 2.0)
    assert br.reached_n_max
    assert br.samples[0] == (0.0, -1.0)
    assert br.samples[-1][0] == pytest.approx(2.0)
    for _, lam in br.samples:
        assert lam == pytest.approx(-1.0, abs=1e-9)


def test_branch_l2_upper_monotone_to_near_fold():
    br = continue_branch(2, BranchFamily.UPPER, 0.119)
    assert br.reached_n_max
    assert br.samples[0] == (0.0, -2.0)
    lams = [lam for _, lam in br.samples]
    assert all(b < a + 1e-15 for a, b in zip(lams, lams[1:]))
    assert -2.48 < lams[-1] < -2.35


def test_branch_samples_satisfy_quartic():
    br = continue_branch(2, BranchFamily.LOWER, 0.1)
    for n, lam in br.samples:
        q = build_quartic(2, n)
        scale = sum(abs(c) * max(1.0, abs(lam)) ** (4 - k) for k, c in enumerate(q.coeffs))
        assert abs(q(lam)) <= 1e-10 * scale


def test_branch_terminates_at_fold():
    br = continue_branch(2, BranchFamily.UPPER, 0.5)
    assert not br.reached_n_max
    assert br.fold is not None
    n_ref, lam_ref = exact_fold(2)
    assert br.fold.n_star == pytest.approx(n_ref, rel=1e-8)
    assert br.fold.lambda_star == pytest.approx(lam_ref, rel=1e-8)
    assert br.samples[-1][0] < br.fold.n_star


@pytest.mark.parametrize("l", [2, 3, 5, 10, 100, 1000, 3000])
def test_fold_matches_exact_elimination(l):
    fp = find_fold(l)
    n_ref, lam_ref = exact_fold(l)
    assert fp.n_star == pytest.approx(n_ref, rel=1e-13, abs=0.0)
    assert fp.lambda_star == pytest.approx(lam_ref, rel=1e-13)
    assert fp.kind == "fold"


@pytest.mark.parametrize("l", [2, 3, 4, 7])
def test_fold_residuals(l):
    fp = find_fold(l)
    q = build_quartic(l, fp.n_star)
    bound = 1e-11 * max(1.0, abs(q.a0))
    assert fp.residual_phi <= bound
    assert fp.residual_dphi <= bound
    assert fp.second_derivative != 0.0


@pytest.mark.parametrize("l", list(range(2, 11)))
def test_fold_is_pair_annihilation(l):
    fp = find_fold(l)
    after = real_roots(build_quartic(l, fp.n_star * 1.01))
    assert not any(abs(r - fp.lambda_star) < 0.5 for r in after)
    before = real_roots(build_quartic(l, fp.n_star * 0.99))
    assert sum(1 for r in before if abs(r - fp.lambda_star) < 0.5) == 2


def test_fold_decreases_with_index():
    values = [find_fold(l).n_star for l in (2, 3, 4, 5, 10, 100)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_branch_slope_matches_ift():
    for family, pfam in ((BranchFamily.UPPER, Family.FIRST), (BranchFamily.LOWER, Family.SECOND)):
        br = continue_branch(2, family, 2.5e-7, initial_step=1e-7)
        (n0, l0), (n1, l1) = br.samples[0], br.samples[1]
        fd = (l1 - l0) / (n1 - n0)
        mu = mu_via_ift(2, pfam)
        assert fd == pytest.approx(mu, rel=1e-5)


def test_branch_l1_lower_crosses_persistent_root():
    # at the l = 1 crossing the two roots exchange; natural-parameter
    # continuation lands on the persistent root and still reaches n_max
    # with every sample on the quartic
    br = continue_branch(1, BranchFamily.LOWER, 1.0)
    assert br.reached_n_max
    assert br.samples[0] == (0.0, -2.0)
    for n, lam in br.samples:
        q = build_quartic(1, n)
        scale = sum(abs(c) * max(1.0, abs(lam)) ** (4 - k) for k, c in enumerate(q.coeffs))
        assert abs(q(lam)) <= 1e-10 * scale
    assert br.samples[-1][1] == pytest.approx(-1.0, abs=1e-9)


def test_double_root_l1():
    fp = double_root_l1()
    assert fp.kind == "crossing"
    assert fp.n_star == 0.5
    assert fp.lambda_star == -1.0
    assert fp.residual_phi == 0.0
    assert fp.residual_dphi == 0.0
    q = build_quartic(1, 0.5)
    assert q(fp.lambda_star) == 0.0
    assert q.d_dlam(fp.lambda_star) == 0.0
    # real eigenvalues persist past the crossing
    assert real_roots(build_quartic(1, 0.6))


def test_no_fold_for_l1():
    with pytest.raises(NoFoldInBracketError):
        find_fold(1)


def test_bracket_without_root_count_change():
    with pytest.raises(NoFoldInBracketError):
        find_fold(2, bracket=(0.01, 0.02))


def test_bracket_holding_the_fold():
    n_star = find_fold(3).n_star
    assert find_fold(3, bracket=(0.5 * n_star, n_star)) == find_fold(3)
    with pytest.raises(NoFoldInBracketError):
        find_fold(3, bracket=(n_star, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    l=st.integers(min_value=2, max_value=3000),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_branches_invert_the_graph_below_the_fold(l, u):
    fp = find_fold(l)
    n = u * fp.n_star
    upper = _eigenvalue(fp, BranchFamily.UPPER, n)
    lower = _eigenvalue(fp, BranchFamily.LOWER, n)
    assert fp.lambda_star <= upper <= -l
    assert -l - 1 <= lower <= fp.lambda_star
    assert upper > lower
    assert quartic_residual(l, n, upper) <= 1e-12
    assert quartic_residual(l, n, lower) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(n=st.floats(min_value=0.0, max_value=10.0))
def test_l1_lower_branch_reaches_persistent_root(n):
    crossing = double_root_l1()
    assert _eigenvalue(crossing, BranchFamily.UPPER, n) == -1.0
    lower = _eigenvalue(crossing, BranchFamily.LOWER, n)
    if n >= 0.5:
        assert lower == -1.0
    else:
        assert -2.0 <= lower < -1.0
        assert quartic_residual(1, n, lower) <= 1e-12


def test_past_the_fold_has_no_eigenvalue():
    fp = find_fold(4)
    for family in BranchFamily:
        with pytest.raises(NoRealEigenvalueError):
            _eigenvalue(fp, family, fp.n_star)


def test_preconditions():
    with pytest.raises(ValueError):
        continue_branch(0, BranchFamily.UPPER, 0.1)
    with pytest.raises(ValueError):
        continue_branch(2, BranchFamily.UPPER, -1.0)
