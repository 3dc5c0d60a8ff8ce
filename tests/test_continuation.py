import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cracktip import (
    BranchFamily,
    FoldPoint,
    NoRealEigenvalueError,
    build_quartic,
    continue_branch,
    find_fold,
    mu_via_ift,
    real_roots,
)
from cracktip.continuation import _eigenvalue
from cracktip.pencil import Family

from oracles import (
    exact_fold,
    exact_fold_derivatives,
    exact_real_roots,
    quartic_parts_exact,
    quartic_residual,
)


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
    assert br.samples[-1] == (br.fold.n_star, br.fold.lambda_star)


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


@pytest.mark.parametrize("l", [100, 1000, 3000])
def test_fold_residuals_at_large_index(l):
    # measured in x = Lam + l, the residuals show the fold's accuracy, not
    # the rounding of a quartic with terms of size l^4 (0.0625 at l = 3000)
    fp = find_fold(l)
    _, _, phi2 = exact_fold_derivatives(l, fp.n_star, fp.lambda_star)
    assert fp.residual_phi <= 1e-9
    assert fp.residual_dphi <= 1e-9 * phi2
    assert fp.second_derivative == pytest.approx(phi2, rel=1e-12)


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
        br = continue_branch(2, family, 2.5e-7)
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
    fp = find_fold(1)
    assert fp.kind == "crossing"
    assert fp.n_star == 0.5
    assert fp.lambda_star == -1.0
    assert fp.residual_phi == 0.0
    assert fp.residual_dphi == 0.0
    assert fp.second_derivative == 4.0
    q = build_quartic(1, 0.5)
    assert q(fp.lambda_star) == 0.0
    assert q.d_dlam(fp.lambda_star) == 0.0
    # real eigenvalues persist past the crossing
    assert real_roots(build_quartic(1, 0.6))


def test_no_fold_for_l1():
    # l = 1 has no fold: its branches meet at the crossing, every field to the bit
    fp = find_fold(1)
    assert type(fp) is FoldPoint and fp.kind == "crossing"
    assert repr(tuple(fp)) == repr((1, 0.5, -1.0, 0.0, 0.0, 4.0, "crossing"))


@pytest.mark.parametrize("l", [2.5, 2.0, np.int64(2)], ids=["2.5", "2.0", "int64"])
def test_index_must_be_an_int(l):
    # the index rule of the quartic: an int l >= 1, so 2.0 and a numpy integer are none
    with pytest.raises(ValueError, match="l must be an int >= 1"):
        find_fold(l)
    for family in BranchFamily:
        with pytest.raises(ValueError, match="l must be an int >= 1"):
            continue_branch(l, family, 0.01)


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


@pytest.mark.parametrize("l", [1112, 1196])
def test_branches_split_one_ulp_below_the_fold(l):
    # at n = n*(1 - 2**-53), A + n B at the fold rounds to the wrong sign, so
    # the bracket has no float sign change; the branches must still split
    fp = find_fold(l)
    n = fp.n_star * (1.0 - 2.0 ** -53)
    upper = _eigenvalue(fp, BranchFamily.UPPER, n)
    lower = _eigenvalue(fp, BranchFamily.LOWER, n)
    assert -l - 1 <= lower < fp.lambda_star < upper <= -l
    assert upper - lower > 1e-9
    assert quartic_residual(l, n, upper) <= 1e-12
    assert quartic_residual(l, n, lower) <= 1e-12
    # the exact roots at this n, to the sqrt(eps n*) that rounding n* allows
    A, B = quartic_parts_exact(l)
    phi = [a + Fraction(n) * b for a, b in zip(A, B)]
    eps = Fraction(1, 10 ** 6)
    lo, hi = exact_real_roots(phi, Fraction(fp.lambda_star) - eps, Fraction(fp.lambda_star) + eps)
    assert abs(upper - float(hi)) <= 1e-8
    assert abs(lower - float(lo)) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(n=st.floats(min_value=0.0, max_value=10.0))
def test_l1_lower_branch_reaches_persistent_root(n):
    crossing = find_fold(1)
    assert _eigenvalue(crossing, BranchFamily.UPPER, n) == -1.0
    lower = _eigenvalue(crossing, BranchFamily.LOWER, n)
    if n >= 0.5:
        assert lower == -1.0
    else:
        assert -2.0 <= lower < -1.0
        assert quartic_residual(1, n, lower) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    l=st.integers(min_value=1, max_value=3000),
    family=st.sampled_from(BranchFamily),
    r=st.floats(min_value=1e-6, max_value=5.0),
)
@example(l=10, family=BranchFamily.UPPER, r=1.0)
@example(l=1, family=BranchFamily.LOWER, r=1.0)
# Lam cannot resolve n_max: every inner sample is the seed, at n = +0.0
@example(l=2, family=BranchFamily.UPPER, r=1e-300)
def test_branches_are_the_graph(l, family, r):
    # 21 samples equally spaced in Lam from the seed to the meeting point,
    # or to the root at n_max below it, each on the quartic, n rising; at
    # l = 1 the persistent root Lam = -1 carries a branch on to n_max
    meet = find_fold(l)
    n_max = r * meet.n_star
    br = continue_branch(l, family, n_max)
    seed = float(-l - (family is BranchFamily.LOWER))
    assert br.samples[0] == (0.0, seed)
    ns = [n for n, _ in br.samples]
    assert all(a <= b for a, b in zip(ns, ns[1:]))
    assert all(math.copysign(1.0, n) > 0.0 for n in ns)  # no -0 in the output
    assert all(quartic_residual(l, n, lam) <= 1e-15 for n, lam in br.samples)
    assert br.reached_n_max == (br.fold is None)
    if l == 1 and family is BranchFamily.UPPER:
        assert br.samples == ((0.0, -1.0), (n_max, -1.0))
        return
    samples = br.samples
    if l == 1 and n_max > meet.n_star:
        assert samples[-1] == (n_max, -1.0)
        samples = samples[:-1]
    assert len(samples) == 21
    if n_max < meet.n_star:
        assert br.reached_n_max
        assert samples[-1] == (n_max, _eigenvalue(meet, family, n_max))
    else:
        assert samples[-1] == (meet.n_star, meet.lambda_star)
        assert br.fold == (None if l == 1 else meet)
    lams = [lam for _, lam in samples]
    step = (lams[-1] - lams[0]) / 20
    assert all(abs(lam - (lams[0] + k * step)) <= 4 * math.ulp(l + 1.0)
               for k, lam in enumerate(lams))


def test_past_the_fold_has_no_eigenvalue():
    fp = find_fold(4)
    for family in BranchFamily:
        with pytest.raises(NoRealEigenvalueError):
            _eigenvalue(fp, family, fp.n_star)


def test_preconditions():
    with pytest.raises(ValueError):
        continue_branch(0, BranchFamily.UPPER, 0.1)
    for n_max in (-1.0, math.nan):
        with pytest.raises(ValueError):
            continue_branch(2, BranchFamily.UPPER, n_max)
    with pytest.raises(ValueError):
        continue_branch(1, BranchFamily.LOWER, math.inf)
    with pytest.raises(ValueError):
        find_fold(0)
    with pytest.raises(ValueError, match="unknown branch family"):
        BranchFamily.parse("sideways")
