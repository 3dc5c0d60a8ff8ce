import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cracktip import (
    BranchFamily,
    Family,
    build_eigenfunction,
    continue_branch,
    mu_via_ift,
    mu_via_quadrature,
    solve_correction,
)
from cracktip.characteristic import _integer_parts
from cracktip.errors import NumericsError
from cracktip.perturbation import _source_terms

from oracles import correction_system, integral_over_reals, phi1, phi2, source_h_exact


def source_h(mu, pair, z):
    """Order-n source term h(mu, psi, lam) at ``z`` (scalar or array), from
    the angle-form terms; uses L psi = -psi''."""
    r = abs(z + 1j)
    _, f2, m, f1_lpsi = _source_terms(pair.poly.lattice, z / r, 1.0 / r)
    return -(f2 + mu * m + f1_lpsi) * r ** -pair.lam


def test_phi_couplings_vanish_on_linear_mode():
    # psi = z with lam = -1: lam psi + z psi' = 0 identically
    z = np.linspace(-4.0, 4.0, 41)
    assert np.max(np.abs(phi1(z, 1.0, -1.0, z))) == 0.0
    assert np.max(np.abs(phi2(z, 1.0, 0.0, -1.0, z))) == 0.0


def test_phi_couplings_hand_values():
    # psi = z^2 - 1, lam = -2 at z = 1: psi=0, psi'=2, psi''=2
    # g = 2, den = 8 -> phi1 = 1/2; phi2 = (4*2 + 2*2*2*(-2))/8 = -1
    assert phi1(0.0, 2.0, -2.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert phi2(0.0, 2.0, 2.0, -2.0, 1.0) == pytest.approx(-1.0, abs=1e-15)


def test_source_vanishes_for_degree_one():
    pair = build_eigenfunction(1, Family.FIRST)
    z = np.linspace(-5.0, 5.0, 31)
    for mu in (0.0, 1.0, -3.7):
        assert np.max(np.abs(source_h(mu, pair, z))) <= 1e-14


def test_source_hand_value_degree_two():
    # psi = z^2 - 1, lam = -2 at z = 0: phi1 = 1, phi2 = 0, L psi = -2
    # h(0) = -(0 + 0 + 1 * (-2)) = 2
    pair = build_eigenfunction(2, Family.FIRST)
    assert source_h(0.0, pair, 0.0) == pytest.approx(2.0, abs=1e-14)


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 12), st.sampled_from(Family),
    st.floats(-30.0, 30.0), st.floats(-5.0, 5.0),
)
@example(12, Family.SECOND, 30.0, 5.0)
@example(1, Family.FIRST, 0.0, 1.0)
@example(3, Family.SECOND, 2.2250738585e-313, 0.0)  # h is subnormal
def test_source_matches_the_exact_z_form(degree, family, z, mu):
    # the angle form of h against the z-form couplings in Fraction
    # arithmetic on the exact seed coefficients, relative to the sum of
    # the terms' sizes, which below the normal range is absolute
    pair = build_eigenfunction(degree, family)
    h, size = source_h_exact(pair, mu, z)
    assert abs(source_h(mu, pair, z) - h) <= 1e-13 * max(size, sys.float_info.min)


def test_source_affine_in_mu():
    pair = build_eigenfunction(3, Family.SECOND)
    lam = pair.lam
    p, d1 = pair.poly, pair.poly.derivative()
    z = np.linspace(-3.0, 3.0, 13)
    h0 = source_h(0.0, pair, z)
    h1 = source_h(1.0, pair, z)
    h5 = source_h(5.0, pair, z)
    slope = -((2.0 * lam + 1.0) * p(z) + z * d1(z))
    assert np.allclose(h1 - h0, slope, rtol=0, atol=1e-12)
    assert np.allclose(h5 - h0, 5.0 * slope, rtol=0, atol=1e-12)


MU_IFT_CLOSED = [
    # -B(seed)/A'(seed) evaluated by hand from the integer parts
    (1, Family.FIRST, 0.0),
    (2, Family.FIRST, -2.0),
    (2, Family.SECOND, 12.0 / 5.0),
    (3, Family.FIRST, -6.0),
    (3, Family.SECOND, 21.0 / 5.0),
    (4, Family.FIRST, -12.0),
    (4, Family.SECOND, 8.0),
]


@pytest.mark.parametrize("l,family,expected", MU_IFT_CLOSED)
def test_mu_ift_closed_values(l, family, expected):
    assert mu_via_ift(l, family) == pytest.approx(expected, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_mu_ift_is_the_rounded_closed_form(l):
    # -B(seed)/A'(seed) in lowest terms: -l(l-1) on the first family and
    # l(l^3 - 3l^2 + 4l + 2)/(l^2 + 1) on the second, rounded once
    assert mu_via_ift(l, Family.FIRST) == float(-l * (l - 1))
    second = Fraction(l * (l ** 3 - 3 * l ** 2 + 4 * l + 2), l * l + 1)
    assert mu_via_ift(l, Family.SECOND) == float(second)


def test_mu_ift_is_the_rational_slope_rounded_once():
    # the slope of integer division is bit for bit the rational
    # -B(seed) / A'(seed) rounded once, on both families up to l = 3000
    for l in range(1, 3001):
        A, B = _integer_parts(l)
        for family, lam in ((Family.FIRST, -l), (Family.SECOND, -l - 1)):
            b = da = 0
            for c in B:  # Horner's rule for B(lam) and A'(lam)
                b = b * lam + c
            for k, c in enumerate(A[:-1]):
                da = da * lam + (4 - k) * c
            expected = float(Fraction(-b, da))
            assert mu_via_ift(l, family).hex() == expected.hex(), (l, family)


@pytest.mark.parametrize(
    "l,family,branch",
    [(2, Family.FIRST, BranchFamily.UPPER), (3, Family.SECOND, BranchFamily.LOWER)],
)
def test_mu_ift_matches_continuation_slope(l, family, branch):
    br = continue_branch(l, branch, 2.5e-7)
    (n0, l0), (n1, l1) = br.samples[:2]
    assert (l1 - l0) / (n1 - n0) == pytest.approx(mu_via_ift(l, family), rel=1e-5)


@pytest.mark.parametrize("l", list(range(2, 9)))
def test_branches_close_toward_each_other(l):
    # the upper branch falls and the lower rises: the pair must meet at
    # the fold, so the slopes have opposite signs from the start
    assert mu_via_ift(l, Family.FIRST) < 0.0 < mu_via_ift(l, Family.SECOND)


def _orthogonality_mu_oracle(l, family):
    """Exact-quadrature value of the orthogonality slope (tan substitution)."""
    pair = build_eigenfunction(l, Family.SECOND if family is Family.SECOND else Family.FIRST)
    lam = pair.lam
    p = pair.poly
    d1 = p.derivative()
    d2 = d1.derivative()

    def rest(z):
        w = (1.0 + z * z) ** lam
        return w * (phi2(p(z), d1(z), d2(z), lam, z) + phi1(p(z), d1(z), lam, z) * (-d2(z))) * p(z)

    def muco(z):
        w = (1.0 + z * z) ** lam
        return w * ((2.0 * lam + 1.0) * p(z) + z * d1(z)) * p(z)

    return -integral_over_reals(rest) / integral_over_reals(muco)


@pytest.mark.parametrize("l", list(range(1, 13)))
def test_quadrature_second_family_converges_to_exact_value(l):
    mu, diag = mu_via_quadrature(l, Family.SECOND)
    assert not diag.divergent_tail
    assert diag.converged
    assert len(diag.windows) == len(diag.mu_values) == 1
    assert diag.mu_values[0] == mu
    oracle = _orthogonality_mu_oracle(l, Family.SECOND)
    assert oracle == pytest.approx(0.5, abs=1e-10)  # exact value of the condition
    assert abs(mu - oracle) <= 1e-10


@pytest.mark.parametrize("l", [28, 35, 40])
def test_quadrature_second_family_converges_at_high_degree(l):
    mu, diag = mu_via_quadrature(l, Family.SECOND)
    assert math.isfinite(mu)
    assert not diag.divergent_tail
    assert diag.converged


def test_quadrature_converges_past_the_monomial_overflow():
    # monomial Horner passes overflowed at the largest nodes from l = 44
    for l in (44, 60, 200, 1000):
        mu, diag = mu_via_quadrature(l, Family.SECOND)
        assert diag.converged
        assert abs(mu - 0.5) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3000))
@example(1038)  # the last index whose seed coefficients are all doubles
@example(3000)
def test_quadrature_second_family_is_exact_at_every_index(l):
    # one Gauss-Chebyshev rule of 2e - 1 nodes integrates the cosine
    # polynomials of degree up to 4e - 4 exactly, so mu is 1/2 to rounding
    mu, diag = mu_via_quadrature(l, Family.SECOND)
    assert diag.converged and not diag.divergent_tail
    assert abs(mu - 0.5) <= 1e-12


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_quadrature_first_family_flags_divergent_tail(l):
    mu, diag = mu_via_quadrature(l, Family.FIRST)
    assert diag.divergent_tail
    assert not diag.converged
    assert math.isnan(mu)
    assert math.isnan(diag.mu_values[0])


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.xfail(
    strict=True,
    reason="the orthogonality slope is exactly 1/2 for these seeds while the "
    "quartic slope is 12/5 resp. 21/5; the two published routes are "
    "structurally inconsistent, so this stated agreement cannot hold",
)
def test_quadrature_matches_ift_within_tenth_percent(l, family=Family.SECOND):
    mu_q, diag = mu_via_quadrature(l, family)
    assert not diag.divergent_tail
    mu_i = mu_via_ift(l, family)
    assert abs(mu_q - mu_i) <= 1e-3 * abs(mu_i)


def test_quadrature_is_deterministic():
    a, _ = mu_via_quadrature(2, Family.SECOND)
    b, _ = mu_via_quadrature(2, Family.SECOND)
    assert a == b


def test_degenerate_seed_rejected():
    # at the l = 1 crossing both quartic roots coincide only in n; the
    # seed -1 is simple, so no error -- build an artificial degenerate call
    with pytest.raises(ValueError):
        mu_via_ift(0, Family.FIRST)


@pytest.mark.parametrize(
    "l", [0, -1, 2.5, 2.0, np.int64(2), True, False],
    ids=["0", "-1", "2.5", "2.0", "int64", "True", "False"],
)
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_routes_share_the_index_domain(l, family):
    # every route takes the quartic's index, an int l >= 1; the quadrature
    # once gave mu = 0, converged, for l = 0 and the second family
    with pytest.raises(ValueError, match="l must be an int >= 1"):
        mu_via_ift(l, family)
    with pytest.raises(ValueError, match="l must be an int >= 1"):
        mu_via_quadrature(l, family)
    with pytest.raises(ValueError, match="l must be an int >= 1"):
        solve_correction(l, family, 0.5, z_cut=10.0, num_points=101)


def test_correction_preconditions():
    # a z_cut that is not positive and finite once gave a reversed grid
    # (-5) or numpy warnings before a NumericsError (0, inf)
    for z_cut in (-5.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="z_cut must be positive and finite"):
            solve_correction(2, Family.SECOND, 0.5, z_cut=z_cut)
    with pytest.raises(ValueError, match="num_points"):
        solve_correction(2, Family.SECOND, 0.5, num_points=8)
    with pytest.raises(NumericsError, match="non-finite"):
        solve_correction(2, Family.SECOND, math.nan, z_cut=10.0, num_points=101)


def test_correction_zero_source_gives_zero():
    sol = solve_correction(1, Family.FIRST, 0.0, z_cut=30.0, num_points=1201)
    assert np.max(np.abs(sol.phi)) == 0.0
    assert sol.interior_residual_max == 0.0
    assert sol.resonance_amplitude == 0.0


def test_correction_parity_and_orthogonality():
    sol = solve_correction(2, Family.SECOND, 0.5, z_cut=50.0, num_points=2001)
    scale = np.max(np.abs(sol.phi))
    assert scale > 0.0
    asym = np.max(np.abs(sol.phi - sol.phi[::-1]))
    assert asym <= 1e-3 * scale
    assert abs(sol.orthogonality_value) <= 1e-8 * scale


def test_correction_resonance_tracks_solvability():
    # mu = 1/2 satisfies the orthogonality condition for this seed; the
    # quartic slope 12/5 does not, and the solver must say so loudly
    ok = solve_correction(2, Family.SECOND, 0.5, z_cut=50.0, num_points=2001)
    bad = solve_correction(2, Family.SECOND, 12.0 / 5.0, z_cut=50.0, num_points=2001)
    assert abs(bad.resonance_amplitude) > 20.0 * abs(ok.resonance_amplitude)


def test_correction_grid_refinement_consistency():
    # doubling the resolution at fixed window leaves the sampled solution
    # essentially unchanged (the correction is uniquely determined)
    coarse = solve_correction(2, Family.SECOND, 0.5, z_cut=40.0, num_points=1001)
    fine = solve_correction(2, Family.SECOND, 0.5, z_cut=40.0, num_points=2001)
    scale = np.max(np.abs(fine.phi))
    assert np.max(np.abs(fine.phi[::2] - coarse.phi)) <= 1e-3 * scale


def test_correction_residual_shrinks_with_window():
    # the interior defect is the truncated-tail part of the solvability
    # integral, so widening the window is what reduces it
    res = [
        solve_correction(2, Family.SECOND, 0.5, z_cut=Z, num_points=N).interior_residual_max
        for Z, N in ((40.0, 1001), (80.0, 2001), (160.0, 4001))
    ]
    assert res[1] <= 0.75 * res[0]
    assert res[2] <= 0.75 * res[1]


@settings(max_examples=30, deadline=None)
@given(
    l=st.integers(1, 12),
    family=st.sampled_from(list(Family)),
    mu=st.floats(-50.0, 50.0),
    z_cut=st.floats(5.0, 200.0),
    num_points=st.integers(101, 8001),
)
# SuperLU's worst draw (row residual 1.7e-9 of its terms)
@example(l=1, family=Family.SECOND, mu=21.480696666933824, z_cut=117.07041539208687, num_points=8001)
# the band is singular to working precision at these two: plain block
# elimination, x_h - s x_u, leaves 1.1e-3 at the first, and 1.5e-8 at the
# second even after a refinement step
@example(l=2, family=Family.SECOND, mu=26.619652, z_cut=48.825574, num_points=101)
@example(l=2, family=Family.SECOND, mu=26.711422308959882, z_cut=49.947032354576464, num_points=101)
# without the refinement step the solve leaves 1.7e-10 here
@example(l=5, family=Family.FIRST, mu=42.767276084444774, z_cut=90.43263853911375, num_points=5821)
def test_correction_solves_its_bordered_system(l, family, mu, z_cut, num_points):
    # each row's residual in the oracle's system against the sum of its
    # term sizes; the last row is the normalization
    A, rhs, z = correction_system(l, family, mu, z_cut, num_points)
    sol = solve_correction(l, family, mu, z_cut, num_points)
    assert np.array_equal(sol.z, z)
    x = np.append(sol.phi, sol.resonance_amplitude)
    res, size = np.abs(A @ x - rhs), abs(A) @ np.abs(x) + np.abs(rhs)
    assert np.all(res[:-1] <= 1e-11 * size[:-1]), float(np.max(res[:-1] / size[:-1]))
    assert res[-1] <= 1e-11 * size[-1], res[-1] / size[-1]


@pytest.mark.xfail(
    strict=True,
    reason="phi is not determined by its bordered finite-difference system: "
    "SuperLU in its natural column order, on the same system assembled from "
    "the z-form oracles, lands 0.81 times phi's max norm away from the "
    "shipped phi at l = 1, second family",
)
def test_correction_does_not_depend_on_the_lu_column_order():
    import scipy.sparse.linalg

    shipped = solve_correction(1, Family.SECOND, 0.5)
    A, rhs, _ = correction_system(1, Family.SECOND, 0.5, 50.0, 4001)
    natural = scipy.sparse.linalg.spsolve(A, rhs, permc_spec="NATURAL")[:-1]
    scale = np.max(np.abs(shipped.phi))
    assert np.max(np.abs(natural - shipped.phi)) <= 1e-6 * scale


def test_expansion_second_difference_is_second_order():
    # smooth first-order structure of the shot profile along the branch:
    # the second difference in n of the normalized profiles is O(n^2)
    from cracktip import build_quartic, real_roots, shoot

    def profile(n):
        roots = [r for r in real_roots(build_quartic(2, n)) if -4.0 < r < -1.5]
        lam = max(roots)
        sol = shoot(2, n, lam, z_max=6.0, rtol=1e-12, atol=1e-13)
        zs = np.linspace(-5.0, 5.0, 81)
        return np.interp(zs, sol.z, sol.psi)

    h = 2e-3
    d2 = profile(2 * h) - 2.0 * profile(h) + profile(0.0)
    d2_half = profile(h) - 2.0 * profile(0.5 * h) + profile(0.0)
    ratio = np.max(np.abs(d2)) / np.max(np.abs(d2_half))
    assert ratio == pytest.approx(4.0, abs=0.6)


@pytest.mark.xfail(
    strict=True,
    reason="the shipped first-order source term does not reproduce the "
    "n-derivative of the shot profile (its mu-coefficient carries z psi' "
    "where the true linearization needs 2 z psi'), so the expansion "
    "psi + n phi is first-order accurate only in the documented variant",
)
def test_correction_first_order_validation_literal():
    from cracktip import build_quartic, real_roots, shoot

    pair = build_eigenfunction(2, Family.FIRST)
    mu = mu_via_ift(2, Family.FIRST)
    corr = solve_correction(2, Family.FIRST, mu, z_cut=50.0, num_points=4001)

    def err(n):
        roots = [r for r in real_roots(build_quartic(2, n)) if -4.0 < r < -1.5]
        sol = shoot(2, n, max(roots), z_max=6.0, rtol=1e-12, atol=1e-13)
        zs = np.linspace(0.0, 5.0, 51)
        shot = np.interp(zs, sol.z, sol.psi)
        expansion = pair.poly(zs) + n * np.interp(zs, corr.z, corr.phi)
        expansion0 = pair.poly(0.0) + n * np.interp(0.0, corr.z, corr.phi)
        return np.max(np.abs(shot - expansion / expansion0))

    ratio = err(1e-3) / err(5e-4)
    assert ratio == pytest.approx(4.0, abs=0.5)
