import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from cracktip import (
    Family,
    NumericsError,
    QuasilinearDegeneracyError,
    build_eigenfunction,
    isolate_second_derivative,
    shoot,
    two_sided_profile,
)
from cracktip.shooting import _tip_kernel, _trajectory
from cracktip._dopri import _dense, _interpolate, _powers, _step_zero, integrate
from oracles import (
    ARCTAN_EXAMPLE_ADMISSIBLE, arctan_example, arctan_ode_residual, closed_form_lambda0_derivative,
)


def test_reduction_at_n_zero():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = float(rng.uniform(-8, 8))
        psi = float(rng.normal())
        dpsi = float(rng.normal())
        lam = float(rng.uniform(-6, -0.5))
        got = isolate_second_derivative(z, psi, dpsi, lam, 0.0)
        want = -(lam * (lam + 1) * psi + 2 * (lam + 1) * z * dpsi) / (1 + z * z)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_reduction_at_lambda_zero():
    rng = np.random.default_rng(8)
    for _ in range(50):
        z = float(rng.uniform(-8, 8))
        dpsi = float(rng.normal()) or 1.0
        psi = float(rng.normal())
        n = float(rng.uniform(0, 4))
        got = isolate_second_derivative(z, psi, dpsi, 0.0, n)
        want = -2 * z * (1 + (1 + n) * z * z) * dpsi / ((1 + n) * (1 + z * z) ** 2)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_affine_mode_has_zero_curvature():
    for n in (0.0, 0.3, 5.0):
        for z in (-7.0, 0.0, 0.4, 12.0):
            assert isolate_second_derivative(z, z, 1.0, -1.0, n) == 0.0


def test_degenerate_state_rejected():
    with pytest.raises(QuasilinearDegeneracyError):
        isolate_second_derivative(1.0, 0.0, 0.0, -2.0, 0.1)


def test_kernel_rejects_negative_or_non_finite_parameters():
    # for n < 0 the divisor 1 + z^2 + n w^2/den can vanish: at n = -1 it is
    # 1e-14 and 1e-8 for these two states
    for lam, n in ((-1.0, -1.0), (-1.0, -1e-300), (math.nan, 1.0), (math.inf, 1.0),
                   (-2.0, math.nan), (-2.0, math.inf)):
        for psi in (1e-7, 1e-4):
            with pytest.raises(ValueError, match="n must be"):
                isolate_second_derivative(0.0, psi, 1.0, lam, n)
        with pytest.raises(ValueError, match="n must be"):
            _tip_kernel(lam, n)


def _exact_second_derivative(z, psi, dpsi, lam, n):
    """Psi'' of the tip equation in exact rational arithmetic, and a
    first-order bound on the float kernel's error in units of 2^-52: 16
    times the numerator's terms in absolute value over the divisor, plus
    the roundings of g and w = z g + Psi', which can cancel, carried
    through Psi''.  A term on the subnormal grid is also off by its spacing
    2^-1074 (2^-52 times 2^-1022, and 4 times that here), which is larger
    by the scale where a state past 2^900 is scaled to unit size: its
    products by the coefficients drawn here, at most 2^100 times the state,
    can overflow.  The term 2 n lam Psi'^2 g/den is formed from the smaller
    of Psi' and g, so its spacing is that one's."""
    z, psi, dpsi, lam, n = map(Fraction, (z, psi, dpsi, lam, n))
    g = lam * psi + z * dpsi
    den = dpsi * dpsi + g * g
    w = z * g + dpsi
    p0 = (lam + 1) * (g + z * dpsi)
    nf1 = 1 + n * g * g / den
    last = 2 * n * lam * dpsi * dpsi * g / den
    coeff = 1 + z * z + n * w * w / den
    d2 = -(p0 * nf1 + last) / coeff
    tiny = Fraction(2) ** -1020 * max(1, max(abs(psi), abs(dpsi)) / 2 ** 900)
    terms = (abs(lam + 1) * (abs(lam * psi) + 2 * abs(z * dpsi) + 4 * tiny) * nf1 + abs(last)
             + (1 + abs(2 * n * lam) * min(abs(dpsi), abs(g))) * tiny)
    dg = abs(lam * psi) + abs(z * dpsi) + 2 * tiny
    dw = abs(z) * dg + abs(z * g) + abs(dpsi)
    # d/dg of the numerator and of the divisor at fixed w, and d/dw of the divisor
    dnum_g = n * abs(2 * p0 * g + 2 * lam * (dpsi * dpsi - g * g)) * dpsi * dpsi / den ** 2
    dcoeff_g, dcoeff_w = 2 * n * w * w * abs(g) / den ** 2, 2 * n * abs(w) / den
    carried = ((dnum_g + abs(d2) * dcoeff_g) * dg + abs(d2) * dcoeff_w * dw) / coeff
    return d2, 16 * terms / coeff + 4 * carried


def _assert_accurate(z, psi, dpsi, lam, n, fn=isolate_second_derivative):
    """fn's Psi'' is within the bound of ``_exact_second_derivative`` and
    the rounding of a subnormal result, or is +-inf only past the largest
    double, or it raises for a gradient that underflows to 0."""
    try:
        got = fn(z, psi, dpsi, lam, n)
    except QuasilinearDegeneracyError:
        assert dpsi == 0.0 and lam * psi == 0.0
        return
    want, bound = _exact_second_derivative(z, psi, dpsi, lam, n)
    bound = bound * Fraction(2) ** -52 + Fraction(2) ** -1074
    if math.isfinite(got):
        assert abs(Fraction(got) - want) <= bound
    else:
        assert math.isinf(got) and (got > 0) == (want > 0)
        assert abs(want) + bound > Fraction(sys.float_info.max)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-50.0, 50.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    st.floats(-200.0, 0.5), st.floats(0.0, 5.0), st.integers(400, 1020),
)
# psi'^2 is subnormal here: the former coefficient rounded to 2.48837 for the exact 2.5
@example(0.0, 1.0, 1.4649721964977102e-161, 0.0, 1.5, 400)
# scaled by 2^512, only n (Psi'^2 + 2 z Psi' g) overflowed: once -0.0 for -3.2e153
@example(0.25, 0.0, 0.96875, 0.0, 1.0, 512)
def test_second_derivative_scales_past_overflow(z, psi, dpsi, lam, n, k):
    # homogeneous of degree 1: a state near the top of the double range
    # gives the scaled Psi'' where the plain products would overflow
    if max(abs(psi), abs(dpsi)) < 1e-3:
        return
    try:
        d2 = isolate_second_derivative(z, psi, dpsi, lam, n)
    except QuasilinearDegeneracyError:
        return
    _assert_accurate(z, psi, dpsi, lam, n)
    try:
        big = math.ldexp(d2, k)
    except OverflowError:
        return
    got = isolate_second_derivative(z, math.ldexp(psi, k), math.ldexp(dpsi, k), lam, n)
    assert got == pytest.approx(big, rel=1e-12, abs=1e-12 * math.ldexp(1.0, k))


# 0.0 or m 10^e for 1 <= |m| <= 10 and -160 <= e < 300
_STATE = st.builds(lambda m, e: 0.0 if e < -160 else m * 10.0 ** e,
                   st.floats(1.0, 10.0) | st.floats(-10.0, -1.0), st.integers(-161, 299))


@settings(max_examples=400, deadline=None)
@given(st.floats(-1e300, 1e300), _STATE, _STATE, st.floats(-200.0, 0.5), st.floats(0.0, 1e20))
# den is subnormal, or overflows: the ratios come from the gradient scaled to unit size
@example(0.0, 1.0, 1.4649721964977102e-161, 0.0, 1.5)
@example(1e3, 1e300, 1e300, -100.0, 2.0)
# den is finite but 2 z Psi' g overflowed the former coefficient to -inf
@example(1e6, 5.000005e158, 1e153, -2.0, 0.5)
@example(1.0, 0.0, 0.0, -2.0, 0.1)  # den = 0 raises
# n (Psi'^2 + 2 z Psi' g) overflowed the former coefficient, and Psi'' was -0.0
@example(2.0, 0.0, 2.0 ** 510, 0.0, 2.0)
# den is above 2^-900, but n lam Psi'^2 g formed before the division underflowed:
# once 2.37e-135 for 1.21e-134
@example(0.16327880434007813, 4.490346156792418e-154, 5.981398497810973e-136, -63.94840457807098,
         4.654868070145721)
# P0 cancels on its own, to 1.8e-12 relative
@example(1.0, -2.00001, -2.0, -2.00001, 0.0)
# (lam+1)(g + z Psi') overflows, and Psi'' = 4e296 comes from the state scaled to unit size
@example(1e6, 1e300, 1e300, -200.0, 0.0)
# den overflows; scaled to unit size, Psi = 1e-160 would underflow to 0 and Psi'' with it
@example(0.0, 1e-160, 1e299, -3.0, 2.0)
# 1 + z^2 and w^2/den overflow: once 0 inf = nan for 1.5e-160
@example(1e160, 0.0, 0.75, -2.0, 0.0)
# Psi'' = -4e324 is past the largest double: once a bare OverflowError
@example(0.0, 1e300, 0.0, -200.0, 1e20)
# z Psi' overflows as well as z^2: Psi'' = -2e-291 through the state scaled to
# unit size, where the power of two must be applied once, not to a subnormal
@example(9.999999999999925e+299, 1e19, 1e9, 0.0, 0.0)
# only z^2 overflows: the state scaled to unit size would lose Psi' = 1e-50
@example(1e160, 1e300, 1e-50, 0.0, 0.0)
# at lam = -1 the numerator is 2 n lam Psi'^2 g/den alone, and Psi' (Psi' g/den)
# is subnormal or 0: once -2.85669e-300 for -2.85714e-300, and -0.0 for -2e-309
@example(0.0, 0.7, 1e-160, -1.0, 1e20)
@example(0.0, 1e9, 1e-160, -1.0, 1e20)
# the same at lam = -1 where z^2 overflows: once -0.0 for -2e-191, and
# -2.000421763024855e-181 for -2e-181
@example(-1e160, 0.0, 1e299, -1.0, 1e-10)
@example(-1e160, 0.0, 1e299, -1.0, 1e20)
def test_kernel_matches_the_exact_formula(z, psi, dpsi, lam, n):
    # the float kernel against the same Psi'' in exact rational arithmetic,
    # to the rounding of its terms; a raise or an overflow only where the
    # gradient or Psi'' leaves the double range
    _assert_accurate(z, psi, dpsi, lam, n)
    _assert_accurate(z, psi, dpsi, lam, n,
                     lambda z, psi, dpsi, lam, n: _tip_kernel(lam, n)(z, psi, dpsi))


def test_kernel_is_right_or_raises_at_large_n():
    # the former coefficient summed terms of size n that cancel to about 10,
    # and had the wrong sign at n = 1e17; the divisor 1 + z^2 + n w^2/den
    # adds nonnegative terms.  w is 1e-8 of its terms here, so from n of
    # about 1e18 its rounding moves Psi'', as ``_exact_second_derivative``'s
    # bound allows
    state = (-3.093095221783628, -0.061367014581903426, 0.27071300920760466, -15.071009075929592)
    z, psi, dpsi, lam = state
    for n in (1e6, 1e12, 1e16, 1e17):
        want = _exact_second_derivative(z, psi, dpsi, lam, n)[0]
        got = isolate_second_derivative(z, psi, dpsi, lam, n)
        assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 12) * abs(want), n


def test_kernel_rescales_an_overflowing_coefficient():
    # the former coefficient's n (Psi'^2 + 2 z Psi' g) overflowed here while
    # den and Psi'' stay finite; homogeneous of degree 1, the state scaled by
    # 2^-510 gives 2^-510 Psi''
    want = math.ldexp(isolate_second_derivative(2.0, 0.0, 1.0, 0.0, 2.0), 510)
    got = isolate_second_derivative(2.0, 0.0, math.ldexp(1.0, 510), 0.0, 2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_shot_past_the_product_overflow():
    # |Psi| passes 1e154 near z = 34; the zeros are the n = 0 lattice
    # cot(pi/2 +- (k + 1/2) pi/100), and Psi(100) ~ 1e200 is still a double
    got = shoot(2, 0.0, -100.0).zeros.zeros
    want = sorted(1.0 / math.tan(math.pi / 2 + s * (k + 0.5) * math.pi / 100)
                  for k in range(50) for s in (1, -1))
    assert len(got) == 100
    assert max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, want)) <= 1e-8
    # Psi(100) ~ 1e400 is not a double: a numerical failure, not a recursion
    with pytest.raises(NumericsError, match="non-finite"):
        shoot(2, 0.0, -200.0)


def test_evaluation_past_the_span_raises():
    sol = shoot(3, 0.0, -3.0, z_max=10.0)
    assert sol.evaluate(-10.0) == pytest.approx((-sol.evaluate(10.0)[0], sol.evaluate(10.0)[1]))
    for z in (50.0, -10.5, math.nan):
        with pytest.raises(ValueError, match="span"):
            sol.evaluate(z)
    with pytest.raises(TypeError):
        sol.evaluate(np.array([1.0, 50.0]))
    prof = two_sided_profile(0.0, -3.0, (0.0, 1.0), 5.0)
    assert math.isfinite(prof.evaluate(5.0)[0]) and math.isfinite(prof.evaluate(-5.0)[1])
    for z in (40.0, -5.5, math.nan):
        with pytest.raises(ValueError, match="span"):
            prof.evaluate(z)


# (Psi, Psi') of shoot(3, 0.05, -3.1, z_max=10) and of
# two_sided_profile(0.05, -3.1, (1.0, 0.5), 5.0), recorded from the shot's
# evaluate and the profile's psi and dpsi before these became one evaluate
SHOT_STATES = {2: (-1.354813819967961, -3.955956587299164),
               -1.5: (-0.06205435650009248, -1.8145012599443537),
               -4: (22.453148289535605, -18.855987157536727), 0.0: (0.0, 1.0)}
PROFILE_STATES = {2: (-12.175391611196186, -13.492930210884651),
                  -1.5: (-6.308501071317656, 8.230055376172437),
                  -4: (-28.439475451407922, 6.247928720661649), 0.0: (1.0, 0.5)}


def test_evaluate_reads_one_number():
    # an int and a numpy float read as the float they equal; an array is
    # no number, and float() rejects it
    sol = shoot(3, 0.05, -3.1, z_max=10.0)
    prof = two_sided_profile(0.05, -3.1, (1.0, 0.5), 5.0)
    for record, states in ((sol, SHOT_STATES), (prof, PROFILE_STATES)):
        for z, want in states.items():
            for arg in (z, np.float64(z)):
                got = record.evaluate(arg)
                assert got == want and all(type(v) is float for v in got), (record, arg)
        for z in (np.array([1.0, 2.0]), np.zeros((2, 2)), [1.0]):
            with pytest.raises(TypeError):
                record.evaluate(z)


@pytest.mark.parametrize("z0, z_end", [(0.0, 5.0), (1.0, -2.0)])
def test_trajectory_reads_only_its_span(z0, z_end):
    # both ends read, and the next double past either end or nan raises,
    # where the end step's interpolant was once extrapolated
    traj = _trajectory(-2.0, 0.0, z0, (1.0, 0.0), z_end, 1e-10, 1e-10)
    assert traj.sol(z0) == (1.0, 0.0) and traj.sol(z_end) == pytest.approx(traj.end, rel=1e-12)
    for z in (math.nextafter(z0, 2 * z0 - z_end), math.nextafter(z_end, 2 * z_end - z0), math.nan):
        with pytest.raises(ValueError, match="span"):
            traj.sol(z)


@pytest.mark.parametrize("family", [Family.FIRST, Family.SECOND])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_linear_shot_reproduces_eigenfunctions(l, family):
    pair = build_eigenfunction(l, family)
    sol = shoot(l, 0.0, pair.lam, z_max=10.0)
    zs = np.linspace(-5.0, 5.0, 101)
    shot = np.interp(zs, sol.z, sol.psi)
    norm = pair.poly(0.0) if l % 2 == 0 else pair.poly.derivative()(0.0)
    assert np.max(np.abs(norm * shot - pair.poly(zs))) <= 1e-6


@pytest.mark.parametrize("l,n", [(2, 0.03), (3, 0.02), (4, 0.01)])
def test_sample_parity_matches_index(l, n):
    from cracktip import build_quartic, real_roots

    lam = max(r for r in real_roots(build_quartic(l, n)) if r > -l - 2.0)
    sol = shoot(l, n, lam, z_max=20.0)
    sign = 1.0 if l % 2 == 0 else -1.0
    psi = np.array(sol.psi)
    assert np.max(np.abs(psi - sign * psi[::-1])) == 0.0


def test_shot_zero_structure_degree_three():
    sol = shoot(3, 0.0, -3.0, z_max=100.0)
    r3 = math.sqrt(3.0)
    assert sol.zeros.zeros == pytest.approx((-r3, 0.0, r3), abs=1e-9)
    assert sol.zeros.all_transversal
    assert sol.growth_exponent == pytest.approx(3.0, abs=0.01)


def test_affine_solution_is_exact():
    # lam = -1 with odd data gives Psi = z for every n; on a moderate
    # window the integrator tracks it to full precision
    sol = shoot(1, 5.0, -1.0, z_max=10.0, rtol=1e-12, atol=1e-14)
    z, psi = np.array(sol.z), np.array(sol.psi)
    rel = np.abs(psi - z) / (1.0 + np.abs(z))
    assert np.max(rel) <= 1e-12
    assert sol.zeros.zeros == pytest.approx((0.0,), abs=1e-14)


def test_closed_form_values():
    assert closed_form_lambda0_derivative(0.0, 0.0) == pytest.approx(1.0)
    assert closed_form_lambda0_derivative(1.0, 0.0) == pytest.approx(math.exp(-0.5))


def test_closed_form_matches_integration():
    prof = two_sided_profile(1.0, 0.0, (0.0, math.exp(-0.5)), 10.5, rtol=1e-12, atol=1e-13)
    for z in np.linspace(0.0, 10.0, 41):
        assert prof.evaluate(z)[1] == pytest.approx(closed_form_lambda0_derivative(1.0, z),
                                                    abs=1e-8)


def test_arctan_solution():
    assert arctan_example(0.0) == 0.0
    assert arctan_example(1e8) == pytest.approx(math.pi / 2, abs=1e-7)
    assert arctan_example(-1e8) == pytest.approx(-math.pi / 2, abs=1e-7)
    assert abs(arctan_ode_residual(3.0)) <= 1e-12
    assert ARCTAN_EXAMPLE_ADMISSIBLE is False


def test_two_sided_profile_even_combination():
    # at n = 0, lam = -2 the even profile is proportional to z^2 - 1
    prof = two_sided_profile(0.0, -2.0, (1.0, 0.0), 5.0)
    assert sorted(prof.zeros()) == pytest.approx([-1.0, 1.0], abs=1e-10)
    assert prof.evaluate(2.0)[0] == pytest.approx(-3.0 * prof.evaluate(0.0)[0], rel=1e-9)


def test_shot_growth_tracks_eigenvalue():
    # below the fold the asymptotic exponent is -Lambda, which drifts from
    # the integer index as n grows
    from cracktip import build_quartic, real_roots

    n = 0.089343_0  # about 0.75 of the l = 2 fold
    lam = max(r for r in real_roots(build_quartic(2, n)) if r > -4.0)
    sol = shoot(2, n, lam, z_max=100.0)
    assert sol.growth_exponent == pytest.approx(-lam, abs=0.05)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_growth_exponent_is_the_end_log_derivative(l):
    # at n = 0 the shot from the parity start is Re (z+i)^l up to scale, so
    # the exponent is z p'/p at z_max = 100 with p' = l Re (z+i)^(l-1): 6.0030
    # at l = 6, where a log-log fit over [10, 100] gave 6.037
    z = Fraction(100)
    powers = [(Fraction(1), Fraction(0))]
    for _ in range(l):
        re, im = powers[-1]
        powers.append((re * z - im, re + im * z))
    want = z * l * powers[l - 1][0] / powers[l][0]
    assert shoot(l, 0.0, -float(l)).growth_exponent == pytest.approx(float(want), rel=1e-8)


@pytest.mark.xfail(
    strict=True,
    reason="below the fold the far-field exponent is -Lambda(n), which exceeds "
    "l + 0.1 once n is a sizable fraction of the fold value; the stated "
    "integer-window bound only holds near n = 0",
)
def test_growth_exponent_integer_window_at_large_n():
    from cracktip import build_quartic, real_roots

    n = 0.75 * 0.119124238252
    lam = max(r for r in real_roots(build_quartic(2, n)) if r > -4.0)
    sol = shoot(2, n, lam, z_max=100.0)
    assert 1.9 <= sol.growth_exponent <= 2.1


def test_growth_exponent_integer_window_near_zero():
    from cracktip import build_quartic, real_roots

    n = 0.1 * 0.119124238252
    lam = max(r for r in real_roots(build_quartic(2, n)) if r > -4.0)
    sol = shoot(2, n, lam, z_max=100.0)
    assert 1.9 <= sol.growth_exponent <= 2.1


def test_shoot_keeps_zeros_near_the_origin():
    # at n = 0 and lambda = -L the zeros are the lattice tan((k + 1/2) pi / L);
    # for L = 1e14 six of them lie below 1e-13, which shoot once dropped
    sol = shoot(2, 0.0, -1e14, z_max=1e-12)
    zeros = sol.zeros.zeros
    assert len(zeros) == len(two_sided_profile(0.0, -1e14, (1.0, 0.0), 1e-12).zeros()) == 64
    small = [z for z in zeros if abs(z) < 1e-13]
    want = sorted(s * math.tan((k + 0.5) * math.pi / 1e14) for k in range(3) for s in (-1, 1))
    assert small == pytest.approx(want, rel=1e-9)


def test_preconditions():
    with pytest.raises(ValueError):
        shoot(0, 0.0, -1.0)
    for l in (2.5, 2.0, np.int64(2), True, False):  # the index rule of the quartic: an int l >= 1
        with pytest.raises(ValueError, match="l must be an int >= 1"):
            shoot(l, 0.0, -2.0)
    for n, lam in ((-0.5, -2.0), (math.nan, -2.0), (math.inf, -2.0), (0.0, math.nan),
                   (0.0, math.inf)):
        with pytest.raises(ValueError):
            shoot(2, n, lam)
        with pytest.raises(ValueError):
            two_sided_profile(n, lam, (1.0, 0.0), 5.0)
    for ttol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="transversality_tol"):
            shoot(2, 0.0, -2.0, transversality_tol=ttol)
    for z_max in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="z_max"):
            shoot(2, 0.0, -2.0, z_max=z_max)
        with pytest.raises(ValueError, match="z_max"):
            two_sided_profile(0.0, -2.0, (1.0, 0.0), z_max)
    with pytest.raises(ValueError):
        closed_form_lambda0_derivative(-1.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    l=st.integers(min_value=1, max_value=6),
    shift=st.floats(min_value=0.0, max_value=0.5),
    n=st.floats(min_value=0.0, max_value=0.05),
    theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    z0=st.floats(min_value=-5.0, max_value=5.0),
    span=st.floats(min_value=0.5, max_value=30.0),
    backward=st.booleans(),
    on_zero=st.booleans(),
    tols=st.sampled_from([(1e-10, 1e-10), (1e-11, 1e-12)]),
)
# Psi'' = 0 everywhere, so every error estimate is rounding: 5 steps here, 4 for scipy
@example(l=1, shift=0.0, n=0.0, theta=1.0, z0=0.0, span=6.0, backward=False, on_zero=False,
         tols=(1e-11, 1e-12))
# Psi = z, on which this stepper's stages stay exactly: 7 steps here, 6 for scipy
@example(l=1, shift=0.0, n=0.03125, theta=0.0, z0=0.0, span=30.0, backward=False, on_zero=True,
         tols=(1e-11, 1e-12))
# runs that part from scipy's and meet rejections: 9 steps and 11 trials against 8
# and 9, and 5 and 7 against 4 and 4
@example(l=6, shift=0.5, n=0.008111607028853853, theta=0.5, z0=0.008111607028853853, span=0.5,
         backward=False, on_zero=False, tols=(1e-11, 1e-12))
@example(l=1, shift=1e-09, n=0.0, theta=0.0, z0=-3.0713720104198945, span=7.0, backward=False,
         on_zero=True, tols=(1e-10, 1e-10))
# Psi = 1 - z^2 ends on its zero, which scipy's end state rounds onto and this one does not
@example(l=2, shift=0.0, n=0.0, theta=0.0, z0=0.0, span=1.0, backward=False, on_zero=False,
         tols=(1e-11, 1e-12))
def test_trajectory_matches_solve_ivp(l, shift, n, theta, z0, span, backward, on_zero, tols):
    # the in-module DOP853 stepper against scipy's with the same kernel and
    # tolerances.  An eighth-order error estimate on a step far below the
    # tolerance is rounding, and so is the next step size, so two correct
    # implementations part after a step or two: scipy's own runs do on most
    # of a grid of these inputs, and their step counts on 14 of 5184, when
    # its dot products sum left to right instead of by BLAS.  So the run is
    # held to scipy's by its counts, and each of its steps to scipy's step
    # from the same state by the same h, which agrees to rounding
    lam = -l - shift
    y0 = (0.0, math.copysign(1.0, math.sin(theta))) if on_zero else (math.cos(theta), math.sin(theta))
    z_end = z0 - span if backward else z0 + span

    def f(z, y):
        return y[1], isolate_second_derivative(z, y[0], y[1], lam, n)

    ref = solve_ivp(f, (z0, z_end), list(y0), method="DOP853", rtol=tols[0], atol=tols[1])
    # scipy's error norm is 0/0 once both of its estimates underflow
    assume(ref.status == 0)
    got = _trajectory(lam, n, z0, y0, z_end, *tols)
    assert abs(got.steps - (ref.t.size - 1)) <= 1
    # the trial steps, 12 calls each after the initial 2, to three or 10%: a
    # parted run can meet rejections the other does not
    trials = (got.nfev - 2 - 3 * len(got._dense)) / 12
    assert abs(trials - (ref.nfev - 2) / 12) <= max(3.0, 0.1 * (ref.nfev - 2) / 12)

    zs = np.linspace(z0, z_end, 101)
    have, want = np.array([got.sol(z) for z in zs.tolist()]).T, np.empty((2, zs.size))
    keys = np.sign(z_end - z0) * np.array(got._zs)
    at = np.clip(np.searchsorted(keys, np.sign(z_end - z0) * zs) - 1, 0, got.steps - 1)
    states, crossings = got._states, []
    for i in range(got.steps):
        a, b = got._zs[i], got._zs[i + 1]
        step = DOP853(f, a, states[i], b, rtol=tols[0], atol=tols[1], first_step=abs(b - a))
        step.step()
        # scipy's error norm is 0/0 once its estimates underflow, and an error
        # of 1 to rounding can reject a step by h that this stepper took
        assume(step.status != "failed" and abs(step.t - b) <= 1e-12 * (abs(a) + abs(b)))
        end = step.y
        assert np.max(np.abs(np.array(states[i + 1]) - end)) <= 1e-9 * np.max(np.abs(end))
        dense = step.dense_output()
        want[:, at == i] = dense(zs[at == i])
        if states[i][0] <= 0.0 <= states[i + 1][0] or states[i][0] >= 0.0 >= states[i + 1][0]:
            crossings.append(dense)
    for c in range(2):
        assert np.max(np.abs(have[c] - want[c])) <= 1e-9 * np.max(np.abs(want[c]))
    # scipy's interpolant vanishes at each zero, a start on Psi = 0 among
    # them, to within 1e-10 of its slope
    assert len(crossings) == len(got.zeros)
    for zero, dense in zip(got.zeros, crossings):
        psi, dpsi = dense(zero)
        assert abs(psi) <= 1e-10 * abs(dpsi) + 1e-15 * np.max(np.abs(want[0]))


def test_trajectory_failures_raise():
    # a degenerate state: den = Psi'^2 + (lam Psi + z Psi')^2 = 0
    with pytest.raises(QuasilinearDegeneracyError):
        _trajectory(-2.0, 0.1, 0.0, (0.0, 0.0), 5.0, 1e-10, 1e-10)
    with pytest.raises(QuasilinearDegeneracyError):
        _trajectory(0.0, 0.1, 1.0, (1.0, 0.0), -5.0, 1e-10, 1e-10)
    # a tolerance below rounding drives the step to 10 ulps of z
    with pytest.raises(NumericsError, match="step size"):
        _trajectory(-2.0, 0.0, 1.0, (1.0, 0.5), 2.0, 0.0, 1e-150)
    # Psi'' = Psi'^2 from Psi'(0) = 1: Psi' = 1 / (1 - z) blows up at z = 1
    with pytest.raises(NumericsError, match="step size"):
        integrate(lambda z, psi, dpsi: dpsi * dpsi, 0.0, (0.0, 1.0), 2.0, 1e-10, 1e-10)
    with pytest.raises(NumericsError, match="non-finite"):
        integrate(lambda z, psi, dpsi: math.nan if z > 1.0 else 0.0, 0.0, (0.0, 1.0), 2.0,
                  1e-10, 1e-10)
    # an extra stage of the dense output that is not finite
    with pytest.raises(NumericsError, match="non-finite dense output"):
        _dense(lambda z, psi, dpsi: math.nan, 0.0, 1.0, (0.0, 1.0), (1.0, 1.0), 0.0,
               (0.0,) * 8, (0.0,) * 8)
    # Psi'' so large that the initial step 0.01 d0/d1 underflows to 0, where
    # its second estimate once divided by it
    with pytest.raises(NumericsError):
        integrate(lambda z, psi, dpsi: -1e300 * psi, 0.0, (1.0, 0.0), 1.0, 1e-10, 1e-10)
    with pytest.raises(NumericsError):
        shoot(2, 0.0, 1e300)


def test_integrate_rejects_bad_tolerances_and_spans():
    # once silently wrong: zeros +-0.99320 for the exact +-1, and [-0.616, 1.593]
    with pytest.raises(ValueError, match="rtol"):
        shoot(2, 0.0, -2.0, rtol=-1.0)
    with pytest.raises(ValueError, match="atol"):
        two_sided_profile(0.0, -2.0, (1.0, 1.0), 5.0, atol=-1.0)
    bad = [((0.0, 5.0, rtol, 1e-10), "rtol") for rtol in (-1.0, -1e-300, math.nan, math.inf)]
    bad += [((0.0, 5.0, 1e-10, atol), "atol") for atol in (0.0, -1.0, math.nan, math.inf)]
    bad += [((z0, z_end, 1e-10, 1e-10), "z0 and z_end")
            for z0, z_end in ((math.nan, 5.0), (0.0, math.nan), (-math.inf, 0.0),
                              (0.0, math.inf), (2.5, 2.5))]
    for (z0, z_end, rtol, atol), name in bad:
        with pytest.raises(ValueError, match=name):
            _trajectory(-2.0, 0.05, z0, (1.0, 0.0), z_end, rtol, atol)
    # once NumericsError("non-finite state at z=nan"), a z never reached
    for y0 in ((math.nan, 1.0), (math.inf, 1.0), (0.0, -math.inf)):
        with pytest.raises(ValueError, match="y0"):
            two_sided_profile(0.0, -2.0, y0, 5.0)
    # rtol = 0 is a pure absolute tolerance; Psi = 1 - z^2
    zeros = _trajectory(-2.0, 0.0, 0.0, (1.0, 0.0), 1.5, 0.0, 1e-10).zeros
    assert zeros == [pytest.approx(1.0, abs=1e-9)]


def test_step_zero_guards():
    # the interpolant psi0 + h x: the zero at a start on Psi = 0 is z0, and an
    # end value that vanishes or keeps psi0's sign (end states whose sign
    # change the interpolant's rounding hides) gives z1, forward and backward
    for z0, z1 in ((2.0, 3.0), (3.0, 2.0)):
        h = z1 - z0
        f = (h, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert _step_zero(z0, z1, _powers(0.0, f)) == z0
        assert _step_zero(z0, z1, _powers(-h, f)) == z1
        assert _step_zero(z0, z1, _powers(-2.0 * h, f)) == z1
    assert _step_zero(2.0, 3.0, _powers(-0.5, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))) == 2.5


_COEFF = st.floats(-1e3, 1e3)
_DENSE = st.tuples(*[_COEFF] * 7)


def _nested_exact(x, y0, f):
    """y0 + x (f0 + (1 - x) (f1 + x (f2 + ...))) in exact rational arithmetic."""
    x, v = Fraction(x), Fraction(0)
    for i, c in enumerate(reversed(f)):
        v = (v + Fraction(c)) * (x if i % 2 == 0 else 1 - x)
    return Fraction(y0) + v


@settings(max_examples=200, deadline=None)
@given(y0=_COEFF, f=_DENSE, x=st.floats(0.0, 1.0))
def test_powers_expand_the_interpolant(y0, f, x):
    # the degree-7 polynomial the zeros are found on is the interpolant to
    # rounding: each power's coefficient sums at most 35 |f_k| per f_k
    p = _powers(y0, f)
    assert len(p) == 8 and p[-1] == y0
    got = sum(Fraction(c) * Fraction(x) ** (7 - k) for k, c in enumerate(p))
    bound = 2.0 ** -45 * (abs(y0) + sum(map(abs, f)))
    assert abs(got - _nested_exact(x, y0, f)) <= bound
    assert abs(_interpolate(x, y0, f) - _nested_exact(x, y0, f)) <= bound


@settings(max_examples=200, deadline=None)
@given(z0=st.floats(-100.0, 100.0), h=st.floats(1e-6, 10.0), backward=st.booleans(),
       psi0=st.floats(-1e3, 1e3).filter(lambda v: v != 0.0), end_size=st.floats(1e-6, 1e3),
       rest=st.tuples(*[_COEFF] * 6))
# -1.04e-131 + 2e-131 x + x^4 (1 - x)^3: Newton from x = 0 is linear at the
# near-quadruple root
@example(z0=0.0, h=1.0, backward=False, psi0=-1.0372686475543724e-131, end_size=9.6e-132,
         rest=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
def test_step_zero_lands_on_the_interpolant_zero(z0, h, backward, psi0, end_size, rest):
    # with an end value of opposite sign, the zero lies in the step, and the
    # polynomial p in x = (z - z0)/h, evaluated exactly there, is within
    # max |p'| on [0, 1] times the x error: the root tolerance 2^-52 and the
    # rounding of z = z0 + h x
    f = (-math.copysign(end_size, psi0) - psi0, *rest)
    z1 = z0 - h if backward else z0 + h
    h = z1 - z0
    p = _powers(psi0, f)
    end = sum(p)  # psi0 + f0 up to rounding
    assume(end != 0.0 and (end > 0.0) != (psi0 > 0.0))
    z = _step_zero(z0, z1, p)
    assert min(z0, z1) <= z <= max(z0, z1)
    x = (Fraction(z) - Fraction(z0)) / Fraction(h)
    value = sum(Fraction(c) * x ** (7 - k) for k, c in enumerate(p))
    slope = sum((7 - k) * abs(c) for k, c in enumerate(p))
    assert abs(value) <= slope * 2.0 ** -51 * (1.0 + abs(z) / abs(h))


def test_shoot_needs_two_samples():
    # evaluate is the dense solution, not an interpolation of the samples:
    # z = 0.525 lies between the samples 0.5 and 0.55, Psi = 1 - z^2
    sol = shoot(2, 0.0, -2.0)
    assert 0.525 not in sol.z
    assert sol.evaluate(0.525) == pytest.approx((1.0 - 0.525 ** 2, -1.05), rel=1e-9)
    assert sol.evaluate(0.525) == sol._traj.sol(0.525)


@pytest.mark.parametrize("l, n, lam", [(1, 0.0, -1.0), (3, 0.05, -3.1), (2, 0.0, -100.0)])
def test_work_counters(l, n, lam):
    # two RHS calls for the initial step, twelve per trial step and three per
    # step interpolant, built on first use by a crossing or a sample.  A shot
    # builds those of its crossings and of the samples up to one past its
    # last zero, which is all its count holds; later reads build more
    sol = shoot(l, n, lam)
    assert (sol.nfev - 2) % 3 == 0 and sol.nfev >= 12 * sol.steps + 2 and sol.steps > 0
    window = max(1.0, abs(sol.zeros.zeros[-1]) + 1.0)
    assert sol._traj.nfev == sol.nfev and max(sol._traj._zs[i] for i in sol._traj._dense) < window
    assert len(sol.psi) == 4001 and sol._traj.nfev > sol.nfev
    prof = two_sided_profile(n, lam, (1.0, 0.5), 20.0)
    pos, neg = prof._pos, prof._neg
    assert (prof.nfev, prof.steps) == (pos.nfev + neg.nfev, pos.steps + neg.steps)
    for traj in (pos, neg):
        built = len(traj._dense)
        trials = traj.nfev - 2 - 3 * built
        assert trials % 12 == 0 and trials >= 12 * traj.steps
        # a sample on a step without an interpolant builds it once
        i = next(i for i in range(traj.steps) if i not in traj._dense)
        mid, before = 0.5 * (traj._zs[i] + traj._zs[i + 1]), traj.nfev
        assert traj.sol(mid) == traj.sol(mid) and traj.nfev == before + 3


# nfev of shoot(l, 0, -l), z_max = 100, under the Dormand-Prince 5(4) pair
# that DOP853 replaced
DP54_NFEV = {2: 1268, 3: 2036, 4: 2888, 5: 3296, 6: 4280}


def test_work_budget():
    # an eighth-order pair at rtol 1e-10 takes 3 to 9 times fewer steps, and
    # fewer than half the calls over the five shots even at 15 calls a step
    # against 6; the step sizes grow by about 9% a step from h0 = 0.03, so
    # l = 2 and 3 keep 62 and 103 steps, about 0.75 of their former calls
    nfev = {l: shoot(l, 0.0, -float(l)).nfev for l in DP54_NFEV}
    assert sum(nfev.values()) <= 0.5 * sum(DP54_NFEV.values())
    for l, calls in nfev.items():
        assert calls <= 0.8 * DP54_NFEV[l], l
    assert shoot(2, 0.0, -100.0).steps <= 2000  # 14608 under the 5(4) pair
