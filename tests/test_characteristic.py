import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cracktip import build_quartic, find_fold, limit_polynomial, real_roots
from cracktip.characteristic import CharacteristicQuartic, _integer_parts, _polyder, _polyval

from oracles import (
    exact_real_roots, quartic_parts_exact, rational_form_exact, rounding_band_critical_points,
)


def test_hand_expanded_quartic_l1_n1():
    q = build_quartic(1, 1.0)
    assert q.coeffs == (2.0, 10.0, 21.0, 19.0, 6.0)


def test_coefficient_closed_forms():
    q = build_quartic(3, 0.25)
    l, n = 3, 0.25
    assert q.a4 == pytest.approx(1 + n)
    assert q.a3 == pytest.approx((1 + n) * (4 * l + 1))
    assert q.a2 == pytest.approx(l * (5 * n + 3 + l * (6 * n + 7)))
    assert q.a1 == pytest.approx(l * l * (3 * n + 4 + 6 * l * (1 + n)))
    assert q.a0 == pytest.approx(l ** 3 * (2 * (1 - n) + 2 * l * (2 * n + 1)))


@pytest.mark.parametrize("l", list(range(1, 101)))
def test_factorization_at_n_zero(l):
    # Phi(.; 0) = (Lam^2 + (2l+1) Lam + l(l+1)) (Lam^2 + 2l Lam + 2l^2)
    A, _ = _integer_parts(l)
    f, g = [1, 2 * l + 1, l * (l + 1)], [1, 2 * l, 2 * l * l]
    assert A == [sum(f[i] * g[k - i] for i in range(3) if 0 <= k - i < 3) for k in range(5)]


@pytest.mark.parametrize("l", list(range(1, 21)))
def test_complex_pair_at_n_zero(l):
    roots = np.roots(np.asarray(build_quartic(l, 0.0).coeffs))
    complex_pair = sorted(r for r in roots if abs(r.imag) > 1e-8)
    assert len(complex_pair) == 2
    for r in complex_pair:
        assert r.real == pytest.approx(-l, abs=1e-8 * l)
        assert abs(r.imag) == pytest.approx(l, abs=1e-8 * l)


def test_real_roots_at_n_zero():
    assert real_roots(build_quartic(2, 0.0)) == pytest.approx([-3.0, -2.0], abs=1e-11)


def test_real_roots_past_fold_empty():
    assert real_roots(build_quartic(2, 0.5)) == []


def test_real_roots_finds_the_double_root_l1():
    # Lam = -1 is a double root at n = 1/2, where Phi touches zero without
    # changing sign on either side
    roots = real_roots(build_quartic(1, 0.5))
    assert roots and all(abs(r + 1.0) <= 1e-7 for r in roots)


@pytest.mark.parametrize("coeffs", [
    (0.0, 1.0, 2.0, 3.0, 4.0), (1.0, float("nan"), 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0, float("inf")),
])
def test_real_roots_rejects_bad_coefficients(coeffs):
    with pytest.raises(ValueError):
        real_roots(CharacteristicQuartic(2, 0.0, *coeffs))


def _exact_parts(q):
    """The float quartic's coefficients as rationals, and the Cauchy bound
    1 + max |a_k / a_4| that holds every real root."""
    exact = [Fraction(c) for c in q.coeffs]
    return exact, 1 + max(abs(c / exact[0]) for c in exact[1:])


# (l, n) within about 4e-11 relative of the fold, where the float sign of Phi
# at the critical point between the seed roots is rounding: the first two
# have two real roots, the last two none
_NEAR_FOLD = [
    (66, 5.916432788576758e-05), (137, 1.3516063906445654e-05),
    (52, 9.609750472698616e-05), (200, 6.312891188615629e-06),
]


@pytest.mark.parametrize("l, n", _NEAR_FOLD)
def test_real_roots_reports_one_double_root_near_the_fold(l, n):
    q = build_quartic(l, n)
    exact, bound = _exact_parts(q)
    want = [float(r) for r in exact_real_roots(exact, -bound, bound)]
    crit = [float(c) for c in rounding_band_critical_points(exact, -bound, bound)]
    (got,) = real_roots(q)
    if want:
        assert all(abs(got - w) <= 1e-6 * abs(w) for w in want)
    else:
        assert any(abs(got - c) <= 1e-6 * abs(c) for c in crit)


def test_real_roots_resolve_a_close_pair_at_large_l():
    # n*(1 - 8e-8) at l = 1000: two real roots 2.8e-4 apart, and |Phi| = 2.05e-2
    # at the critical point between them is ten times the running error bound
    # of its Horner pass, so the pair is resolved, not reported as one root
    q = build_quartic(1000, 2.505006051460393e-07)
    exact, bound = _exact_parts(q)
    want = [float(r) for r in exact_real_roots(exact, -bound, bound)]
    got = real_roots(q)
    assert len(got) == len(want) == 2
    assert all(abs(g - w) <= 1e-8 * abs(w) for g, w in zip(got, want))


@st.composite
def _index_and_exponent(draw):
    l = draw(st.integers(1, 200))
    star = find_fold(l).n_star
    lo, hi = draw(st.sampled_from([(0.0, 3.0 * star), (0.98 * star, 1.02 * star), (1.0, 100.0)]))
    return l, draw(st.floats(lo, hi))


@settings(max_examples=150, deadline=None)
@given(_index_and_exponent())
def test_real_roots_match_exact_oracle(draw):
    # every real root of the float quartic, against rational Sturm bisection
    # inside the Cauchy bound; where the counts differ, each critical point
    # with Phi inside the rounding band stands for the exact roots within
    # 1e-6 of it (a close pair, or none where they are complex), reported
    # once as a double root.  The band is twice the one real_roots applies,
    # since its float Phi at its float critical point carries Horner's error
    q = build_quartic(*draw)
    exact, bound = _exact_parts(q)
    want = [(float(r), 1e-10) for r in exact_real_roots(exact, -bound, bound)]
    got = real_roots(q)
    if len(got) != len(want):
        for c in map(float, rounding_band_critical_points(exact, -bound, bound, factor=2)):
            want = [(w, t) for w, t in want if abs(w - c) > 1e-6 * (1.0 + abs(c))]
            want = sorted(want + [(c, 1e-6)])
    assert len(got) == len(want), (got, want)
    for g, (w, tol) in zip(got, want):
        assert abs(g - w) <= tol * (1.0 + abs(w))


def test_real_roots_start_near_their_roots(monkeypatch):
    # linear_sweep's grid: Newton from Fujiwara's bound or a bare critical
    # point took 78.5 evaluations per call (up to 121), from the quadratic
    # model at the critical point and the mean of the roots about 28 (48)
    calls = []
    monkeypatch.setattr("cracktip.characteristic._polyval",
                        lambda coeffs, x: calls.append(x) or _polyval(coeffs, x))
    per_call = []
    for l in (2, 3, 5, 8, 12, 18, 27, 40, 60, 90, 120, 150):
        star = find_fold(l).n_star
        for n in (0.0, 0.5 * star, 1.5 * star):
            calls.clear()
            real_roots(build_quartic(l, n))
            per_call.append(len(calls))
    assert sum(per_call) / len(per_call) <= 40


def test_persistent_root_l1():
    q = build_quartic(1, 2.0)
    roots = real_roots(q)
    assert any(abs(r + 1.0) <= 1e-10 for r in roots)


def test_persistent_root_identity_on_grid():
    for n in np.linspace(0.0, 10.0, 50):
        q = build_quartic(1, float(n))
        assert abs(q(-1.0)) <= 1e-12 * max(1.0, abs(q.a0))


def test_double_root_l1_at_half():
    q = build_quartic(1, 0.5)
    assert q(-1.0) == pytest.approx(0.0, abs=1e-14)
    assert q.d_dlam(-1.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "l,n,lam",
    [(2, 0.1, -2.2), (1, 1.0, -1.0), (5, 0.01, -5.5), (1, 0.0, -0.5), (3, 2.0, -3.3),
     (7, 0.3, -7.7), (20, 0.05, -20.5), (100, 1e-5, -100.5)],
)
def test_rational_form_matches_quartic(l, n, lam):
    # the rational form times its denominator is Phi = A + n B, exactly
    form, D = rational_form_exact(l, n, lam)
    A, B = _integer_parts(l)
    x = Fraction(lam)
    assert form * D == sum((a + Fraction(n) * b) * x ** (4 - k) for k, (a, b) in enumerate(zip(A, B)))


def test_consistency_zero_at_hand_root():
    # at (l, n, lam) = (1, 1, -1) both the rational form and the quartic vanish
    assert rational_form_exact(1, 1.0, -1.0)[0] == 0
    assert build_quartic(1, 1.0)(-1.0) == pytest.approx(0.0, abs=1e-13)


def test_root_set_invariant_under_coefficient_scaling():
    q = build_quartic(3, 0.02)
    scaled = CharacteristicQuartic(
        l=q.l, n=q.n, a4=7.0 * q.a4, a3=7.0 * q.a3, a2=7.0 * q.a2, a1=7.0 * q.a1, a0=7.0 * q.a0
    )
    assert real_roots(scaled) == pytest.approx(real_roots(q), abs=1e-9)


def test_limit_polynomial_l2_published_values():
    fl = limit_polynomial(2)
    assert fl.coeffs == (1.0, 7.0, 26.0, 46.0, 36.0)


def test_limit_polynomial_l1_hand_expansion():
    # (Lam^2+3Lam+2)(Lam+1)^2 + 2 Lam (Lam+1), expanded by hand
    assert limit_polynomial(1).coeffs == (1.0, 5.0, 11.0, 9.0, 2.0)
    # the persistent eigenvalue survives the large-n limit
    assert limit_polynomial(1)(-1.0) == 0.0


def test_limit_polynomial_min_l2():
    lam_min, val = limit_polynomial(2).global_min()
    assert 6.84 <= val <= 6.85
    assert lam_min == pytest.approx(-1.61, abs=0.02)
    # independent check: dense scan
    grid = np.arange(-4.0, 1.0, 1e-4)
    vals = np.polyval(np.asarray(limit_polynomial(2).coeffs), grid)
    assert vals.min() == pytest.approx(val, abs=1e-6)


@pytest.mark.parametrize("l", [3, 4, 10])
def test_limit_polynomial_matches_large_n_quartic(l):
    # Phi(lam; n)/n approaches F_l(lam) coefficient-wise
    fl = limit_polynomial(l)
    n = 1e8
    q = build_quartic(l, n)
    for lam in (-l - 0.7, -l + 0.3, 0.5):
        assert q(lam) / n == pytest.approx(fl(lam), rel=1e-6)


def test_limit_polynomial_positive_at_small_l():
    for l in (2, 3, 4, 5, 10):
        _, val = limit_polynomial(l).global_min()
        assert val > 0.0


@pytest.mark.parametrize("l", list(range(2, 15)))
def test_limit_polynomial_positive_through_l14(l):
    assert limit_polynomial(l).global_min()[1] > 0.0


def test_limit_polynomial_negative_at_l15():
    # B_15(-26) is an exact integer, so the float evaluation is exact too
    assert limit_polynomial(15)(-26.0) == -160.0


def test_far_root_pair_past_the_fold():
    # past the fold the seed pair is gone, but where B < 0 a second real
    # pair appears far out: an empty root list is not what a fold leaves
    assert 20.0 > find_fold(20).n_star
    roots = real_roots(build_quartic(20, 20.0))
    assert len(roots) == 2 and all(-36.0 < r < -33.0 for r in roots)
    A, B = quartic_parts_exact(20)
    coeffs = [a + 20 * b for a, b in zip(A, B)]

    def exact(x):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * Fraction(x) + c
        return acc

    for r in roots:
        assert exact(r - 1e-6) * exact(r + 1e-6) < 0


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=9), st.floats(allow_nan=False))
def test_horner_matches_numpy_bit_for_bit(coeffs, x):
    # the same operations in the same order, overflow to inf and nan included
    with np.errstate(all="ignore"):
        want, dwant = np.polyval(coeffs, x), np.polyder(np.array(coeffs))
    assert _polyval(coeffs, x).hex() == float(want).hex()
    assert [c.hex() for c in _polyder(coeffs)] == [float(c).hex() for c in dwant]


@pytest.mark.parametrize(
    "l", [2.5, 2.0, np.int64(2), True, False], ids=["2.5", "2.0", "int64", "True", "False"]
)
def test_index_must_be_an_int(l):
    # the index rule of a lattice: an int l >= 1, so 2.0, a bool and a numpy integer are none
    with pytest.raises(ValueError, match="l must be an int >= 1"):
        build_quartic(l, 0.1)
    with pytest.raises(ValueError, match="l must be an int >= 1"):
        limit_polynomial(l)  # checked before the shortcut to the published l = 2 curve


def test_preconditions():
    with pytest.raises(ValueError):
        build_quartic(0, 0.1)
    with pytest.raises(ValueError):
        build_quartic(2, -0.1)
    for n in (math.nan, math.inf):  # would give NaN or infinite coefficients
        with pytest.raises(ValueError, match="n must be finite and >= 0"):
            build_quartic(2, n)
    with pytest.raises(ValueError):
        limit_polynomial(0)
