import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from cracktip import (
    CrackSpec,
    Family,
    NoRealEigenvalueError,
    build_eigenfunction,
    check_linear,
    check_nonlinear,
    combine,
    find_fold,
    isolate_second_derivative,
    nodal_set,
    roundtrip_generate,
)
import cracktip.shooting
from cracktip.continuation import BranchFamily, _eigenvalue
from cracktip.crack import _match_alphas_to_zeros
from oracles import initial_angle_exact, stable_residuals_sq


def test_spec_validation():
    with pytest.raises(ValueError):
        CrackSpec(alphas=())
    with pytest.raises(ValueError):
        CrackSpec(alphas=(1.0, 1.0))
    with pytest.raises(ValueError):
        CrackSpec(alphas=(2.0, 1.0))
    with pytest.raises(ValueError):
        CrackSpec(alphas=(0.0, math.inf))


def test_symmetric_pair_admissible_at_two():
    report = check_linear(CrackSpec(alphas=(-1.0, 1.0)))
    assert report.admissible
    assert report.decay_exponent == 2
    match = next(m for m in report.matches if m.l == 2)
    c, d = match.ratio
    assert abs(d / c) <= 1e-9  # pure first-family combination


def test_single_slope_admissible_at_one():
    report = check_linear(CrackSpec(alphas=(0.7,)), l_max=3)
    assert report.admissible
    assert report.decay_exponent == 1
    match = report.matches[0]
    c, d = match.ratio
    assert d / c == pytest.approx(-0.7, rel=1e-12)


def _brute_force_match(alphas, l, samples=20000):
    """Dense projective scan: does any combination carry these slopes as
    consecutive zeros?  Independent of the ratio-solve in the library."""
    for theta in np.linspace(0.0, math.pi, samples, endpoint=False):
        c, d = math.cos(theta), math.sin(theta)
        combo = combine(c, d, l)
        vals = [abs(combo(a)) for a in alphas]
        if max(vals) > 1e-6:
            continue
        zeros = nodal_set(combo).zeros
        idx = [int(np.argmin([abs(a - z) for z in zeros])) for a in alphas]
        if idx == list(range(idx[0], idx[0] + len(alphas))):
            return True
    return False


def test_wide_pair_inadmissible_small_l():
    spec = CrackSpec(alphas=(-3.0, 3.0))
    report = check_linear(spec, l_max=2)
    assert not report.admissible
    assert report.decay_exponent is None
    # higher indices agree with an independent brute-force scan
    report12 = check_linear(spec, l_max=12)
    brute = any(_brute_force_match(spec.alphas, l, samples=4000) for l in range(2, 13))
    assert report12.admissible == brute == False


def test_roundtrip_examples():
    assert roundtrip_generate(2, 1.0, 0.0).alphas == pytest.approx((-1.0, 1.0), abs=1e-12)
    golden = math.sqrt(5.0)
    assert roundtrip_generate(2, 1.0, 1.0).alphas == pytest.approx(
        ((-1 - golden) / 2, (-1 + golden) / 2), abs=1e-12
    )
    s3 = 1.0 / math.sqrt(3.0)
    assert roundtrip_generate(3, 0.0, 1.0).alphas == pytest.approx((-s3, s3), abs=1e-12)


def test_roundtrip_past_the_coefficient_range():
    # from l = 1030 a binomial coefficient passes the largest double; the
    # round trip reads the lattice alone
    spec = roundtrip_generate(1100, 1.0, 0.5)
    assert spec.m == 1100
    report = check_linear(spec, l_max=1100)
    assert report.admissible and report.decay_exponent == 1100


def test_roundtrip_recovery_sample():
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(40):
        l = int(rng.integers(1, 9))
        c, d = float(rng.normal()), float(rng.normal())
        if c == 0.0 and d == 0.0:
            continue
        try:
            spec = roundtrip_generate(l, c, d)
        except ValueError:
            continue
        report = check_linear(spec, l_max=8, tol=1e-9)
        assert report.admissible
        match = next(m for m in report.matches if m.l == l)
        zeros = nodal_set(combine(*match.ratio, l)).zeros
        want = nodal_set(combine(c, d, l)).zeros
        assert len(zeros) >= len(spec.alphas)
        for a, b in zip(sorted(want), sorted(spec.alphas)):
            assert a == pytest.approx(b, abs=1e-8)
        hits += 1
    assert hits >= 30


def test_projective_scale_invariance():
    spec = roundtrip_generate(4, 0.8, -0.6)
    r1 = check_linear(spec, l_max=6)
    spec10 = roundtrip_generate(4, 8.0, -6.0)
    r2 = check_linear(spec10, l_max=6)
    assert r1.admissible == r2.admissible
    m1 = next(m for m in r1.matches if m.l == 4)
    m2 = next(m for m in r2.matches if m.l == 4)
    # ratios agree projectively
    cross = m1.ratio[0] * m2.ratio[1] - m1.ratio[1] * m2.ratio[0]
    assert abs(cross) <= 1e-9


def test_consecutiveness_enforced():
    zeros = nodal_set(build_eigenfunction(4, Family.FIRST).poly).zeros
    assert len(zeros) == 4
    gappy = CrackSpec(alphas=(zeros[0], zeros[1], zeros[3]))
    strict = check_linear(gappy, l_max=4)
    assert not any(m.l == 4 for m in strict.matches)
    loose = check_linear(gappy, l_max=4, consecutive=False)
    assert any(m.l == 4 for m in loose.matches)


def test_decay_exponent_is_smallest_match():
    # the single slope at the origin is a zero of the pure second-family
    # member at every index, so matches accumulate; the reported decay
    # exponent is the smallest
    report = check_linear(CrackSpec(alphas=(0.0,)), l_max=4)
    assert report.admissible
    assert len(report.matches) >= 2
    assert report.decay_exponent == 1
    assert report.decay_exponent == min(m.l for m in report.matches)


def _cot(theta):
    return math.cos(theta) / math.sin(theta)


def _lattice_slopes(l, ks, u):
    """Ascending slopes cot((k + u) pi / l) for the lattice points ks."""
    return tuple(sorted(_cot((k + u) * math.pi / l) for k in ks))


@st.composite
def _lattices(draw, l_max=600):
    """(l, k0, m, u): m >= 2 consecutive lattice points k0 .. k0 + m - 1 of
    spacing pi / l, at phase u of a cell."""
    l = draw(st.integers(min_value=2, max_value=l_max))
    m = draw(st.integers(min_value=2, max_value=l))
    k0 = draw(st.integers(min_value=0, max_value=l - m))
    u = draw(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    return l, k0, m, u


@settings(max_examples=100, deadline=None)
@given(_lattices())
def test_lattice_is_admissible_at_its_index(lattice):
    l, k0, m, u = lattice
    report = check_linear(CrackSpec(_lattice_slopes(l, range(k0, k0 + m), u)), l_max=l)
    assert report.decay_exponent == l
    (match,) = report.matches
    # ascending slopes are descending angles, so lattice point k is zero l - 1 - k
    assert match.zero_indices == tuple(range(l - k0 - m, l - k0))
    assert match.max_residual <= 1e-9
    assert match.zeros == pytest.approx(_lattice_slopes(l, range(l), u), rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(_lattices(), st.data())
def test_moved_slope_is_inadmissible_at_its_index(lattice, data):
    l, k0, m, u = lattice
    ks = [k + u for k in range(k0, k0 + m)]
    # never the largest angle, which carries the first slope; the move
    # stays short of the next lattice point, so the order is kept
    j = data.draw(st.integers(min_value=0, max_value=m - 2))
    ks[j] += data.draw(st.floats(min_value=0.1, max_value=0.9))
    spec = CrackSpec(tuple(sorted(_cot(k * math.pi / l) for k in ks)))
    for consecutive in (True, False):
        report = check_linear(spec, l_max=l, consecutive=consecutive)
        assert not any(mm.l == l for mm in report.matches)


@settings(max_examples=100, deadline=None)
@given(
    l=st.integers(min_value=1, max_value=600),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_verdict_is_projectively_invariant(l, phi, scale, sign):
    c, d = math.cos(phi), math.sin(phi)
    assume(l > 1 or c != 0.0)
    reports = []
    for s in (1.0, sign * scale):
        spec = roundtrip_generate(l, s * c, s * d)
        reports.append(check_linear(spec, l_max=l))
        match = next(mm for mm in reports[-1].matches if mm.l == l)
        # the recovered combination is (c, d) up to scale
        norm = math.hypot(*match.ratio) * math.hypot(c, d)
        assert abs(match.ratio[0] * d - match.ratio[1] * c) <= 1e-9 * norm
    assert reports[0].admissible == reports[1].admissible
    assert reports[0].decay_exponent == reports[1].decay_exponent
    assert [mm.l for mm in reports[0].matches] == [mm.l for mm in reports[1].matches]


@settings(max_examples=100, deadline=None)
@given(
    l0=st.integers(min_value=1, max_value=12),
    u=st.floats(min_value=0.05, max_value=0.95),
    data=st.data(),
)
def test_verdict_agrees_with_exact_residuals(l0, u, data):
    # slopes on or off an index-l0 lattice, checked at every l <= 12
    # against the pinned combination evaluated in exact arithmetic
    tol = 1e-6
    ks = data.draw(st.lists(st.integers(0, l0 - 1), min_size=1, max_size=l0, unique=True))
    moves = data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.05, 0.45), st.floats(-0.45, -0.05)),
        min_size=len(ks), max_size=len(ks),
    ))
    shifted = [k + u + e for k, e in zip(ks, moves)]
    assume(all(0.0 < y < l0 for y in shifted))
    alphas = tuple(sorted(_cot(y * math.pi / l0) for y in shifted))
    report = check_linear(CrackSpec(alphas), l_max=12, tol=tol, consecutive=False)
    expected = set()
    for l in range(len(alphas), 13):
        res = stable_residuals_sq(l, alphas)
        assume(all(abs(r - tol * tol) > 1e-6 * tol * tol for r in res))
        if all(r <= tol * tol for r in res):
            expected.add(l)
    assert {mm.l for mm in report.matches} == expected


@pytest.mark.parametrize("L", [90, 120, 150])
def test_many_equally_spaced_slopes(L):
    # companion-matrix nodal sets misjudged these or overflowed
    spec = CrackSpec(_lattice_slopes(L, range(L), 0.3))
    report = check_linear(spec)
    assert report.decay_exponent == L
    (match,) = report.matches
    assert match.zero_indices == tuple(range(L))
    assert match.zeros == pytest.approx(spec.alphas, rel=1e-12)


@pytest.mark.parametrize("L", [8, 10])
def test_half_offset_lattice_at_twice_its_index(L):
    # cot((k + 1/2) pi / L) are the zeros of the first family at L and
    # every other zero of the second family at 2L, where the combination
    # has degree 2L - 1; the companion-matrix route raised there
    spec = CrackSpec(_lattice_slopes(L, range(L), 0.5))
    strict = check_linear(spec, l_max=2 * L)
    assert strict.decay_exponent == L
    assert not any(mm.l == 2 * L for mm in strict.matches)
    loose = check_linear(spec, l_max=2 * L, consecutive=False)
    match = next(mm for mm in loose.matches if mm.l == 2 * L)
    assert match.ratio[0] == pytest.approx(0.0, abs=1e-12)
    assert match.ratio[1] == 1.0
    assert np.all(np.diff(match.zero_indices) == 2)


@pytest.mark.parametrize("l", range(1, 13))
def test_pure_second_family_has_l_minus_one_zeros(l):
    # c = 0: the combination drops to degree l - 1
    second = nodal_set(build_eigenfunction(l - 1, Family.SECOND).poly).zeros
    if l == 1:
        with pytest.raises(ValueError):
            roundtrip_generate(l, 0.0, 1.0)
    else:
        assert roundtrip_generate(l, 0.0, -2.0).alphas == pytest.approx(second, abs=1e-12)
    if l % 2 == 0:
        # z = 0 is a zero of the second family exactly at even l
        (match,) = check_linear(CrackSpec((0.0,)), l_max=l).matches[l - 1:]
        assert match.ratio == (0.0, 1.0)
        assert match.zeros == pytest.approx(second, abs=1e-12)


def test_residual_is_the_stable_form_value():
    # the second slope sits a tenth of a cell off the l = 2 lattice of the first
    spec = CrackSpec((-1.0, _cot(0.2 * math.pi)))
    assert not check_linear(spec, l_max=2).admissible
    (match,) = check_linear(spec, l_max=2, tol=0.5).matches
    assert match.max_residual == pytest.approx(math.sin(0.1 * math.pi), rel=1e-12)


def test_slope_near_a_lost_zero_is_not_matched():
    # at even l the slope 0 pins the pure second family, of degree l - 1:
    # its zero at infinity is lost, so a steep second slope whose angle
    # sits within tol of it is no zero, though its residual is small
    spec = CrackSpec((0.0, 1e9))
    report = check_linear(spec, l_max=12, consecutive=False)
    assert not report.admissible


def test_steep_first_slope():
    # theta_1 within 1e-17 of pi: the first slope's lattice point is kept
    report = check_linear(CrackSpec((-1e17,)), l_max=3)
    assert [mm.l for mm in report.matches] == [1, 2, 3]
    for mm in report.matches:
        assert mm.zeros[mm.zero_indices[0]] == pytest.approx(-1e17, rel=1e-12)


def test_nonlinear_reduces_to_linear_at_zero():
    report = check_nonlinear(CrackSpec(alphas=(-1.0, 1.0)), 0.0, l_max=3)
    assert report.admissible
    assert report.decay_exponent == 2
    assert report.experimental
    linear = check_linear(CrackSpec(alphas=(-1.0, 1.0)), l_max=3)
    assert report.admissible == linear.admissible
    assert report.decay_exponent == linear.decay_exponent


def test_nonlinear_small_n_perturbs_zeros():
    n = 0.01
    report = check_nonlinear(CrackSpec(alphas=(-1.0, 1.0)), n, l_max=2, tol=0.05)
    assert report.admissible
    match = report.matches[0]
    assert match.l == 2
    # one zero pinned at the first slope, the partner within O(n) of +1
    zeros = sorted(match.zeros)
    assert zeros[0] == pytest.approx(-1.0, abs=1e-9)
    assert 1.0 - 8.0 * n <= zeros[-1] <= 1.0 + 8.0 * n


def test_nonlinear_past_fold_errors():
    with pytest.raises(NoRealEigenvalueError):
        check_nonlinear(CrackSpec(alphas=(-1.0, 1.0)), 0.2, l_max=2)


def test_nonlinear_single_slope_any_n():
    report = check_nonlinear(CrackSpec(alphas=(0.4,)), 0.3, l_max=1, tol=1e-6)
    assert report.admissible
    assert report.decay_exponent == 1


def test_tolerance_and_exponent_checked():
    spec = CrackSpec((-3.0, 0.1, 3.0))
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol"):
            check_linear(spec, l_max=3, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            check_nonlinear(spec, 0.01, l_max=3, tol=tol)
    for n in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="n must be"):
            check_nonlinear(spec, n, l_max=3)
    for check in (check_linear, lambda spec, l_max: check_nonlinear(spec, 0.01, l_max=l_max)):
        with pytest.raises(ValueError, match="l_max must be an int >= 3"):
            check(spec, l_max=2)


def test_both_scans_take_the_index_and_exponent_rules():
    # l_max is an index, so a float is a ValueError in both scans, not a
    # TypeError from range; n takes build_quartic's rule, finite and >= 0
    spec = CrackSpec((-1.0, 1.0))
    for check in (check_linear, lambda spec, l_max: check_nonlinear(spec, 0.01, l_max=l_max)):
        with pytest.raises(ValueError, match="l_max must be an int >= 2, got 3.5"):
            check(spec, l_max=3.5)
    with pytest.raises(ValueError, match="n must be finite"):
        check_nonlinear(spec, math.inf)


def test_match_rejects_what_no_zero_carries():
    # None for fewer zeros than slopes, two slopes on one zero or out of
    # order, or a slope farther than dist_tol (1 + |alpha|) from its zero
    zeros = [-1.0, 0.0, 1.0]
    assert _match_alphas_to_zeros([-1.0, 0.0, 1.0], zeros, True, 1e-6) == (0, 1, 2)
    assert _match_alphas_to_zeros([-1.0, 0.0, 1.0, 2.0], zeros, False, 1e-6) is None
    assert _match_alphas_to_zeros([0.9, 1.1], zeros, False, 1.0) is None  # one zero, two slopes
    assert _match_alphas_to_zeros([-1.0, 1.0], [1.0, -1.0], False, 1e-6) is None  # reversed
    assert _match_alphas_to_zeros([-1.0, 0.4], zeros, False, 0.2) is None  # 0.4 > 0.2 (1.4)
    assert _match_alphas_to_zeros([-1.0, 0.4], zeros, False, 0.3) == (0, 1)
    assert _match_alphas_to_zeros([-1.0, 1.0], zeros, True, 1e-6) is None  # not consecutive
    assert _match_alphas_to_zeros([-1.0, 1.0], zeros, False, 1e-6) == (0, 2)


@pytest.mark.parametrize("alpha1, solves", [(-1.0, 1), (0.0, 1), (0.7, 2)])
def test_nonlinear_solves_per_index(alpha1, solves, monkeypatch):
    # one trajectory through the first slope; a backward solve only when
    # z = 0 lies left of it
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return trajectory(*args, **kwargs)

    trajectory = cracktip.shooting._trajectory
    monkeypatch.setattr(cracktip.shooting, "_trajectory", counting)
    report = check_nonlinear(CrackSpec((alpha1, alpha1 + 1.5)), 0.01, l_max=4, tol=0.05)
    assert len(calls) == solves * (3 - len(report.notes))


@settings(max_examples=20, deadline=None)
@given(alpha1=st.floats(-5.0, 5.0), n=st.floats(0.0, 0.05))
@example(alpha1=-1e6, n=0.01)
@example(alpha1=1e6, n=0.01)
def test_nonlinear_single_slope_is_an_exact_zero(alpha1, n):
    report = check_nonlinear(CrackSpec((alpha1,)), n, l_max=3)
    assert [mm.l for mm in report.matches] == [1, 2, 3]
    for mm in report.matches:
        assert mm.max_residual == 0.0
        assert mm.zeros[0] == alpha1 and mm.zero_indices == (0,)


@settings(max_examples=25, deadline=None)
@given(
    l=st.integers(min_value=2, max_value=5),
    u=st.floats(min_value=0.05, max_value=0.95),
    data=st.data(),
)
def test_nonlinear_at_n_zero_matches_linear_on_lattices(l, u, data):
    # m consecutive points of the index-l lattice, one of them moved short
    # of the next point, or none
    m = data.draw(st.integers(min_value=2, max_value=l))
    k0 = data.draw(st.integers(min_value=0, max_value=l - m))
    ks = [k + u for k in range(k0, k0 + m)]
    if data.draw(st.booleans()):
        ks[data.draw(st.integers(min_value=0, max_value=m - 2))] += data.draw(
            st.floats(min_value=0.1, max_value=0.9)
        )
    spec = CrackSpec(tuple(sorted(_cot(k * math.pi / l) for k in ks)))
    report = check_nonlinear(spec, 0.0, l_max=6)
    assert [mm.l for mm in report.matches] == [mm.l for mm in check_linear(spec, l_max=6).matches]
    for mm in report.matches:
        assert mm.zeros[0] == spec.alphas[0] and mm.zero_indices[0] == 0


def _scalar_alpha1_value(lam, n, theta, alpha1):
    """Psi(alpha1) of one trajectory from (cos theta, sin theta), solved alone."""
    sol = solve_ivp(
        lambda z, y: (y[1], isolate_second_derivative(z, y[0], y[1], lam, n)),
        (0.0, alpha1),
        [math.cos(theta), math.sin(theta)],
        rtol=1e-10,
        atol=1e-12,
    )
    return float(sol.y[0, -1])


@pytest.mark.parametrize("alphas", [(0.0,), (0.0, math.sqrt(3.0))])
def test_nonlinear_at_n_zero_matches_linear_with_slope_zero(alphas):
    # at alpha1 = 0 the trajectory starts at z = 0 with Psi(0) = 0, which
    # gives the ratio (0, -1) without a backward solve
    spec = CrackSpec(alphas=alphas)
    linear = check_linear(spec, l_max=3)
    assert linear.decay_exponent is not None
    assert check_nonlinear(spec, 0.0, l_max=3).decay_exponent == linear.decay_exponent


@pytest.mark.parametrize(
    "alphas,n,kwargs",
    [
        ((-1.0, 1.0), 0.0, dict(l_max=3)),
        ((-1.0, 1.0), 0.01, dict(l_max=2, tol=0.05)),
        ((0.4,), 0.3, dict(l_max=1, tol=1e-6)),
    ],
)
def test_ratio_is_a_root_of_the_per_angle_scan(alphas, n, kwargs):
    spec = CrackSpec(alphas=alphas)
    report = check_nonlinear(spec, n, **kwargs)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 61)
    alpha1 = alphas[0]
    for l in range(spec.m, kwargs["l_max"] + 1):
        lam = _eigenvalue(find_fold(l), BranchFamily.UPPER, n)
        scalar = [_scalar_alpha1_value(lam, n, t, alpha1) for t in thetas]
        roots = [
            brentq(lambda t: _scalar_alpha1_value(lam, n, t, alpha1), a, b, xtol=1e-12)
            for a, b, fa, fb in zip(thetas, thetas[1:], scalar, scalar[1:])
            if fa * fb < 0.0
        ]
        for match in (m for m in report.matches if m.l == l):
            assert any(
                abs(match.ratio[0] - math.cos(t)) + abs(match.ratio[1] - math.sin(t)) <= 1e-9
                for t in roots
            )
    assert report.matches


@settings(max_examples=25, deadline=None)
@given(alpha1=st.floats(-5.0, 5.0), l_max=st.integers(1, 6))
def test_nonlinear_ratio_at_n_zero_is_the_exact_linear_angle(alpha1, l_max):
    # one slope is admissible at every l; at n = 0 its initial angle solves
    # tan t = -E(alpha1) / O(alpha1) for the even and odd pencil solutions
    report = check_nonlinear(CrackSpec((alpha1,)), 0.0, l_max=l_max)
    assert [mm.l for mm in report.matches] == list(range(1, l_max + 1))
    for mm in report.matches:
        assert mm.ratio[0] >= 0.0
        t = math.atan2(mm.ratio[1], mm.ratio[0])
        assert abs(math.remainder(t - initial_angle_exact(mm.l, alpha1), math.pi)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(
    alpha1=st.floats(-5.0, 5.0),
    n=st.floats(0.0, 0.05, exclude_min=True),
)
def test_nonlinear_profile_vanishes_at_the_first_slope(alpha1, n):
    report = check_nonlinear(CrackSpec((alpha1,)), n, l_max=3)
    assert report.matches
    for mm in report.matches:
        # the profile's own integration error, which grows with |alpha1|
        assert abs(mm.zeros[mm.zero_indices[0]] - alpha1) <= 1e-9 * (1.0 + abs(alpha1))
