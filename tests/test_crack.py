import math

import numpy as np
import pytest
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
    isolate_second_derivative,
    nodal_set,
    roundtrip_generate,
)
from cracktip.crack import _upper_eigenvalue
from cracktip.shooting import _angle_scan


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
    # at alpha1 = 0 the scanned value is cos(theta), whose zeros are the
    # scan ends, so they are found only up to rounding
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
def test_batched_scan_matches_per_angle_scan(alphas, n, kwargs):
    spec = CrackSpec(alphas=alphas)
    report = check_nonlinear(spec, n, **kwargs)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 61)
    alpha1 = alphas[0]
    for l in range(spec.m, kwargs["l_max"] + 1):
        lam = _upper_eigenvalue(l, n)
        batched = _angle_scan(lam, n, thetas, alpha1, 1e-10, 1e-12)
        scalar = [_scalar_alpha1_value(lam, n, t, alpha1) for t in thetas]
        assert np.max(np.abs(batched - scalar)) <= 1e-8
        assert list(np.sign(batched)) == list(np.sign(scalar))
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
