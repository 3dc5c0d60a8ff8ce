import math
from fractions import Fraction

import numpy as np
import pytest

from cracktip import (
    Family,
    blowup_coordinates,
    build_eigenfunction,
    combine,
    evaluate_expansion,
    nodal_set,
    pencil_eigenvalues,
    pencil_residual,
    sturm_liouville_map,
)
from cracktip.pencil import Polynomial, pencil_ode_residual
from oracles import pencil_pair_exact

F = Fraction

# classical low-degree eigenfunctions after monic rescaling, exact
LOW_DEGREE_TABLE = [
    # (degree, family, lambda, monic coefficients ascending)
    (0, Family.FIRST, 0, [F(1)]),
    (1, Family.FIRST, -1, [F(0), F(1)]),
    (0, Family.SECOND, -1, [F(1)]),
    (2, Family.FIRST, -2, [F(-1), F(0), F(1)]),
    (1, Family.SECOND, -2, [F(0), F(1)]),
    (3, Family.FIRST, -3, [F(0), F(-3), F(0), F(1)]),
    (2, Family.SECOND, -3, [F(-1, 3), F(0), F(1)]),  # 3 z^2 - 1 rescaled
    (4, Family.FIRST, -4, [F(1), F(0), F(-6), F(0), F(1)]),
    (3, Family.SECOND, -4, [F(0), F(-1), F(0), F(1)]),
]


@pytest.mark.parametrize("degree,family,lam,coeffs", LOW_DEGREE_TABLE)
def test_low_degree_table_exact(degree, family, lam, coeffs):
    pair = build_eigenfunction(degree, family)
    assert pair.lam == lam
    assert pair.poly.exact is not None
    assert list(pair.poly.exact) == coeffs


@pytest.mark.parametrize("degree", [1, 7, 64, 65, 100, 199])
def test_exact_table_at_every_degree(degree):
    # Re (z+i)^d and Im (z+i)^(d+1) / (d+1), expanded independently
    re, _ = pencil_pair_exact(degree)
    _, im = pencil_pair_exact(degree + 1)
    first = build_eigenfunction(degree, Family.FIRST).poly
    second = build_eigenfunction(degree, Family.SECOND).poly
    assert list(first.exact) == re
    assert list(second.exact) + [0] == im
    assert first.coeffs == tuple(float(c) for c in re)
    assert second.coeffs == tuple(float(c) for c in im[:-1])


def test_eigenvalue_pairs():
    assert pencil_eigenvalues(2) == (-2.0, -3.0)
    assert pencil_eigenvalues(1) == (-1.0, -2.0)
    assert pencil_eigenvalues(7) == (-7.0, -8.0)


def test_index_zero_rejected():
    with pytest.raises(ValueError):
        pencil_eigenvalues(0)


@pytest.mark.parametrize("family", [Family.FIRST, Family.SECOND])
@pytest.mark.parametrize("degree", list(range(0, 31, 3)))
def test_parity_structure(degree, family):
    pair = build_eigenfunction(degree, family)
    for k, c in enumerate(pair.poly.coeffs):
        if (k - degree) % 2 != 0:
            assert c == 0.0
    assert pair.poly.coeffs[-1] == 1.0  # monic


@pytest.mark.parametrize("family", [Family.FIRST, Family.SECOND])
@pytest.mark.parametrize("degree", list(range(1, 31)))
def test_ode_residual_bound(degree, family):
    pair = build_eigenfunction(degree, family)
    for z in range(-10, 11):
        res = pencil_residual(pair, float(z))
        assert abs(res) <= 1e-9 * (1.0 + abs(z)) ** degree


@pytest.mark.parametrize("family", [Family.FIRST, Family.SECOND])
@pytest.mark.parametrize("degree", list(range(1, 25)))
def test_zero_count_and_transversality(degree, family):
    pair = build_eigenfunction(degree, family)
    ns = nodal_set(pair.poly)
    assert len(ns) == degree
    assert all(m > 1e-8 for m in ns.derivative_magnitudes)
    assert ns.all_transversal


def test_residual_examples():
    p21 = build_eigenfunction(2, Family.FIRST)
    scale = (1 + 25.0) * 2 + 2 * 25.0
    assert abs(pencil_residual(p21, 5.0)) <= 1e-10 * scale
    p41 = build_eigenfunction(4, Family.FIRST)
    assert abs(pencil_residual(p41, -3.0)) <= 1e-10 * (1 + 9.0) * 200
    # z^2 - 1 paired with the wrong eigenvalue: residual is exactly
    # (1+z^2) * 2 at z = 1 since both first-order terms vanish
    wrong = Polynomial((-1.0, 0.0, 1.0))
    assert pencil_ode_residual(wrong, -1.0, 1.0) == pytest.approx(4.0, abs=1e-14)


def test_sturm_liouville_map_values():
    img = sturm_liouville_map(-2.0)
    assert img.gamma == pytest.approx(0.5)
    assert img.mu == pytest.approx(3.0)
    assert img.weight_exponent == pytest.approx(-1.0)
    img = sturm_liouville_map(-1.0)
    assert img.gamma == 0.0 and img.mu == 0.0
    img = sturm_liouville_map(-4.0)
    assert img.gamma == pytest.approx(1.5)
    assert img.mu == pytest.approx(15.0)


@pytest.mark.parametrize("l", [1, 2, 3, 5, 11, 30])
def test_sturm_liouville_mu_at_first_family(l):
    # mu(-l) = (1-l)(-1-l) = l^2 - 1, exact in rationals and in floats
    exact = (F(-l) + 1) * (F(-l) - 1)
    assert exact == l * l - 1
    assert sturm_liouville_map(float(-l)).mu == pytest.approx(l * l - 1, rel=1e-15)


def test_nodal_set_examples():
    ns = nodal_set(build_eigenfunction(2, Family.FIRST).poly)
    assert ns.zeros == pytest.approx((-1.0, 1.0), abs=1e-12)
    assert ns.all_transversal
    ns = nodal_set(build_eigenfunction(3, Family.FIRST).poly)
    r3 = math.sqrt(3.0)
    assert ns.zeros == pytest.approx((-r3, 0.0, r3), abs=1e-12)
    ns = nodal_set(build_eigenfunction(0, Family.FIRST).poly)
    assert len(ns) == 0


def test_combine_examples():
    assert combine(1.0, 0.0, 2).coeffs == (-1.0, 0.0, 1.0)
    assert combine(0.0, 1.0, 2).coeffs == (0.0, 1.0)
    assert combine(1.0, 1.0, 2).coeffs == (-1.0, 1.0, 1.0)  # z^2 + z - 1
    with pytest.raises(ValueError):
        combine(0.0, 0.0, 2)


@pytest.mark.parametrize("scale", [3.0, -0.25, 1e6])
def test_combine_zero_set_scale_invariant(scale):
    base = nodal_set(combine(0.7, -1.3, 4))
    scaled = nodal_set(combine(scale * 0.7, scale * -1.3, 4))
    assert scaled.zeros == pytest.approx(base.zeros, abs=1e-9)


def test_expansion_single_terms():
    assert evaluate_expansion([(1, 1.0, 0.0)], 2.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert evaluate_expansion([(2, 1.0, 0.0)], 1.0, 3.7) == pytest.approx(0.0, abs=1e-15)


def test_expansion_additivity():
    rng = np.random.default_rng(421)
    for _ in range(20):
        z = float(rng.uniform(-3, 3))
        tau = float(rng.uniform(0, 2))
        t1 = (int(rng.integers(1, 6)), float(rng.normal()), float(rng.normal()))
        t2 = (int(rng.integers(1, 6)), float(rng.normal()), float(rng.normal()))
        joint = evaluate_expansion([t1, t2], z, tau)
        split = evaluate_expansion([t1], z, tau) + evaluate_expansion([t2], z, tau)
        assert joint == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_expansion_rejects_bad_index():
    with pytest.raises(ValueError):
        evaluate_expansion([(0, 1.0, 0.0)], 0.0, 0.0)


def test_blowup_coordinates():
    z, tau = blowup_coordinates(1.0, -math.exp(-1.0))
    assert z == pytest.approx(math.e)
    assert tau == pytest.approx(1.0)
    with pytest.raises(ValueError):
        blowup_coordinates(1.0, 0.0)
    with pytest.raises(ValueError):
        blowup_coordinates(1.0, 0.5)
