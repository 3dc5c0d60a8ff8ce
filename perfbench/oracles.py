"""Independent answers for every benchmark task.

Nothing here imports cracktip.  The answers come from closed forms of
the crack-tip problem:

* At n = 0 the eigenfunctions at eigenvalue -l are Re (z+i)^l and
  Im (z+i)^l / l.  With z = cot(theta), (z+i)^l = e^(i l theta) / sin^l
  theta, so every combination vanishes on the angle lattice
  theta_k = (delta + pi/2 + k pi) / l.  This gives nodal sets,
  admissibility verdicts, decay exponents and zero counts.
* The characteristic quartic is Phi = A + n B with integer A, B.  Folds
  are the roots of the sextic W = A'B - AB' on (-l-1, -l), found by
  bisection in exact integer arithmetic.  Branch samples satisfy
  n = -A(Lam)/B(Lam), and the implicit-function slope is the rational
  -B(lam)/A'(lam).
* The orthogonality integrals are taken by Gauss-Legendre quadrature
  after z = tan(theta), which needs no window or tail handling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np


# ----------------------------------------------------------------------
# the angle lattice at n = 0

def slope(theta: float) -> float:
    return math.cos(theta) / math.sin(theta)


def angle(z: float) -> float:
    """arccot z in (0, pi)."""
    return math.atan2(1.0, z)


def lattice_zeros(c: float, d: float, l: int):
    """Sorted zeros of c * Re (z+i)^l + d * Im (z+i)^l / l."""
    delta = math.atan2(d / l, c)
    out = []
    for k in range(-2, l + 3):
        th = (delta + math.pi / 2 + k * math.pi) / l
        if 0.0 < th < math.pi:
            out.append(slope(th))
    return sorted(out)


def linear_verdict(alphas, l_max: int):
    """(admissible, decay exponent) of check_linear's consecutive reading.

    One slope is a zero of some combination at every l, so it is
    admissible at l = 1.  Two or more slopes are consecutive zeros at l
    exactly when every angle gap equals pi/l, and then l >= m.
    """
    m = len(alphas)
    if m == 1:
        return (True, 1) if l_max >= 1 else (False, None)
    thetas = sorted((angle(a) for a in alphas), reverse=True)
    gaps = [a - b for a, b in zip(thetas, thetas[1:])]
    g = sum(gaps) / len(gaps)
    # a lattice built in floating point has gaps equal to ~1e-15; every
    # perturbed configuration differs by a sizeable share of pi/l
    if max(abs(x - g) for x in gaps) > 1e-9 * g:
        return False, None
    l = round(math.pi / g)
    if abs(l * g - math.pi) > 1e-9 * math.pi or not m <= l <= l_max:
        return False, None
    return True, l


def eigenfunction_coeffs(degree: int, family: str):
    """Ascending exact coefficients of the monic eigenfunction.

    first:  Re (z+i)^d;   second: Im (z+i)^(d+1) / (d+1).
    """
    def i_pow(k):  # i^k as (re, im)
        return ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]

    if family == "first":
        return [Fraction(comb(degree, k) * i_pow(degree - k)[0]) for k in range(degree + 1)]
    e = degree + 1
    return [Fraction(comb(e, k) * i_pow(e - k)[1], e) for k in range(degree + 1)]


def parity_ratio(l: int, ic):
    """(c, d) of the n = 0, lam = -l solution with psi(0), psi'(0) = ic."""
    # values and slopes at z = 0 of Re (z+i)^l and Im (z+i)^l / l
    re0, im0 = ((1, 0), (0, 1), (-1, 0), (0, -1))[l % 4]
    re1, im1 = ((1, 0), (0, 1), (-1, 0), (0, -1))[(l - 1) % 4]
    a11, a12, a21, a22 = re0, im0 / l, l * re1, im1
    det = a11 * a22 - a12 * a21
    c = (ic[0] * a22 - a12 * ic[1]) / det
    d = (a11 * ic[1] - a21 * ic[0]) / det
    return c, d


def log_slope_range(l: int, c: float, d: float, lo: float, hi: float):
    """Range of z psi'/psi over [lo, hi] for psi = c Re (z+i)^l + d Im (z+i)^l / l.

    A least-squares slope of log|psi| against log z is a weighted mean of
    this local slope with nonnegative weights, so a fitted growth
    exponent over [lo, hi] must lie in the range.
    """
    first = [float(x) for x in eigenfunction_coeffs(l, "first")]
    second = [float(x) for x in eigenfunction_coeffs(l - 1, "second")] + [0.0]
    p = np.polynomial.Polynomial([c * a + d * b for a, b in zip(first, second)])
    z = np.geomspace(lo, hi, 400)
    s = z * p.deriv()(z) / p(z)
    return float(s.min()), float(s.max())


# ----------------------------------------------------------------------
# the characteristic quartic, exactly

def quartic_parts(l: int):
    """Integer coefficient lists (descending) with Phi = A + n B."""
    A = [1, 4 * l + 1, l * (7 * l + 3), l * l * (6 * l + 4), l ** 3 * (2 * l + 2)]
    B = [1, 4 * l + 1, l * (6 * l + 5), l * l * (6 * l + 3), l ** 3 * (4 * l - 2)]
    return A, B


def polyval(c, x):
    acc = 0
    for a in c:
        acc = acc * x + a
    return acc


def _polyder(c):
    n = len(c) - 1
    return [a * (n - i) for i, a in enumerate(c[:-1])]


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _bisect_sign(f, lo: Fraction, hi: Fraction, steps: int) -> Fraction:
    flo = f(lo)
    if flo == 0:
        return lo
    if (flo > 0) == (f(hi) > 0):
        raise ArithmeticError(f"no sign change on [{float(lo)}, {float(hi)}]")
    for _ in range(steps):
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def fold(l: int):
    """(n*, Lam*) of index l >= 2 from the sextic W = A'B - AB'."""
    A, B = quartic_parts(l)
    a1, b1 = _polyder(A), _polyder(B)
    W = [x - y for x, y in zip(_polymul(a1, B), _polymul(A, b1))]
    lam = _bisect_sign(lambda x: polyval(W, x), Fraction(-l - 1), Fraction(-l), 64)
    n = -polyval(A, lam) / polyval(B, lam)
    return float(n), float(lam)


def branch_n(l: int, lam: float) -> float:
    """n = -A(Lam)/B(Lam), exact at the float Lam."""
    A, B = quartic_parts(l)
    x = Fraction(lam)
    return float(-polyval(A, x) / polyval(B, x))


def tracked_roots(l: int, n: float, fold_point):
    """Real roots of Phi(.; n) on [-l-1, -l], the seeded pair."""
    if n == 0.0:
        return [-float(l) - 1.0, -float(l)]
    n_star, lam_star = fold_point
    if n >= n_star:
        return []
    A, B = quartic_parts(l)
    nq = Fraction(n)

    def phi(x):
        return polyval(A, x) + nq * polyval(B, x)

    mid = Fraction(lam_star)
    return [
        float(_bisect_sign(phi, Fraction(-l - 1), mid, 60)),
        float(_bisect_sign(phi, mid, Fraction(-l), 60)),
    ]


def quartic_value(l: int, n: float, lam: float) -> float:
    A, B = quartic_parts(l)
    x = Fraction(lam)
    return float(polyval(A, x) + Fraction(n) * polyval(B, x))


def quartic_scale(l: int, n: float, lam: float) -> float:
    """Sum of |terms| of Phi at lam, the size rounding is measured against."""
    A, B = quartic_parts(l)
    m = max(1.0, abs(lam))
    return sum((abs(a) + n * abs(b)) * m ** (4 - k) for k, (a, b) in enumerate(zip(A, B)))


def mu_ift(l: int, family: str) -> Fraction:
    """Implicit-function branch slope -B(lam)/A'(lam) at the seed."""
    lam = -l if family == "first" else -l - 1
    A, B = quartic_parts(l)
    return Fraction(-polyval(B, lam), polyval(_polyder(A), lam))


# ----------------------------------------------------------------------
# the order-n source term and its orthogonality integral

def _derivs(coeffs_asc, z):
    c = np.array([float(x) for x in coeffs_asc])
    p = np.polynomial.Polynomial(c)
    return p(z), p.deriv(1)(z), p.deriv(2)(z)


def source_parts(l: int, family: str, z):
    """(rest, mu coefficient) of the published source term at z.

    h(mu) = -(Phi2 + Phi1 L psi) - mu ((2 lam + 1) psi + z psi'),
    Phi1 = g^2/D, Phi2 = (psi'^2 psi'' + 2 psi' g (lam psi' + z psi''))/D,
    g = lam psi + z psi', D = psi'^2 + g^2, L psi = -psi''.
    """
    lam = -l if family == "first" else -l - 1
    psi, d1, d2 = _derivs(eigenfunction_coeffs(l, family), z)
    g = lam * psi + z * d1
    den = d1 * d1 + g * g
    rest = (d1 * d1 * d2 + 2.0 * d1 * g * (lam * d1 + z * d2)) / den - g * g / den * d2
    return -rest, -((2.0 * lam + 1.0) * psi + z * d1), psi, lam


def mu_orthogonality(l: int, family: str, order: int = 800) -> float:
    """Slope solving int (1+z^2)^lam h(mu) psi dz = 0 over the real line."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * np.pi * nodes
    z = np.tan(theta)
    jac = 0.5 * np.pi * weights / np.cos(theta) ** 2
    rest, coeff, psi, lam = source_parts(l, family, z)
    w = jac * (1.0 + z * z) ** lam * psi
    return float(-np.sum(w * rest) / np.sum(w * coeff))
