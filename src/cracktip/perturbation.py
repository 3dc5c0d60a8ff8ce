"""First-order branching of the nonlinear tip eigenpairs at n = 0.

Writing Lam = lam + n mu + o(n) and Psi = psi + n phi + o(n) around a
classical eigenpair (psi, lam), the order-n balance reads

    Bstar phi = h(mu, psi, lam)
              = -[Phi2(psi, lam) + mu ((2 lam + 1) psi + z psi')
                 + Phi1(psi, lam) * L psi],

with Bstar the pencil operator, L psi = -psi'' on eigenfunctions, and
Phi1, Phi2 the rational gradient couplings of the quasilinear equation.
Each seed is read off its angle lattice: with z = cot theta it is
sin**lam theta times a cosine or sine of lam theta, and so are its
derivatives, so every term of h is a trigonometric polynomial times a
power of sin theta, and the couplings' denominator never vanishes.
Two independent routes to the slope mu are provided:

* ``mu_via_ift``: the implicit-function slope -Phi_n / Phi_Lam of the
  characteristic quartic at the seed, in exact integer arithmetic.  This
  is the authoritative value: it is the slope the continuation branches
  realize.
* ``mu_via_quadrature``: the Fredholm orthogonality route, solving
  integral of  w(z) h(mu, psi, lam)(z) psi(z) dz = 0  over the real line
  with weight w = (1 + z^2)^lam, by one midpoint rule in theta = arccot z
  that is exact for second-family seeds.
  For first-family seeds the integrand tends to a nonzero constant, so
  the integral diverges and the result is flagged instead of returned.

The two routes do not agree: the quadrature slope solves the orthogonality
condition exactly (1/2 to rounding for every second-family seed from l = 1
to 3000), while the quartic slopes at l = 2 and 3 are 12/5 and 21/5: the
discrepancy is structural, not numerical.  Keep ``mu_via_ift`` for anything
that must be consistent with the continuation module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Tuple

from .characteristic import _integer_parts, _polyder, _polyval
from .errors import NumericsError, _check_index
from .pencil import Family, build_eigenfunction

if TYPE_CHECKING:
    import numpy as np


def _source_terms(seed: Tuple[int, float, float], cos, sin):
    """(psi, Phi2, (2 lam + 1) psi + z psi', Phi1 L psi), the terms of h at
    z = cos / sin, each in units of sin**lam.

    With the seed's lattice (e, c, d), lam = -e, w = c - i d / e and
    u = cos + i sin, psi^(k) = e! / (e - k)! sin**(k - e) Re(w u**(e - k)),
    and (psi', g) = e sin**(1 - e) (Re, Im)(w u**(e - 1)) with
    g = lam psi + z psi'.  So the couplings' denominator psi'^2 + g^2 is
    e^2 |w|^2 sin**(2 - 2e), never 0, and Phi1 = Im(w u**(e - 1))^2 / |w|^2.
    Complex arithmetic only, so floats and arrays take the same path.
    """
    e, c, d = seed
    w = complex(c, -d / max(e, 1))  # d = 0 for the constant seed, e = 0
    u = cos + 1j * sin
    a = w * u ** (e - 1)
    # b = e (e - 1) sin^2 w u**(e - 2): Re b is psi'', Im b - e sin Re a is
    # lam psi' + z psi''
    b = e * (e - 1) * sin * sin * a * u.conjugate()
    ra, ia, ww = a.real, a.imag, abs(w) ** 2
    psi = (a * u).real
    f2 = ra * (ra * b.real + 2.0 * ia * (b.imag - e * sin * ra)) / ww
    return psi, f2, (1 - e) * psi + e * sin * ia, -ia * ia / ww * b.real


def mu_via_ift(l: int, family: Family) -> float:
    """Branch slope at n = 0 from the characteristic quartic.

    mu = -Phi_n / Phi_Lam = -B(lam) / A'(lam) at the integer seed lam,
    evaluated exactly and rounded once.  A'(-l) = l^2 and
    A'(-l-1) = -(l^2 + 1), so both seeds are simple roots for every l.
    """
    A, B = _integer_parts(l)
    lam = -l if family is Family.FIRST else -l - 1
    return -_polyval(B, lam) / _polyval(_polyder(A), lam)  # int / int rounds once


class QuadratureDiagnostics(NamedTuple):
    """The midpoint rule's largest |z|, cot(pi / 2N), and its mu, one each."""

    windows: Tuple[float, ...]
    mu_values: Tuple[float, ...]
    divergent_tail: bool
    converged: bool


def mu_via_quadrature(l: int, family: Family) -> Tuple[float, QuadratureDiagnostics]:
    """Slope from the Fredholm orthogonality condition on the real line.

    The condition is affine in mu:  I_rest + mu * I_mu = 0  with

        I_rest = int w (Phi2 + Phi1 L psi) psi dz,
        I_mu   = int w ((2 lam + 1) psi + z psi') psi dz,   w = (1+z^2)^lam.

    With z = cot theta, dz = -dtheta / sin^2 theta and w = sin**(-2 lam)
    theta.  Each term of h and psi is sin**lam theta times its value from
    ``_source_terms``, so each integrand is the product of those two values
    over sin^2 theta: no power of z is formed and the sums stay finite at
    every l.  For second-family seeds (lam = -e, lattice index e) both
    integrands are cosine polynomials in theta, of degree 4e - 4 (I_rest)
    and 2e - 2 (I_mu).  The midpoint rule with N nodes on (0, pi) is
    Gauss-Chebyshev, exact for cosine polynomials below degree 2N, so the
    one rule with N = max(1, 2e - 1) nodes gives both integrals exactly,
    and ``converged`` holds (one node fewer misses mu by 1/(2e) at l = 2,
    3, 7 and 20).

    First-family seeds have lam = -e, so the I_mu integrand tends to the
    constant 1 - e and the integrals diverge: mu is nan and
    ``divergent_tail`` is set.  A vanishing I_mu sum (l = 1, first family)
    raises NumericsError.
    """
    _check_index(l)
    seed = build_eigenfunction(l, family).poly.lattice
    num_nodes = max(1, 2 * seed[0] - 1)
    rest, coef = [], []
    for k in range(num_nodes):
        theta = (k + 0.5) * (math.pi / num_nodes)
        sin = math.sin(theta)
        psi, f2, m, f1_lpsi = _source_terms(seed, math.cos(theta), sin)
        weight = psi / (sin * sin)
        rest.append(weight * (f2 + f1_lpsi))
        coef.append(weight * m)
    i_rest, i_mu = math.fsum(rest), math.fsum(coef)
    if i_mu == 0.0:
        raise NumericsError("orthogonality degenerate: the mu-coefficient integral vanishes")
    divergent = family is Family.FIRST
    mu, window = -i_rest / i_mu, 1.0 / math.tan(0.5 * (math.pi / num_nodes))
    diag = QuadratureDiagnostics((window,), (mu,), divergent, not divergent)
    return (math.nan if divergent else mu), diag


class CorrectionSolution(NamedTuple):
    """Sampled first eigenfunction correction with solve diagnostics.

    ``resonance_amplitude`` is the coefficient of the left-null direction
    removed by the bordered solve; it vanishes (to discretization error)
    exactly when mu satisfies the orthogonality condition.
    """

    l: int
    family: Family
    mu: float
    z: np.ndarray
    phi: np.ndarray
    interior_residual_max: float
    resonance_amplitude: float
    orthogonality_value: float


def _band_apply(band, x):
    """``A @ x`` for the kl = ku = 3 matrix A held in LAPACK general band
    storage, whose row 6 + i - j holds A[i, j]."""
    y = band[6] * x
    for k in (1, 2, 3):
        y[:-k] += band[6 - k, k:] * x[k:]
        y[k:] += band[6 + k, :-k] * x[:-k]
    return y


def solve_correction(
    l: int,
    family: Family,
    mu: float,
    z_cut: float = 50.0,
    num_points: int = 4001,
) -> CorrectionSolution:
    """Finite-difference solve of  Bstar phi = h(mu)  on [-Z, Z].

    Second-order central differences inside, one-sided second-order rows at
    the two ends (no Dirichlet data: the far field is only constrained to
    follow the discrete equation), and the normalization
    int w phi psi / (1+z^2) dz = 0.  Because psi spans the kernel of Bstar,
    the system is solved in bordered form: an auxiliary unknown multiplies
    the left-null direction w psi / (1+z^2), making the matrix square.  A
    large resonance amplitude means the supplied mu does not satisfy the
    solvability condition.

    A, the band of stencil rows (three diagonals each side), is factored
    once by LAPACK's ``dgbtrf``; the bordered system is solved by mixed
    block elimination (Govaerts, SIAM J. Matrix Anal. Appl. 12, 1991):
    s = y.h / y.u with A^T y = v puts h - s u in A's range, A phi = h - s u,
    and what a nearly singular A amplifies, which lies along x_u = A^-1 u,
    is taken out along it ((phi - c x_u, s + c) keeps A phi + s u).  One
    step of iterative refinement with the same factors follows.
    """
    import numpy as np
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    if num_points < 9:
        raise ValueError("num_points too small for the boundary stencils")
    if not 0.0 < z_cut < math.inf:
        raise ValueError(f"z_cut must be positive and finite, got {z_cut!r}")
    _check_index(l)
    seed = build_eigenfunction(l, family).poly.lattice
    lam = -float(seed[0])
    z = np.linspace(-z_cut, z_cut, num_points)
    dz = z[1] - z[0]
    r = np.hypot(z, 1.0)
    psi, f2, m, f1_lpsi = _source_terms(seed, z / r, 1.0 / r)
    h = -(f2 + mu * m + f1_lpsi) * r ** -lam
    null = psi * r ** lam  # (1 + z^2)^lam psi
    a = (1.0 + z * z) / (dz * dz)
    b = (lam + 1.0) * z / dz  # 2 (lam + 1) z over 2 dz
    c0 = lam * (lam + 1.0)
    N = num_points

    nn = np.linalg.norm(null)
    if nn == 0.0:
        raise NumericsError("degenerate null direction")
    wtrap = np.full(N, dz)
    wtrap[0] = wtrap[-1] = 0.5 * dz
    constraint = wtrap * null
    u = null / nn  # border column
    v = constraint / np.linalg.norm(constraint)  # border row

    # interior central differences, one-sided edge rows; rows 0-2 hold the fill
    band = np.zeros((10, N))
    band[7, :-2] = a[1:-1] - b[1:-1]
    band[6, 1:-1] = c0 - 2.0 * a[1:-1]
    band[5, 2:] = a[1:-1] + b[1:-1]
    k = np.arange(4)
    for end, sg in ((0, 1), (N - 1, -1)):
        ae, be = a[end], sg * b[end]
        band[6 - sg * k, end + sg * k] = [2 * ae - 3 * be + c0, 4 * be - 5 * ae, 4 * ae - be, -ae]
    lu, piv, info = dgbtrf(band, 3, 3)
    if info > 0:
        raise NumericsError(f"correction solve singular: zero pivot in row {info}")
    y = dgbtrs(lu, 3, 3, v, piv, trans=1)[0]
    x_u = dgbtrs(lu, 3, 3, u, piv)[0]

    def bordered(f, g):
        """(x, t) with A x + t u = f and v.x = g."""
        t = (y @ f - g) / (y @ u)
        x = dgbtrs(lu, 3, 3, f - t * u, piv)[0]
        c = (v @ x - g) / (v @ x_u)
        return x - c * x_u, t + c

    phi, s = bordered(h, 0.0)
    d_phi, d_s = bordered(h - _band_apply(band, phi) - s * u, -(v @ phi))
    phi, s = phi + d_phi, float(s + d_s)
    if not (np.all(np.isfinite(phi)) and math.isfinite(s)):
        raise NumericsError("correction solve singular: non-finite solution")
    return CorrectionSolution(
        l=l,
        family=family,
        mu=float(mu),
        z=z,
        phi=phi,
        interior_residual_max=float(np.abs(_band_apply(band, phi) - h)[1:-1].max()),
        resonance_amplitude=s,
        orthogonality_value=float(np.dot(constraint, phi)),
    )
