"""Admissibility of straight-line crack configurations at the tip.

A prescribed family of slopes alpha_1 < ... < alpha_m is admissible when,
for some index l >= m, the slopes coincide with m consecutive zeros of a
nontrivial combination  c * psi_{l,1} + d * psi_{l-1,2}  of the two
eigenfunctions sharing the eigenvalue -l.  Inadmissible configurations
admit no tip solution at all; admissible ones force the solution to vanish
like |x, y|**l with l the smallest matching index.

The (c : d) ratio is pinned by the first slope (one linear condition, with
role swapping when the second eigenfunction vanishes there), then verified
on the remaining slopes, so each l costs one nodal-set extraction.

``check_nonlinear`` extends the construction to n > 0 by replacing the
two-dimensional combination space with the one-parameter family of initial
ratios Psi'(0) : Psi(0) of the quasilinear equation at the continued
eigenvalue; this extrapolation is flagged experimental in its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .continuation import BranchFamily, _eigenvalue, _meeting_point
from .errors import NoRealEigenvalueError
from .pencil import Family, Polynomial, build_eigenfunction, combine, nodal_set
from .shooting import _angle_scan, _half_line, two_sided_profile

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class CrackSpec:
    """Strictly increasing slopes of the straight-line cracks, in tip
    coordinates z = x / (-y)."""

    alphas: Tuple[float, ...]

    def __post_init__(self):
        if len(self.alphas) == 0:
            raise ValueError("a crack specification needs at least one slope")
        if not all(math.isfinite(a) for a in self.alphas):
            raise ValueError("crack slopes must be finite")
        if any(b <= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("crack slopes must be strictly increasing")

    @property
    def m(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class CrackMatch:
    l: int
    ratio: Tuple[float, float]
    zero_indices: Tuple[int, ...]
    max_residual: float
    zeros: Tuple[float, ...]


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    matches: Tuple[CrackMatch, ...]
    decay_exponent: Optional[int]
    mode: str = "linear"
    n: float = 0.0
    experimental: bool = False
    notes: Tuple[str, ...] = ()


def _value_scale(poly: Polynomial, x: float) -> float:
    """Magnitude available to cancellation when evaluating poly at x."""
    m = max(1.0, abs(x))
    return max(1.0, sum(abs(c) * m ** k for k, c in enumerate(poly.coeffs)))


def _ratio_from_first_slope(l: int, alpha: float) -> Optional[Tuple[float, float]]:
    """(c : d) killing the combination at ``alpha``; the larger eigenfunction
    value takes the denominator role, so the division is always tame."""
    p1 = build_eigenfunction(l, Family.FIRST).poly
    p2 = build_eigenfunction(l - 1, Family.SECOND).poly
    v1, v2 = p1(alpha), p2(alpha)
    if abs(v2) >= abs(v1):
        if v2 == 0.0:
            return None  # both vanish: degenerate, handled by caller
        c, d = 1.0, -v1 / v2
    else:
        c, d = -v2 / v1, 1.0
    norm = max(abs(c), abs(d))
    return (c / norm, d / norm)


def _match_alphas_to_zeros(
    alphas: Sequence[float],
    zeros: Sequence[float],
    consecutive: bool,
    dist_tol: float = 1e-6,
) -> Optional[Tuple[int, ...]]:
    if len(zeros) < len(alphas):
        return None
    idx = []
    for a in alphas:
        k = int(np.argmin([abs(a - z) for z in zeros]))
        idx.append(k)
    if len(set(idx)) != len(idx) or any(j <= i for i, j in zip(idx, idx[1:])):
        return None
    for a, k in zip(alphas, idx):
        if abs(a - zeros[k]) > dist_tol * (1.0 + abs(a)):
            return None
    if consecutive and any(j != i + 1 for i, j in zip(idx, idx[1:])):
        return None
    return tuple(idx)


def check_linear(
    spec: CrackSpec,
    l_max: Optional[int] = None,
    tol: float = DEFAULT_TOL,
    consecutive: bool = True,
) -> AdmissibilityReport:
    """Scan l = m .. l_max for combinations whose zeros carry the slopes.

    ``consecutive`` enforces the strict reading where the m slopes must
    occupy consecutive positions of the combination's sorted zero list;
    pass False for the looser any-subset reading.
    """
    matches: List[CrackMatch] = []
    for l in _index_range(spec, l_max):
        ratio = _ratio_from_first_slope(l, spec.alphas[0])
        candidates = [ratio] if ratio is not None else [(1.0, 0.0), (0.0, 1.0)]
        for c, d in candidates:
            combo = combine(c, d, l)
            worst = 0.0
            ok = True
            for a in spec.alphas:
                r = abs(combo(a)) / _value_scale(combo, a)
                worst = max(worst, r)
                if r > tol:
                    ok = False
                    break
            if not ok:
                continue
            ns = nodal_set(combo)
            idx = _match_alphas_to_zeros(
                spec.alphas, ns.zeros, consecutive, dist_tol=max(1e-6, 10.0 * tol)
            )
            if idx is None:
                continue
            matches.append(
                CrackMatch(l=l, ratio=(c, d), zero_indices=idx, max_residual=worst, zeros=ns.zeros)
            )
            break
    return _report(matches, mode="linear", n=0.0)


def _index_range(spec: CrackSpec, l_max: Optional[int]) -> range:
    """Indices l = m .. l_max scanned for m slopes (l_max defaults to m + 10)."""
    if l_max is None:
        l_max = spec.m + 10
    if l_max < spec.m:
        raise ValueError("l_max must be at least the number of slopes")
    return range(spec.m, l_max + 1)


def _report(matches: List[CrackMatch], **kwargs) -> AdmissibilityReport:
    decay = min(mm.l for mm in matches) if matches else None
    return AdmissibilityReport(bool(matches), tuple(matches), decay, **kwargs)


def roundtrip_generate(l: int, c: float, d: float) -> CrackSpec:
    """Nodal set of the (c, d) combination, as a crack specification."""
    combo = combine(c, d, l)
    ns = nodal_set(combo)
    if len(ns) == 0:
        raise ValueError("combination has no real zeros; nothing to generate")
    return CrackSpec(alphas=ns.zeros)


def _upper_eigenvalue(l: int, n: float) -> float:
    """Continued upper-branch eigenvalue at exponent n; raises
    NoRealEigenvalueError past the fold."""
    return _eigenvalue(_meeting_point(l), BranchFamily.UPPER, n)


def check_nonlinear(
    spec: CrackSpec,
    n: float,
    l_max: Optional[int] = None,
    tol: float = DEFAULT_TOL,
    consecutive: bool = True,
    theta_samples: int = 61,
    z_pad: float = 4.0,
) -> AdmissibilityReport:
    """Nonlinear analog of :func:`check_linear` for exponent n > 0.

    For every l whose fold has not been passed, the quasilinear equation is
    shot at the continued eigenvalue over the one-parameter family of
    initial ratios (cos t, sin t); the parity profiles are the endpoints.
    A slope match fixes t from the first slope, then the remaining slopes
    are tested against the profile's zeros exactly as in the linear scan.
    At n = 0 the family reproduces the two-dimensional combination space,
    so the scan reduces to the linear one.  Results are experimental: the
    one-parameter family is an extrapolation of the n = 0 structure.
    """
    from scipy.optimize import brentq

    if n < 0.0:
        raise ValueError("n must be >= 0")
    scan = _index_range(spec, l_max)
    notes: List[str] = []
    usable: List[Tuple[int, float]] = []
    for l in scan:
        try:
            usable.append((l, _upper_eigenvalue(l, n)))
        except NoRealEigenvalueError as exc:
            notes.append(f"l={l}: {exc}")
    if not usable:
        raise NoRealEigenvalueError(
            f"no real eigenvalue at n={n} for any l in [{scan.start}, {scan.stop - 1}]"
        )

    z_reach = max(abs(a) for a in spec.alphas) + z_pad
    alpha1 = spec.alphas[0]
    scan_end = math.copysign(abs(alpha1) + 0.5, alpha1) if alpha1 != 0.0 else 0.5
    matches: List[CrackMatch] = []
    for l, lam in usable:
        def alpha1_value(theta: float) -> float:
            # one trajectory on the half-line carrying the first slope, to
            # refine each sign change of the batched scan below
            sol = _half_line(lam, n, (math.cos(theta), math.sin(theta)), scan_end, 1e-10, 1e-12)
            return float(sol.sol(alpha1)[0])

        thetas = np.linspace(-math.pi / 2, math.pi / 2, theta_samples)
        vals = _angle_scan(lam, n, thetas, alpha1, 1e-10, 1e-12)
        candidates = [
            brentq(alpha1_value, a, b, xtol=1e-12)
            for a, b, fa, fb in zip(thetas, thetas[1:], vals, vals[1:])
            if np.sign(fa) * np.sign(fb) < 0
        ]
        # exact zeros, up to rounding: at alpha1 = 0 the scanned value is
        # cos(theta), whose zeros sit at the scan ends
        zero_tol = 1e-12 * np.max(np.abs(vals))
        candidates += [float(t) for fa, t in zip(vals, thetas) if abs(fa) <= zero_tol]
        for theta in candidates:
            ic = (math.cos(theta), math.sin(theta))
            prof = two_sided_profile(n, lam, ic, z_reach)
            zeros = prof.zeros()
            scale = max(1.0, max(abs(prof.psi(a)) + abs(a) * abs(prof.dpsi(a)) for a in spec.alphas))
            worst = max(abs(prof.psi(a)) / scale for a in spec.alphas)
            if worst > tol:
                continue
            idx = _match_alphas_to_zeros(
                spec.alphas, zeros, consecutive, dist_tol=max(1e-6, 10.0 * tol)
            )
            if idx is None:
                continue
            matches.append(
                CrackMatch(l=l, ratio=ic, zero_indices=idx, max_residual=worst, zeros=tuple(zeros))
            )
            break
    return _report(matches, mode="nonlinear", n=float(n), experimental=True, notes=tuple(notes))
