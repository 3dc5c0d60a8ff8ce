"""Admissibility of straight-line crack configurations at the tip.

A prescribed family of slopes alpha_1 < ... < alpha_m is admissible when,
for some index l >= m, the slopes coincide with m consecutive zeros of a
nontrivial combination  c * psi_{l,1} + d * psi_{l-1,2}  of the two
eigenfunctions sharing the eigenvalue -l.  Inadmissible configurations
admit no tip solution at all; admissible ones force the solution to vanish
like |x, y|**l with l the smallest matching index.

With z = cot(theta), (z + i)**l = exp(i l theta) / sin(theta)**l, so every
combination is sin(l (theta - theta_1)) / sin(theta)**l up to scale: its
zeros are the cotangents of an angle lattice with spacing pi / l.  The
first slope pins the lattice, and each further slope is tested by its
angle offset from it, so each l costs O(m) angle arithmetic.  The lattice
itself, its points and its zeros, lives in ``pencil``.

``check_nonlinear`` extends the construction to n > 0 by replacing the
two-dimensional combination space with the one-parameter family of initial
ratios Psi'(0) : Psi(0) of the quasilinear equation at the continued
eigenvalue, read off the one trajectory per index through a zero at the
first slope; this extrapolation is flagged experimental in its output.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ._record import Record
from .errors import NoRealEigenvalueError, _check_index
from .pencil import _lattice, _lattice_points, combine, nodal_set

DEFAULT_TOL = 1e-8
# check_nonlinear matches a slope to a profile zero within max(this, 10 tol)
# times 1 + |slope|: a floor, so a tol far below the profiles' rtol of 1e-11
# cannot reject a zero for its integration error; why 1e-6 is not recorded
MATCH_DIST_FLOOR = 1e-6


class CrackSpec(NamedTuple("CrackSpec", [("alphas", Tuple[float, ...])])):
    """Strictly increasing slopes of the straight-line cracks, in tip
    coordinates z = x / (-y)."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too

    def __new__(cls, alphas: Tuple[float, ...]):
        if len(alphas) == 0:
            raise ValueError("a crack specification needs at least one slope")
        if not all(math.isfinite(a) for a in alphas):
            raise ValueError("crack slopes must be finite")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("crack slopes must be strictly increasing")
        return super().__new__(cls, alphas)

    @property
    def m(self) -> int:
        return len(self.alphas)


class CrackMatch(Record):
    """Slopes carried by the zeros of index ``l``.  ``ratio`` is the
    combination's (c, d), the larger entry scaled to 1, in linear mode, and
    the initial data (Psi(0), Psi'(0)) at unit length with Psi(0) >= 0 in
    nonlinear mode.  A linear match keeps its lattice phase, not a field,
    and forms ``zeros`` from it on first read."""

    __slots__ = ("l", "ratio", "zero_indices", "max_residual", "_phase", "__dict__")
    _fields = ("l", "ratio", "zero_indices", "max_residual", "zeros")

    @classmethod
    def _on_lattice(cls, l, ratio, zero_indices, max_residual, phase) -> CrackMatch:
        self = cls.__new__(cls)
        for name, value in zip(cls.__slots__, (l, ratio, zero_indices, max_residual, phase)):
            object.__setattr__(self, name, value)
        return self

    @cached_property
    def zeros(self) -> Tuple[float, ...]:
        # p - copysign(1/2, p) is exact wherever it is the smaller offset
        p = self._phase
        return tuple(z for z, _ in _lattice(self.l, p, p - math.copysign(0.5, p)))


class AdmissibilityReport(NamedTuple):
    admissible: bool
    matches: Tuple[CrackMatch, ...]
    decay_exponent: Optional[int]
    mode: str = "linear"
    n: float = 0.0
    experimental: bool = False
    notes: Tuple[str, ...] = ()


def _match_alphas_to_zeros(
    alphas: Sequence[float],
    zeros: Sequence[float],
    consecutive: bool,
    dist_tol: float,
) -> Optional[Tuple[int, ...]]:
    if len(zeros) < len(alphas):
        return None
    idx = [min(range(len(zeros)), key=lambda k: abs(a - zeros[k])) for a in alphas]
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

    With theta_j = atan2(1, alpha_j), slope j lies on the lattice pinned by
    the first slope when x_j = l (theta_1 - theta_j) / pi is near an
    integer k_j; its residual |sin(pi (x_j - k_j))| is the value of the
    unit-normalised combination in the stable form, and must not exceed
    ``tol``.  The k_j must strictly increase, and with ``consecutive``
    (the strict reading) they must be 0, 1, ..., m - 1; pass False for
    the looser any-subset reading.
    """
    halfturns = [math.atan2(1.0, a) / math.pi for a in spec.alphas]  # theta_j / pi
    # theta_1 / pi measured from the nearer end of (0, 1), so that a steep
    # first slope keeps its precision
    a1 = spec.alphas[0]
    tau = math.atan2(1.0, abs(a1)) / math.pi
    matches: List[CrackMatch] = []
    for l in _index_range(spec, l_max, tol):
        u = l * tau
        r = round(u)
        # the first slope sits at lattice point K with phase p; lattice
        # point j is zero number points.start - j
        K, p = (r, u - r) if a1 >= 0.0 else (l - r, r - u)
        points = _lattice_points(l, p)
        first = points.start - K
        idx: List[int] = []
        worst = 0.0
        for t in halfturns:
            x = l * (halfturns[0] - t)
            k = round(x)
            worst = max(worst, abs(math.sin(math.pi * (x - k))))
            i = first + k
            if worst > tol or not 0 <= i < len(points) or idx and (
                i <= idx[-1] or consecutive and i != idx[-1] + 1
            ):
                break
            idx.append(i)
        else:
            # (c, d) ~ (-sin(l theta_1), l cos(l theta_1)), exact zeros at
            # p = 0 and +-1/2, the larger one scaled to 1; adding 0.0 turns
            # -0.0 into 0.0
            c, d = -math.sin(math.pi * p), l * math.sin(math.pi * (0.5 - abs(p)))
            big = c if abs(c) >= abs(d) else d
            ratio = (c / big + 0.0, d / big + 0.0)
            matches.append(CrackMatch._on_lattice(l, ratio, tuple(idx), worst, p))
    return _report(matches, mode="linear", n=0.0)


def _index_range(spec: CrackSpec, l_max: Optional[int], tol: float) -> range:
    """Indices m .. l_max (default m + 10) for m slopes, and the check of both scans' tol."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    l_max = spec.m + 10 if l_max is None else l_max
    _check_index(l_max, spec.m, "l_max")
    return range(spec.m, l_max + 1)


def _report(matches: List[CrackMatch], **kwargs) -> AdmissibilityReport:
    decay = min(mm.l for mm in matches) if matches else None
    return AdmissibilityReport(bool(matches), tuple(matches), decay, **kwargs)


def roundtrip_generate(l: int, c: float, d: float) -> CrackSpec:
    """Nodal set of the (c, d) combination, as a crack specification.  It
    is read off the lattice, so no coefficient is formed at any l."""
    zeros = nodal_set(combine(c, d, l)).zeros
    if not zeros:
        raise ValueError("combination has no real zeros; nothing to generate")
    return CrackSpec(alphas=zeros)


def check_nonlinear(
    spec: CrackSpec,
    n: float,
    l_max: Optional[int] = None,
    tol: float = DEFAULT_TOL,
    consecutive: bool = True,
) -> AdmissibilityReport:
    """Nonlinear analog of :func:`check_linear` for exponent n > 0.

    For every l whose fold has not been passed, the quasilinear equation
    at the continued eigenvalue has a one-parameter family of initial
    ratios (cos t, sin t) at z = 0; the parity profiles are its endpoints.
    The equation is homogeneous of degree 1, so up to scale one member
    vanishes at the first slope alpha_1: the trajectory through
    (Psi, Psi')(alpha_1) = (0, s), integrated once to 4 past the last slope
    and at least to z = 0 (a backward solve reaches z = 0 if alpha_1 > 0).
    No zero left of alpha_1 can carry a slope, so ``zeros`` starts at
    alpha_1.  The other slopes are tested against them as in the linear
    scan.  At n = 0 the family reproduces the two-dimensional combination
    space, so the check reduces to the linear one.  Results are
    experimental: the one-parameter family is an extrapolation of the
    n = 0 structure.
    """
    from .continuation import BranchFamily, _eigenvalue, find_fold  # check_linear needs none
    from .shooting import _trajectory  # loaded here, so check_linear loads no ODE layer
    if not 0.0 <= n < math.inf:
        raise ValueError("n must be finite and >= 0")
    scan = _index_range(spec, l_max, tol)
    notes: List[str] = []
    usable: List[Tuple[int, float]] = []
    for l in scan:
        try:
            usable.append((l, _eigenvalue(find_fold(l), BranchFamily.UPPER, n)))
        except NoRealEigenvalueError as exc:
            notes.append(f"l={l}: {exc}")
    if not usable:
        raise NoRealEigenvalueError(
            f"no real eigenvalue at n={n} for any l in [{scan.start}, {scan.stop - 1}]"
        )

    a1 = spec.alphas[0]
    z_end = max(spec.alphas[-1] + 4.0, 0.0)
    dist_tol = max(MATCH_DIST_FLOOR, 10.0 * tol)
    matches: List[CrackMatch] = []
    for l, lam in usable:
        # Solutions grow like |z|**-lam, so the slope s = hypot(1, a1)**-(lam + 2),
        # capped below overflow, keeps the state near z = 0 of order one, where
        # the fixed atol would swamp it.  The n = 0 ratio strays up to 2.1e-9
        # from the exact angle at rtol 1e-10 (|a1| <= 5, l <= 6), 3.9e-10 here.
        s = math.exp(min(700.0, -(lam + 2.0) * math.log(math.hypot(1.0, a1))))
        prof = _trajectory(lam, n, a1, (0.0, s), z_end, 1e-11, 1e-12)
        if a1 <= 0.0:
            psi0, dpsi0 = prof.sol(0.0)
        else:
            psi0, dpsi0 = _trajectory(lam, n, a1, (0.0, s), 0.0, 1e-11, 1e-12).end
        # unit length with Psi(0) >= 0, and Psi'(0) = -1 where Psi(0) = 0
        norm = math.copysign(math.hypot(psi0, dpsi0), psi0 if psi0 != 0.0 else -dpsi0)
        ratio = (psi0 / norm + 0.0, dpsi0 / norm)
        at = [(p / abs(norm), d / abs(norm)) for p, d in map(prof.sol, spec.alphas)]
        scale = max(1.0, max(abs(p) + abs(a * d) for a, (p, d) in zip(spec.alphas, at)))
        worst = max(abs(p) for p, _ in at) / scale
        if worst > tol:
            continue
        zeros = sorted(set(prof.zeros))  # a1 is the first, where Psi starts at 0
        idx = _match_alphas_to_zeros(spec.alphas, zeros, consecutive, dist_tol)
        if idx is not None:
            matches.append(CrackMatch(l, ratio, idx, worst, tuple(zeros)))
    return _report(matches, mode="nonlinear", n=float(n), experimental=True, notes=tuple(notes))
