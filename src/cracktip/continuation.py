"""Eigenvalue branches in the medium exponent n and their fold points.

Each index l >= 2 carries two real eigenvalue branches, seeded at n = 0 by
the classical exponents -l (upper) and -l-1 (lower).  As n grows the
branches move toward each other and annihilate at a saddle-node point
n_l*, beyond which the characteristic quartic has no real roots near the
pair.  l = 1 is the exception: Lam = -1 is a root for every n, the second
branch crosses it at n = 1/2, and real eigenvalues persist for all n.

The quartic is affine in n, Phi = A(Lam) + n B(Lam), so both branches lie
on the explicit graph n = -A/B.  In the shifted variable x = Lam + l the
seeds sit at x = 0 and x = -1, where A vanishes; for l >= 2, B > 0 on
[-1, 0], the graph rises from 0 at x = -1 to its peak n* and falls back to
0 at x = 0.  The fold is that peak, the root of W = A'B - AB' in (-1, 0),
and each branch is the inverse of the graph on one side of it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .characteristic import _integer_parts, build_quartic
from .errors import NoFoldInBracketError, NoRealEigenvalueError, NumericsError


class BranchFamily(enum.Enum):
    UPPER = "upper"   # seeded at -l
    LOWER = "lower"   # seeded at -l - 1

    @classmethod
    def parse(cls, text: str) -> "BranchFamily":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown branch family {text!r}; expected 'upper' or 'lower'")


@dataclass(frozen=True)
class FoldPoint:
    """A parameter value where two real eigenvalues merge.

    ``kind`` is "fold" for a genuine pair annihilation and "crossing" for
    the l = 1 double root, where real eigenvalues survive on both sides.
    """

    l: int
    n_star: float
    lambda_star: float
    residual_phi: float
    residual_dphi: float
    second_derivative: float
    kind: str = "fold"


@dataclass(frozen=True)
class Branch:
    l: int
    family: BranchFamily
    samples: Tuple[Tuple[float, float], ...]
    fold: Optional[FoldPoint]
    reached_n_max: bool


def _shifted_parts(l: int) -> Tuple[np.ndarray, np.ndarray]:
    """A(x), B(x) in x = Lam + l, descending powers, by an exact integer
    Taylor shift.  For l = 1 the common factor x is divided out."""
    parts = []
    for c in _integer_parts(l):
        for i in range(len(c) - 1):
            for j in range(1, len(c) - i):
                c[j] -= l * c[j - 1]
        parts.append(np.array(c[:-1] if l == 1 else c, dtype=float))
    return parts[0], parts[1]


def _root(p: np.ndarray, seed: float, other: float) -> float:
    """The root of p between ``seed`` and ``other``, where p changes sign:
    Newton from ``seed``, bisecting whenever a step leaves the bracket."""
    if np.polyval(p, seed) < 0.0:
        p = -p
    dp = np.polyder(p)
    pos, neg, x = seed, other, seed
    for _ in range(100):
        fx = np.polyval(p, x)
        if fx == 0.0:
            return float(x)
        if fx > 0.0:
            pos = x
        else:
            neg = x
        d = np.polyval(dp, x)
        step = fx / d if d != 0.0 else math.inf
        if abs(step) <= 2.0 ** -52 or abs(pos - neg) <= 2.0 ** -52:
            return float(x)
        x = x - step if min(pos, neg) < x - step < max(pos, neg) else 0.5 * (pos + neg)
    raise NumericsError(f"no convergence to the root of {p!r} between {seed!r} and {other!r}")


def _meeting_point(l: int) -> FoldPoint:
    """Where the two branches of index l meet: the fold, or for l = 1 the crossing."""
    return double_root_l1() if l == 1 else find_fold(l)


def _eigenvalue(meet: FoldPoint, family: BranchFamily, n: float) -> float:
    """Lam on ``family``'s branch at exponent n, the root of A + n B on the
    branch's side of the meeting point of index ``meet.l``."""
    l = meet.l
    if meet.kind == "crossing" and (family is BranchFamily.UPPER or n >= meet.n_star):
        return -1.0  # the persistent root
    if meet.kind == "fold" and n >= meet.n_star:
        raise NoRealEigenvalueError(f"past fold (n >= {meet.n_star:.8g}), no real eigenvalue")
    A, B = _shifted_parts(l)
    seed = 0.0 if family is BranchFamily.UPPER else -1.0
    return _root(A + n * B, seed, meet.lambda_star + l) - l


def continue_branch(
    l: int,
    family: BranchFamily,
    n_max: float,
    initial_step: float = 1e-3,
    min_step: float = 1e-9,
    growth: float = 1.4,
) -> Branch:
    """Sample one branch on a geometric n grid up to ``n_max`` or its fold.

    Steps start at ``initial_step`` and grow by ``growth`` up to 0.05; a
    step that would reach the fold is halved, and once it falls below
    ``min_step`` the branch ends with the fold.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if n_max <= 0.0:
        raise ValueError("n_max must be positive")
    meet = _meeting_point(l)
    n_end = meet.n_star if meet.kind == "fold" else math.inf
    samples: List[Tuple[float, float]] = [(0.0, _eigenvalue(meet, family, 0.0))]
    n, step = 0.0, initial_step
    while n < n_max:
        dn = min(step, n_max - n)
        while n + dn >= n_end:
            dn *= 0.5
            if dn < min_step:
                return Branch(l, family, tuple(samples), meet, reached_n_max=False)
        n += dn
        samples.append((n, _eigenvalue(meet, family, n)))
        step = min(dn * growth, 0.05)
    return Branch(l, family, tuple(samples), None, reached_n_max=True)


def _fold_point(l: int, n: float, lam: float, kind: str) -> FoldPoint:
    q = build_quartic(l, n)
    return FoldPoint(
        l=l,
        n_star=float(n),
        lambda_star=float(lam),
        residual_phi=float(abs(q(lam))),
        residual_dphi=float(abs(q.d_dlam(lam))),
        second_derivative=float(q.d2_dlam2(lam)),
        kind=kind,
    )


def find_fold(l: int, bracket: Optional[Tuple[float, float]] = None) -> FoldPoint:
    """The fold of index l >= 2: the peak x* of n = -A/B on (-1, 0).

    x* is the root of W = A'B - AB', which is negative at x = -1 and
    positive at x = 0.  With ``bracket=(lo, hi)`` the fold must satisfy
    lo < n* <= hi.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if l == 1:
        raise NoFoldInBracketError("l = 1 has no fold: Lam = -1 is a root for every n")
    A, B = _shifted_parts(l)
    W = np.polysub(np.polymul(np.polyder(A), B), np.polymul(A, np.polyder(B)))
    x = _root(W, 0.0, -1.0)
    n = -np.polyval(A, x) / np.polyval(B, x)
    if bracket is not None and not bracket[0] < n <= bracket[1]:
        raise NoFoldInBracketError(f"fold n*={n!r} of l={l} is not inside bracket {bracket!r}")
    fold = _fold_point(l, n, x - l, "fold")
    if fold.second_derivative == 0.0:
        raise NumericsError(f"fold for l={l} is not quadratic (Phi_LamLam = 0)")
    return fold


def double_root_l1() -> FoldPoint:
    """The l = 1 double root: Lam = -1 is persistent, and the second branch
    crosses it at n = 1/2, where the deflated A + n B vanishes at x = 0.
    Real roots survive on both sides, so the point is reported as a
    crossing rather than a fold."""
    A, B = _shifted_parts(1)
    return _fold_point(1, -A[-1] / B[-1], -1.0, "crossing")
