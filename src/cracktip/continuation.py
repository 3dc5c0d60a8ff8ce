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
and each branch is the inverse of the graph on one side of it, sampled at
equally spaced Lam with n read off the graph.
"""

from __future__ import annotations

import enum
import math
from typing import List, NamedTuple, Optional, Tuple

from .characteristic import _integer_parts, _polyder, _polyval, _root
from .errors import NoRealEigenvalueError, NumericsError

_BRANCH_INTERVALS = 20  # a branch is sampled at this many + 1 values of Lam


class BranchFamily(enum.Enum):
    UPPER = "upper"   # seeded at -l
    LOWER = "lower"   # seeded at -l - 1

    @classmethod
    def parse(cls, text: str) -> "BranchFamily":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown branch family {text!r}; expected 'upper' or 'lower'")


class FoldPoint(NamedTuple):
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


class Branch(NamedTuple):
    l: int
    family: BranchFamily
    samples: Tuple[Tuple[float, float], ...]
    fold: Optional[FoldPoint]
    reached_n_max: bool


def _shifted_parts(l: int) -> Tuple[List[int], List[int]]:
    """A(x), B(x) in x = Lam + l, descending powers, by an exact integer
    Taylor shift.  For l = 1 the common factor x is divided out."""
    parts = []
    for c in _integer_parts(l):
        for i in range(len(c) - 1):
            for j in range(1, len(c) - i):
                c[j] -= l * c[j - 1]
        parts.append(c[:-1] if l == 1 else c)
    return parts[0], parts[1]


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
    x_star, p = meet.lambda_star + l, [a + n * b for a, b in zip(A, B)]
    # below a fold A + n B = B(x*) (n - n*) < 0 at x*; so near the fold that
    # rounding loses that sign, and with it the bracket, take the local
    # expansion Phi'' (x - x*)^2 / 2 = B(x*) (n* - n), upper to the right
    if meet.kind == "fold" and _polyval(p, x_star) >= 0.0:
        dx = math.sqrt(2.0 * _polyval(B, x_star) * (meet.n_star - n) / meet.second_derivative)
        return x_star + (dx if family is BranchFamily.UPPER else -dx) - l
    return _root(p, seed, x_star) - l


def continue_branch(l: int, family: BranchFamily, n_max: float) -> Branch:
    """``_BRANCH_INTERVALS + 1`` samples of one branch, equally spaced in Lam
    from the seed to the meeting point, or to the root at n_max below it.
    For l = 1 the upper branch is the persistent root Lam = -1, which the
    lower one meets at the crossing and follows on to n_max."""
    if not n_max > 0.0:
        raise ValueError("n_max must be positive")
    meet = find_fold(l)
    crossing = meet.kind == "crossing"
    if crossing and math.isinf(n_max):
        raise ValueError(f"n_max must be finite for l={l}, whose branches never end")
    seed = float(-l - (family is BranchFamily.LOWER))
    if crossing and family is BranchFamily.UPPER:
        return Branch(l, family, ((0.0, seed), (n_max, seed)), None, reached_n_max=True)
    reached = n_max < meet.n_star
    end = ((n_max, _eigenvalue(meet, family, n_max)) if reached
           else (meet.n_star, meet.lambda_star))
    A, B = _shifted_parts(l)
    samples = [(0.0, seed)]
    for k in range(1, _BRANCH_INTERVALS):
        lam = seed + k * (end[1] - seed) / _BRANCH_INTERVALS  # in [-l-1, -l]: lam + l is exact
        samples.append((0.0 - _polyval(A, lam + l) / _polyval(B, lam + l), lam))  # never -0.0
    tail = [(n_max, -1.0)] if crossing and n_max > meet.n_star else []
    fold = None if reached or crossing else meet
    return Branch(l, family, (*samples, end, *tail), fold, reached_n_max=fold is None)


def _fold_point(l: int, n: float, x: float, kind: str) -> FoldPoint:
    """The meeting point at exponent n and x = Lam + l, with Phi and its
    Lam-derivatives (d/dLam = d/dx) evaluated from the shifted parts."""
    phi = [a + n * b for a, b in zip(*_shifted_parts(l))]
    if l == 1:
        phi.append(0.0)  # restore the divided-out factor x
    d1 = _polyder(phi)
    return FoldPoint(
        l=l,
        n_star=float(n),
        lambda_star=float(x - l),
        residual_phi=float(abs(_polyval(phi, x))),
        residual_dphi=float(abs(_polyval(d1, x))),
        second_derivative=float(_polyval(_polyder(d1), x)),
        kind=kind,
    )


def find_fold(l: int) -> FoldPoint:
    """Where the two branches of index l meet.  For l >= 2 the fold, the peak
    x* of n = -A/B on (-1, 0): the root of W = A'B - AB', negative at x = -1
    and positive at x = 0.  For l = 1 the crossing, of kind "crossing": the
    second branch meets the persistent root Lam = -1 at n = 1/2, where the
    deflated A + n B vanishes at x = 0, and real roots survive on both sides."""
    A, B = _shifted_parts(l)
    if l == 1:
        return _fold_point(1, -A[-1] / B[-1], 0.0, "crossing")
    dA, dB = [0] + _polyder(A), [0] + _polyder(B)  # aligned with A and B
    W = [0] * (2 * len(A) - 1)  # in exact integers, rounded once below
    for i in range(len(A)):
        for j in range(len(B)):
            W[i + j] += dA[i] * B[j] - A[i] * dB[j]
    x = _root([float(w) for w in W[1:]], 0.0, -1.0)
    n = -_polyval(A, x) / _polyval(B, x)
    fold = _fold_point(l, n, x, "fold")
    if fold.second_derivative == 0.0:
        raise NumericsError(f"fold for l={l} is not quadratic (Phi_LamLam = 0)")
    return fold
