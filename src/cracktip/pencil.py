"""Polynomial eigenfunctions of the quadratic crack-tip pencil.

The rescaled tip equation separates into the one-parameter family of ODEs

    (1 + z^2) psi'' + 2 (lam + 1) z psi' + lam (lam + 1) psi = 0,

whose polynomial solutions come in two discrete families: degree-d
polynomials with lam = -d (first family) and degree-d polynomials with
lam = -d - 1 (second family).  This module constructs them exactly,
evaluates them, and extracts nodal sets, which downstream modules
interpret as admissible crack slopes.

The eigenfunctions are Re (z + i)**d (first family) and
Im (z + i)**(d + 1) / (d + 1) (second family).  Their binomial
coefficients are kept as exact rationals at every degree, so the classical
low-degree table is reproduced without rounding, but they are evaluated
from one complex power (z + i)**l: Horner's rule over the rounded
coefficients is off by 1e-7 relative at degree 60 and by 4e-2 at 100.

With z = cot(theta), c Re (z + i)**l + d Im (z + i)**l / l is
(c cos(l theta) + (d / l) sin(l theta)) / sin(theta)**l, so its zeros are
the cotangents of an angle lattice with spacing pi / l.  The lattice lives
here; ``nodal_set`` and ``crack.check_linear`` read zeros off it.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence, Tuple

from ._record import Record
from .characteristic import _polyval

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_TRANSVERSALITY_TOL = 1e-8

# pi to 40 decimals as (numerator, denominator), so that each nodal angle
# is rounded once
_PI = (31415926535897932384626433832795028841972, 10 ** 40)


class Family(enum.Enum):
    """The two eigenfunction families of the quadratic pencil."""

    FIRST = "first"
    SECOND = "second"

    @classmethod
    def parse(cls, text: str) -> "Family":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown family {text!r}; expected 'first' or 'second'")


class Polynomial(Record):
    """Dense real polynomial; ``coeffs[k]`` multiplies ``z**k``.

    ``exact`` carries the rational coefficients of a pencil eigenfunction;
    it is None for generic combinations.  ``lattice`` is (l, c, d), the
    index and phase (c : d) of the nodal lattice, when the polynomial is
    c Re (z + i)**l + d Im (z + i)**l / l, and None otherwise.  A call at
    a real z, scalar or array, evaluates that formula when there is a
    lattice, and Horner's rule over ``coeffs`` only when there is none.
    Equality and the hash see ``coeffs`` only.
    """

    __slots__ = _fields = ("coeffs", "exact", "lattice")

    def __init__(self, coeffs: Tuple[float, ...], exact: Optional[Tuple[Fraction, ...]] = None,
                 lattice: Optional[Tuple[int, float, float]] = None):
        if len(coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if len(coeffs) > 1 and coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        super().__init__(coeffs, exact, lattice)

    def _key(self) -> tuple:
        return self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        if self.lattice is None:
            return _polyval(reversed(self.coeffs), z)
        return _lattice_value(*self.lattice, z + 1j)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        d = tuple(k * c for k, c in enumerate(self.coeffs))[1:]
        return Polynomial(d if d[-1] != 0.0 else _trim(d))


def _lattice_value(l: int, c: float, d: float, w):
    """c Re w**l + d Im w**l / l (c at l = 0) for a complex scalar or array w,
    from one complex power.  A scalar power can overflow to inf or nan
    without raising, so a scalar value that is not finite raises
    OverflowError."""
    p = w ** l
    value = c * p.real + d * p.imag / max(l, 1)
    if isinstance(value, float) and not math.isfinite(value):
        raise OverflowError(f"|w|**{l} is past the double range at w = {w!r}")
    return value


def _trim(coeffs: Sequence[float]) -> Tuple[float, ...]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return tuple(out)


class PencilEigenpair(NamedTuple):
    """A pencil eigenvalue with its monic polynomial eigenfunction."""

    degree: int
    family: Family
    lam: float
    poly: Polynomial


class NodalSet(Record):
    """Sorted real zeros of a polynomial with transversality annotations."""

    __slots__ = _fields = ("zeros", "derivative_magnitudes", "transversal", "tol")

    def __len__(self) -> int:
        return len(self.zeros)

    @property
    def all_transversal(self) -> bool:
        return all(self.transversal)


def _seed_lattice(degree: int, family: Family) -> Tuple[int, float, float]:
    """The lattice (e, c, d) of ``build_eigenfunction(degree, family)``; lam = -e."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return (degree, 1.0, 0.0) if family is Family.FIRST else (degree + 1, 0.0, 1.0)


@lru_cache(maxsize=1024)
def build_eigenfunction(degree: int, family: Family) -> PencilEigenpair:
    """Construct the monic degree-``degree`` eigenfunction of ``family``.

    The first family is Re (z + i)**d, the second Im (z + i)**(d + 1) / (d + 1).
    With e the exponent, the coefficient of z**(d - 2m) is (-1)**m C(e, d - 2m),
    over d + 1 for the second family; coefficients of the other parity vanish.
    """
    from fractions import Fraction
    lattice = _seed_lattice(degree, family)
    e, denom = lattice[0], (1 if family is Family.FIRST else lattice[0])
    exact = [Fraction(0)] * (degree + 1)
    for m in range(degree // 2 + 1):
        exact[degree - 2 * m] = Fraction((-1) ** m * math.comb(e, degree - 2 * m), denom)
    exact = tuple(exact)
    poly = Polynomial(tuple(float(c) for c in exact), exact=exact, lattice=lattice)
    return PencilEigenpair(degree, family, float(-e), poly)


def _lattice_points(l: int, p) -> range:
    """The j with 0 < j + p < l, descending: the nodal angles pi (j + p) / l
    of the index-l combination with phase p in [-1/2, 1/2], in the order
    of ascending slopes.  At p = 0 (no first-family part) there are l - 1."""
    return range(l if p < 0.0 else l - 1, -1 if p > 0.0 else 0, -1)


def _lattice(l: int, p, q) -> Iterator[Tuple[float, float]]:
    """(cot theta, |sin theta|) at the nodal angles theta = pi (j + p) / l,
    j in ``_lattice_points(l, p)``, for exact p and its offset q from the
    nearer half-integer.  The smaller of the two carries the phase, so an
    angle near pi / 2 or an end keeps its relative precision.  Each angle
    is taken from pi / 2 (tangent) or, within pi / 4 of an end, from that
    end (cotangent), formed exactly and rounded once."""
    b2, s = (0, p) if abs(p) <= abs(q) else ((1 if p > 0 else -1), q)  # p = b2 / 2 + s
    sn, sd = s.as_integer_ratio()
    pi_num, pi_den = _PI
    den = pi_den * 2 * l * sd
    for j in _lattice_points(l, p):
        t = (2 * j + b2) * sd + 2 * sn  # 2 (j + p) sd
        h = l * sd - t  # the angle from pi / 2 in units of pi / (2 l sd)
        if 2 * abs(h) <= l * sd:
            x = pi_num * h / den
            yield math.tan(x), math.cos(x)
        else:
            x = pi_num * (t if h > 0 else t - 2 * l * sd) / den
            yield 1.0 / math.tan(x), abs(math.sin(x))


def _over_pi(x: float) -> Fraction:
    """x / pi in rationals, with ``_PI`` for pi."""
    from fractions import Fraction
    (num, den), (pi_num, pi_den) = x.as_integer_ratio(), _PI
    return Fraction(num * pi_den, den * pi_num)


def nodal_set(poly: Polynomial, tol: float = DEFAULT_TRANSVERSALITY_TOL) -> NodalSet:
    """Sorted zeros of a pencil eigenfunction or combination, read off its
    lattice, each annotated with |poly'| = hypot(l c, d) |sin theta|**(2 - l).

    There are l zeros, l - 1 without a first-family part.  A polynomial
    that carries no lattice raises ValueError.
    """
    if poly.lattice is None:
        raise ValueError("nodal_set needs a pencil eigenfunction or a combine() result; "
                         "this polynomial carries no nodal lattice")
    return _nodal_set(*poly.lattice, tol)


def _nodal_set(l: int, c: float, d: float, tol: float = DEFAULT_TRANSVERSALITY_TOL) -> NodalSet:
    """``nodal_set`` of c Re (z + i)**l + d Im (z + i)**l / l, from the
    lattice alone, so no coefficient is formed at any l."""
    if math.copysign(1.0, d) < 0.0:
        c, d = -c, -d
    # with d >= 0 the phase is p = -atan2(|c| l, d) / pi in [-1/2, 1/2], and
    # its offset from the nearer half-integer is q = atan2(d, |c| l) / pi,
    # both signed by c; each is formed directly and divided by pi exactly
    a = abs(c) * l
    p = _over_pi(-math.copysign(math.atan2(a, d), c))
    q = _over_pi(math.copysign(math.atan2(d, a), c))
    scale = math.hypot(l * c, d)
    zeros, dmags = [], []
    for z, sine in _lattice(l, p, q):
        zeros.append(z)
        try:
            dmags.append(scale * sine ** (2 - l))
        except OverflowError:
            dmags.append(math.inf)
    return NodalSet(tuple(zeros), tuple(dmags), tuple(m > tol for m in dmags), tol)


def _check_combination(c: float, d: float, l: int) -> None:
    """Raise ValueError unless (c, d, l) is a combination: l >= 1 and finite
    weights, not both 0."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if c == 0.0 and d == 0.0:
        raise ValueError("combination requires c^2 + d^2 != 0")
    if not (math.isfinite(c) and math.isfinite(d)):
        raise ValueError("combination weights must be finite")


def combine(c: float, d: float, l: int) -> Polynomial:
    """c * (first family, degree l) + d * (second family, degree l-1).

    Both constituents share the eigenvalue -l, so any such combination
    solves the same pencil ODE; its zeros are candidate crack slopes.
    """
    _check_combination(c, d, l)
    p1 = build_eigenfunction(l, Family.FIRST).poly
    p2 = build_eigenfunction(l - 1, Family.SECOND).poly
    n = max(len(p1.coeffs), len(p2.coeffs))
    out = [0.0] * n
    for k, v in enumerate(p1.coeffs):
        out[k] += c * v
    for k, v in enumerate(p2.coeffs):
        out[k] += d * v
    return Polynomial(_trim(out), lattice=(l, c, d))


def evaluate_expansion(terms: Sequence[Tuple[int, float, float]], z: float, tau: float) -> float:
    """Sum of exp(-k tau) * [c_k * psi_{k,1} + d_k * psi_{k-1,2}] at (z, tau),
    that is of c_k Re w**k + d_k Im w**k / k with w = (z + i) exp(-tau).

    ``terms`` is a finite list of (k, c_k, d_k) with k >= 1.
    """
    w = (z + 1j) * math.exp(-tau)
    total = 0.0
    for k, ck, dk in terms:
        if k < 1:
            raise ValueError("expansion indices must satisfy k >= 1")
        total += _lattice_value(k, ck, dk, w)
    return total
