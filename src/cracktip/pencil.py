"""Polynomial eigenfunctions of the quadratic crack-tip pencil.

The rescaled tip equation separates into the one-parameter family of ODEs

    (1 + z^2) psi'' + 2 (lam + 1) z psi' + lam (lam + 1) psi = 0,

whose polynomial solutions come in two discrete families: degree-d
polynomials with lam = -d (first family) and degree-d polynomials with
lam = -d - 1 (second family).  This module constructs them exactly,
evaluates them, and extracts nodal sets, which downstream modules
interpret as admissible crack slopes.

The eigenfunctions are Re (z + i)**d (first family) and
Im (z + i)**(d + 1) / (d + 1) (second family), each stored as its lattice
(below).  Their binomial coefficients, exact rationals and their floats,
are formed from integers only when read; evaluation takes one complex
power (z + i)**l, where Horner's rule over the rounded coefficients is off
by 1e-7 relative at degree 60 and by 4e-2 at 100.

With z = cot(theta), c Re (z + i)**l + d Im (z + i)**l / l is
(c cos(l theta) + (d / l) sin(l theta)) / sin(theta)**l, so its zeros are
the cotangents of an angle lattice with spacing pi / l.  The lattice lives
here; ``nodal_set`` and ``crack.check_linear`` read zeros off it.
"""

from __future__ import annotations

import enum
import math
import operator
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ._record import NodalSet, Record
from .errors import _check_index

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
    """c Re (z + i)**l + d Im (z + i)**l / l, the constant c at l = 0, stored
    as its lattice (l, c, d): the index and phase (c : d) of its zeros.
    From l = 1 on, c or d is nonzero.

    The lattice is the one field, so construction, ``==``, the hash,
    ``repr``, copy and pickle see it alone, at any l.  Two lattices are one
    polynomial only at degree 1 or less: (2, 0, c) and (1, c, 0) are both
    c z, (1, 0, c) and (0, c, any) the constant c.  A call at a real z,
    scalar or array, takes one complex power.  ``coeffs[k]`` multiplies
    ``z**k``; ``exact`` holds the rationals of a seed, (l, 1, 0) or
    (l, 0, 1), and is None otherwise.  Each is formed on first read and
    kept; past the double range ``coeffs`` raises OverflowError.
    """

    __slots__ = ("lattice", "__dict__")  # the dict keeps coeffs and exact once read
    _fields = ("lattice",)

    def _check(self):  # c = d = 0 from l = 1 on would give the zero polynomial a degree and zeros
        l, c, d = self.lattice
        _check_index(l, 0, "the lattice's l")
        if not (math.isfinite(c) and math.isfinite(d) and (c or d or l == 0)):
            raise ValueError(f"a lattice (l, c, d) needs finite c and d, and c or d nonzero "
                             f"unless l = 0, not {self.lattice!r}")

    @property
    def _seed(self) -> Optional[bool]:
        """True for the first seed, False for the second (l >= 1), else None."""
        l, c, d = self.lattice
        return c == 1.0 if (c, d) == (1.0, 0.0) or (c, d) == (0.0, 1.0) and l > 0 else None

    @cached_property
    def coeffs(self) -> Tuple[float, ...]:
        l, c, d = self.lattice
        if self._seed is not None:  # each rounded once from int / int
            return tuple(_seed_coefficients(l, self._seed, operator.truediv))
        if l == 0:
            return (0.0 + c,)
        # c * (first seed) + d * (second seed), without z**l when c = 0
        out = [0.0 + c * v for v in _seed_coefficients(l, True, operator.truediv)]
        for k, v in enumerate(_seed_coefficients(l, False, operator.truediv)):
            out[k] += d * v
        return tuple(out[:l + (c != 0.0)])

    @cached_property
    def exact(self) -> Optional[Tuple[Fraction, ...]]:
        if self._seed is None:
            return None
        from fractions import Fraction
        return tuple(_seed_coefficients(self.lattice[0], self._seed, Fraction))

    @property
    def degree(self) -> int:
        l, c, _ = self.lattice  # l, or l - 1 without a first-family part
        return max(l - (c == 0.0), 0)

    def __call__(self, z):
        return _lattice_value(*self.lattice, z + 1j)

    def derivative(self) -> "Polynomial":
        """l c Re (z + i)**(l - 1) + d Im (z + i)**(l - 1): the lattice
        (l - 1, l c, (l - 1) d), (0, c, 0) at l = 1 and 0 at l = 0.
        OverflowError where l c or (l - 1) d is past the double range."""
        l, c, d = self.lattice
        lattice = (l - 1, l * c, (l - 1) * d) if l else (0, 0.0, 0.0)
        if not (math.isfinite(lattice[1]) and math.isfinite(lattice[2])):
            raise OverflowError(f"the derivative of {self!r} is past the double range")
        return Polynomial(lattice)


def _seed_coefficients(e: int, first: bool, over) -> List:
    """The coefficients, ascending, of the seed with exponent e, each formed
    as ``over(numerator, denominator)`` from integers: at z**(d - 2m),
    (-1)**m C(e, d - 2m) over 1 for the first family (d = e), over e for
    the second (d = e - 1); 0 elsewhere.  Each binomial is the one before
    it times k (k - 1) / ((e - k + 1) (e - k + 2)), exactly."""
    degree, denom = (e, 1) if first else (e - 1, e)
    out = [over(0, denom)] * (degree + 1)
    b = 1 if first else e  # C(e, degree)
    for k in range(degree, -1, -2):
        out[k] = over(b, denom)
        b = -(b * (k * (k - 1)) // ((e - k + 1) * (e - k + 2)))
    return out


def _lattice_value(l: int, c: float, d: float, w):
    """c Re w**l + d Im w**l / l (c at l = 0) for a complex scalar or array w,
    from one complex power.  A power can overflow to inf or nan without
    raising, so a value with an entry that is not finite raises
    OverflowError."""
    p = w ** l
    value = c * p.real + d * p.imag / max(l, 1)  # a float, or an array
    if not math.isfinite(value if isinstance(value, float) else abs(value).max(initial=0.0)):
        raise OverflowError(f"|w|**{l} is past the double range at w = {w!r}")
    return value


class PencilEigenpair(NamedTuple):
    """A pencil eigenvalue with its monic polynomial eigenfunction."""

    degree: int
    family: Family
    lam: float
    poly: Polynomial


def build_eigenfunction(degree: int, family: Family) -> PencilEigenpair:
    """The monic degree-``degree`` eigenfunction of ``family``: Re (z + i)**d
    for the first family, Im (z + i)**(d + 1) / (d + 1) for the second.
    Its coefficients are formed when first read (see ``Polynomial``)."""
    _check_index(degree, 0, "degree")
    lattice = (degree, 1.0, 0.0) if family is Family.FIRST else (degree + 1, 0.0, 1.0)
    return PencilEigenpair(degree, family, float(-lattice[0]), Polynomial(lattice))


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

    There are l zeros, l - 1 without a first-family part.  No coefficient
    is formed, so this works at any l.  A zero is transversal where its
    slope is above ``tol``, which must be positive.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    l, c, d = poly.lattice
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


def combine(c: float, d: float, l: int) -> Polynomial:
    """c * (first family, degree l) + d * (second family, degree l-1).

    Both constituents share the eigenvalue -l, so any such combination
    solves the same pencil ODE; its zeros are candidate crack slopes.
    Only the lattice (l, c, d) is stored (see ``Polynomial``).
    """
    _check_index(l)
    return Polynomial((l, c, d))


def evaluate_expansion(terms: Sequence[Tuple[int, float, float]], z: float, tau: float) -> float:
    """Sum of exp(-k tau) * [c_k * psi_{k,1} + d_k * psi_{k-1,2}] at (z, tau),
    that is of c_k Re w**k + d_k Im w**k / k with w = (z + i) exp(-tau).

    ``terms`` is a finite list of (k, c_k, d_k) with k >= 1.
    """
    w = (z + 1j) * math.exp(-tau)
    total = 0.0
    for k, ck, dk in terms:
        _check_index(k, name="k")
        total += _lattice_value(k, ck, dk, w)
    return total
