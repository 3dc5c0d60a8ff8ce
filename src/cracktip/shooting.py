"""Direct integration of the quasilinear tip eigenfunction ODE.

The equation is affine in the second derivative, so Psi'' is solved for
once, in ``_tip_kernel``, as a quotient whose divisor is a sum of
nonnegative terms, and ``_trajectory`` steps it from a state at any z0
with the DOP853 stepper of ``_dopri`` on Python floats.
``shoot`` starts at z = 0 with the parity of the index (even l: Psi(0)=1,
Psi'(0)=0; odd l: Psi(0)=0, Psi'(0)=1); the amplitude scales out exactly
because the equation is 1-homogeneous.  The negative half-line is
obtained by parity mirroring, which avoids any drift through the
symmetry point.

Zeros are the sign changes of Psi over a step, located on that step's
7th-order interpolant and annotated with transversality data; the growth
exponent is read off the end state as z Psi'/Psi at z_max.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import List, Tuple

from ._record import NodalSet, Record
from .errors import QuasilinearDegeneracyError, _check_index

DEFAULT_Z_MAX = 100.0
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-10


def isolate_second_derivative(z: float, psi: float, dpsi: float, lam: float, n: float) -> float:
    """Solve the tip equation for Psi'' at one phase-space point."""
    return _tip_kernel(float(lam), float(n))(float(z), float(psi), float(dpsi))


def _tip_kernel(lam: float, n: float):
    """Psi'' of the tip equation at fixed lam and n, as psi2(z, psi, dpsi)
    for ``_dopri.integrate``.  Collecting the Psi''-linear terms gives

        Psi'' = -[P0 (1 + n phi1) + 2 n lam psi'^2 g/den] / (1 + z^2 + n w^2/den),

    with g = lam psi + z psi', den = psi'^2 + g^2, phi1 = g^2/den,
    w = z g + psi' and P0 = (lam+1)(g + z psi'); at n = 0,
    Psi'' = -P0 / (1 + z^2).  For n >= 0 the divisor is a sum of
    nonnegative terms, at least 1 + z^2.  phi1, psi' g/den and w^2/den are
    of degree 0 in the state and are formed as ratios, from the gradient
    (psi', g) scaled to unit size by a power of two where den lies outside
    (2^-900, inf); 2 n lam psi'^2 g/den is formed from the smaller of g and
    psi', as g (1 - phi1) or psi' (psi' g/den).  Float arithmetic, with
    lam + 1 and 2 n lam bound once.  A vanishing gradient raises.  Where
    the quotient or its divisor is not finite, or that last term is
    subnormal and not 0, Psi'' is taken in rationals as
    -[P0 (den + n g^2) + 2 n lam psi'^2 g] / [(1 + z^2) den + n w^2], rounded
    once: +-inf past the double range, nan for a non-finite state.  n < 0
    or a non-finite lam or n raises ValueError.
    """
    if not (0.0 <= n < math.inf and math.isfinite(lam)):
        raise ValueError(f"n must be finite and >= 0 and lambda finite, got {n}, {lam}")
    lam1, n_lam_2 = lam + 1.0, 2.0 * n * lam

    def psi2(z, psi, dpsi):
        zd = z * dpsi
        g = lam * psi + zd
        a, b = dpsi, g
        den = a * a + b * b
        if not 2.0 ** -900 < den < math.inf:
            e = -math.frexp(max(abs(a), abs(b)))[1]
            a, b = math.ldexp(a, e), math.ldexp(b, e)
            den = a * a + b * b
            if den == 0.0:
                raise QuasilinearDegeneracyError(z)
        phi1 = b * (b / den)
        w = z * b + a
        t = g * (1.0 - phi1) if phi1 <= 0.5 else dpsi * (a * (b / den))
        q = 1.0 + z * z + n * (w * (w / den))
        d2 = -(lam1 * (g + zd) * (1.0 + n * phi1) + n_lam_2 * t) / q
        if -math.inf < d2 < math.inf and q < math.inf and not (
                -2.0 ** -1022 < t < 2.0 ** -1022 and n_lam_2 and dpsi and g):
            return d2
        return _exact_psi2(z, psi, dpsi, lam, n)

    return psi2


def _exact_psi2(z, psi, dpsi, lam, n):
    """``_tip_kernel``'s Psi'' over den in rational arithmetic, rounded once."""
    if not (math.isfinite(z) and math.isfinite(psi) and math.isfinite(dpsi)):
        return math.nan
    from fractions import Fraction
    z, psi, dpsi, lam, n = map(Fraction, (z, psi, dpsi, lam, n))
    g = lam * psi + z * dpsi
    den, w = dpsi * dpsi + g * g, z * g + dpsi
    num = (lam + 1) * (g + z * dpsi) * (den + n * g * g) + 2 * n * lam * dpsi * dpsi * g
    r = -num / ((1 + z * z) * den + n * w * w)
    try:
        return float(r)
    except OverflowError:
        return math.inf if r > 0 else -math.inf


class ShootingSolution(Record):
    """A shot: its zeros, growth exponent and ``scale``, with ``nfev`` and
    ``steps`` counting the calls ``shoot`` made and its accepted steps.
    ``evaluate`` reads (Psi, Psi') off the trajectory anywhere on the span;
    ``z``, ``psi`` and ``dpsi`` are its samples at 2001 equally spaced points
    of [0, z_max] and their mirror images, formed on first read."""

    # no __slots__: the cached samples need an instance __dict__
    _fields = ("l", "n", "lam", "zeros", "growth_exponent", "scale", "nfev", "steps", "_traj")

    def _state(self, z: float) -> Tuple[float, float]:
        """(Psi, Psi') at the float z, |z| <= z_max, parity-mirrored."""
        psi, dpsi = self._traj.sol(abs(z))
        if z >= 0.0:
            return psi, dpsi
        return (psi, -dpsi) if self.l % 2 == 0 else (-psi, dpsi)

    def evaluate(self, z):
        """(psi, psi') at a float z, or two arrays of z's shape; past the
        integrated span it raises ValueError."""
        if isinstance(z, (int, float)) or getattr(z, "ndim", None) == 0:
            return self._state(float(z))
        import numpy as np
        zz = np.asarray(z, dtype=float)
        out = np.array([self._state(v) for v in zz.ravel().tolist()]).reshape(zz.shape + (2,))
        return out[..., 0], out[..., 1]

    def __call__(self, z):
        out = self.evaluate(z)
        return out[0]

    @cached_property
    def _samples(self):
        import numpy as np
        half = _half_grid(self._traj._zs[-1])
        z = np.array([-v for v in reversed(half[1:])] + half)
        return (z, *self.evaluate(z))

    z = property(lambda self: self._samples[0])
    psi = property(lambda self: self._samples[1])
    dpsi = property(lambda self: self._samples[2])


def _half_grid(z_max: float) -> List[float]:
    """The 2001 points k z_max/2000 of [0, z_max], as np.linspace forms them."""
    return [k * (z_max / 2000) for k in range(2000)] + [z_max]


def _trajectory(
    lam: float,
    n: float,
    z0: float,
    y0: Tuple[float, float],
    z_end: float,
    rtol: float,
    atol: float,
):
    """Solution of the tip ODE through (Psi, Psi')(z0) = y0, integrated to
    z_end on either side of z0 by ``_dopri.integrate``, with the Psi = 0
    crossings in ``zeros``, the end state in ``end`` and the dense ``sol``.
    The one place the ODE is integrated.
    """
    from ._dopri import integrate  # loaded on first use: import cracktip skips it
    return integrate(_tip_kernel(float(lam), float(n)), z0, y0, z_end, rtol, atol)


def shoot(
    l: int,
    n: float,
    lam: float,
    z_max: float = DEFAULT_Z_MAX,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    transversality_tol: float = 1e-6,
) -> ShootingSolution:
    """Parity-symmetric solution of the tip ODE for index ``l``.

    Integrates on [0, z_max] and mirrors by the parity of l.  ``scale`` is
    the largest |Psi| at the sample points in [0, w], w one past the last
    zero and at least 1.  The growth exponent is the logarithmic derivative
    z Psi'/Psi at z_max, None where Psi(z_max) = 0.  ``nfev`` counts the
    right-hand-side calls made here, the interpolants of the crossings and
    of those samples included; later reads build more that it does not count.
    """
    _check_index(l)
    if not 0.0 < z_max < math.inf:
        raise ValueError("z_max must be positive and finite")
    if not transversality_tol > 0.0:
        raise ValueError("transversality_tol must be positive")
    even = l % 2 == 0
    ic = (1.0, 0.0) if even else (0.0, 1.0)
    traj = _trajectory(lam, n, 0.0, ic, z_max, rtol, atol)

    pos_zeros = [t for t in traj.zeros if t > 1e-13]
    zeros = sorted({-t for t in pos_zeros} | set(pos_zeros) | ({0.0} if not even else set()))
    dmags = [abs(traj.sol(abs(t))[1]) for t in zeros]
    window = max(1.0, (abs(zeros[-1]) + 1.0) if zeros else 1.0)
    scale = max(abs(traj.sol(z)[0]) for z in _half_grid(z_max) if z <= window)
    flags = tuple(m > transversality_tol * scale for m in dmags)
    nodal = NodalSet(tuple(zeros), tuple(dmags), flags, transversality_tol * scale)

    psi_end, dpsi_end = traj.end
    growth = z_max * (dpsi_end / psi_end) if psi_end else None

    return ShootingSolution(
        l=l,
        n=float(n),
        lam=float(lam),
        zeros=nodal,
        growth_exponent=growth,
        scale=scale,
        nfev=traj.nfev,
        steps=traj.steps,
        _traj=traj,
    )


class Profile(Record):
    """Two-sided solution from arbitrary initial data (no parity assumed);
    ``nfev`` and ``steps`` sum the two half-lines as integrated, before any
    later evaluation builds a step's interpolant."""

    __slots__ = _fields = ("lam", "n", "ic", "z_max", "_pos", "_neg", "nfev", "steps")

    def _state(self, z: float) -> Tuple[float, float]:
        return (self._pos if z >= 0.0 else self._neg).sol(float(z))

    def psi(self, z: float) -> float:
        return self._state(z)[0]

    def dpsi(self, z: float) -> float:
        return self._state(z)[1]

    def zeros(self) -> List[float]:
        return sorted(set(self._pos.zeros + self._neg.zeros))


def two_sided_profile(
    n: float,
    lam: float,
    ic: Tuple[float, float],
    z_max: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = 1e-12,
) -> Profile:
    """Integrate both half-lines from z = 0 with the given initial data."""
    if not 0.0 < z_max < math.inf:
        raise ValueError("z_max must be positive and finite")
    pos = _trajectory(lam, n, 0.0, ic, z_max, rtol, atol)
    neg = _trajectory(lam, n, 0.0, ic, -z_max, rtol, atol)
    return Profile(lam=lam, n=n, ic=tuple(ic), z_max=z_max, _pos=pos, _neg=neg,
                   nfev=pos.nfev + neg.nfev, steps=pos.steps + neg.steps)
