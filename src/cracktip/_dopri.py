"""Dormand-Prince 5(4) integration of Psi'' = F(z, Psi, Psi') on Python floats.

``integrate`` steps the state (Psi, Psi') with scipy RK45's tableau,
initial-step rule, error norm and step controller, so it reproduces that
integrator's solutions to rounding without importing scipy.  F returns
Psi'' alone: the Psi' stages are the arguments the stepper forms anyway.
The Psi = 0 crossings are roots of a step's quartic interpolant, found by
``characteristic._root``, which also finds the quartic eigenvalues.  The
tip ODE in ``shooting`` is the only caller, which loads this on first use.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left

from .characteristic import _polyval, _root
from .errors import NumericsError

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Sec. II.4): stage nodes and
# weights, the 5th-order weights, the error weights over the six stages and
# f at the new point, and Shampine's quartic dense output over the same seven.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


def _rms(u: float, v: float) -> float:
    return math.sqrt(u * u + v * v) / 1.4142135623730951


def _dense_coeffs(k0, k1):
    """Coefficients of x, ..., x^4 in each component's interpolant, from the
    seven stage derivatives of one step (floats) or of every step (arrays)."""
    return tuple(tuple(sum(k * p[j] for k, p in zip(ks, _P)) for j in range(4)) for ks in (k0, k1))


def _interpolate(z, z0, h, psi, dpsi, q):
    """(Psi, Psi') at z on the interpolant of the step from (z0, psi, dpsi)
    by h; on floats or on arrays alike."""
    x = (z - z0) / h
    a, b = q
    return (psi + h * (x * (a[0] + x * (a[1] + x * (a[2] + x * a[3])))),
            dpsi + h * (x * (b[0] + x * (b[1] + x * (b[2] + x * b[3])))))


def _step_zero(z0, z1, psi0, q):
    """The zero of Psi's interpolant on the step from z0 to z1, whose end
    states change sign or vanish.  In x = (z - z0)/h the interpolant is the
    quartic h a3 x^4 + h a2 x^3 + h a1 x^2 + h a0 x + psi0, and its root in
    (0, 1) comes from ``characteristic._root``, the package's one solver."""
    h, a = z1 - z0, q[0]
    p = [h * a[3], h * a[2], h * a[1], h * a[0], psi0]
    if psi0 == 0.0:
        return z0
    end = _polyval(p, 1.0)
    if end == 0.0 or (end > 0.0) == (psi0 > 0.0):
        # the end state vanishes or changes sign; the interpolant's rounding
        # at z1 can hide that
        return z1
    return z0 + h * _root(p, 0.0, 1.0)


class Trajectory:
    """One solution from ``integrate``, in the state (Psi, Psi').

    ``zeros`` are the Psi = 0 crossings in the order met, ``end`` is
    (Psi, Psi') at the end of the span, ``nfev`` counts right-hand-side
    calls and ``steps`` the accepted steps; ``sol`` is the dense output.
    """

    def __init__(self, zs, states, stages, zeros, nfev):
        self.zeros, self.end, self.nfev, self.steps = zeros, states[-1], nfev, len(stages)
        self._zs, self._states, self._stages = zs, states, stages
        self._sign = 1.0 if zs[-1] > zs[0] else -1.0
        self._keys = [self._sign * z for z in zs]  # ascending
        self._table = None

    def sol(self, z):
        """(Psi, Psi') at z on the interpolant of the step holding it (at a
        step end the earlier step; past the span the end step, extrapolated):
        two floats for a scalar, a (2, len(z)) array for an array."""
        last = len(self._stages) - 1
        if isinstance(z, numbers.Real) or getattr(z, "ndim", None) == 0:
            z = float(z)
            i = min(max(bisect_left(self._keys, self._sign * z) - 1, 0), last)
            z0, z1 = self._zs[i], self._zs[i + 1]
            return _interpolate(z, z0, z1 - z0, *self._states[i], _dense_coeffs(*self._stages[i]))
        import numpy as np
        if self._table is None:
            zs = np.array(self._zs)
            y = np.array(self._states[:-1]).T
            q = _dense_coeffs(*np.array(self._stages).transpose(1, 2, 0))
            self._table = (np.array(self._keys), zs[:-1], np.diff(zs), y[0], y[1], q)
        keys, z0, h, psi, dpsi, q = self._table
        zz = np.asarray(z, dtype=float)
        i = np.clip(np.searchsorted(keys, self._sign * zz) - 1, 0, last)
        q = tuple(tuple(c[i] for c in comp) for comp in q)
        return np.array(_interpolate(zz, z0[i], h[i], psi[i], dpsi[i], q))


def integrate(F, z0, y0, z_end, rtol, atol) -> Trajectory:
    """Solution of Psi'' = F(z, Psi, Psi') through (Psi, Psi')(z0) = y0,
    carried to z_end on either side of z0 by the Dormand-Prince 5(4) pair.

    The initial step follows Hairer, Norsett & Wanner (Sec. II.4); a step is
    accepted when the RMS norm of the error estimate over the scale
    atol + max(|y|, |y_new|) rtol is below 1, and the next step is the last
    one times 0.9 err^(-1/5), kept in [0.2, 10] (at most 1 after a
    rejection).  The Psi = 0 crossings are taken where the end values of a
    step change sign or vanish, and located on its quartic interpolant.  A
    step below 10 ulps of z or a non-finite state raises NumericsError;
    errors raised by F pass through.  Needs finite rtol >= 0, atol > 0, y0
    and z0 != z_end; anything else raises ValueError.
    """
    z, z_end = float(z0), float(z_end)
    if not 0.0 <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and >= 0, got {rtol!r}")
    if not 0.0 < atol < math.inf:
        raise ValueError(f"atol must be finite and > 0, got {atol!r}")
    if not (math.isfinite(z) and math.isfinite(z_end)) or z == z_end:
        raise ValueError(f"z0 and z_end must be finite and distinct, got {z!r}, {z_end!r}")
    sign = 1.0 if z_end > z else -1.0
    psi, dpsi = float(y0[0]), float(y0[1])
    if not (math.isfinite(psi) and math.isfinite(dpsi)):
        raise ValueError(f"y0 must be finite, got {tuple(y0)!r}")
    fd = F(z, psi, dpsi)
    # initial step (Hairer, Norsett & Wanner, Sec. II.4)
    span = abs(z_end - z)
    s0, s1 = atol + abs(psi) * rtol, atol + abs(dpsi) * rtol
    d0, d1 = _rms(psi / s0, dpsi / s1), _rms(dpsi / s0, fd / s1)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    gp = dpsi + h0 * sign * fd
    gd = F(z + h0 * sign, psi + h0 * sign * dpsi, gp)
    d2 = _rms((gp - dpsi) / s0, (gd - fd) / s1) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, span)

    # the trial step is straight-line code: every sum runs left to right, and
    # the zero weights b1 and e1 stay so that a non-finite stage fails it;
    # the Psi stages p1..p5 are the Psi' arguments of the F stages q1..q5
    c1, c2, c3, c4, c5 = _C
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), (a50, a51, a52, a53, a54) = _A
    b0, b1, b2, b3, b4, b5 = _B
    e0, e1, e2, e3, e4, e5, e6 = _E
    nfev = 2
    zs, states, stages, zeros = [z], [(psi, dpsi)], [], []
    while sign * (z - z_end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(z, sign * math.inf) - z)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericsError(f"step size fell below {min_step!r} at z={z!r}")
            z_new = z + h_abs * sign
            if sign * (z_new - z_end) > 0.0:
                z_new = z_end
            h = z_new - z
            h_abs = abs(h)
            p1 = dpsi + a10 * fd * h
            q1 = F(z + c1 * h, psi + a10 * dpsi * h, p1)
            p2 = dpsi + (a20 * fd + a21 * q1) * h
            q2 = F(z + c2 * h, psi + (a20 * dpsi + a21 * p1) * h, p2)
            p3 = dpsi + (a30 * fd + a31 * q1 + a32 * q2) * h
            q3 = F(z + c3 * h, psi + (a30 * dpsi + a31 * p1 + a32 * p2) * h, p3)
            p4 = dpsi + (a40 * fd + a41 * q1 + a42 * q2 + a43 * q3) * h
            q4 = F(z + c4 * h, psi + (a40 * dpsi + a41 * p1 + a42 * p2 + a43 * p3) * h, p4)
            p5 = dpsi + (a50 * fd + a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4) * h
            q5 = F(z + c5 * h, psi + (a50 * dpsi + a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4) * h, p5)
            psi_new = psi + h * (b0 * dpsi + b1 * p1 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5)
            dpsi_new = dpsi + h * (b0 * fd + b1 * q1 + b2 * q2 + b3 * q3 + b4 * q4 + b5 * q5)
            fd_new = F(z_new, psi_new, dpsi_new)
            nfev += 6
            if not (math.isfinite(psi_new) and math.isfinite(dpsi_new) and math.isfinite(fd_new)):
                raise NumericsError(f"non-finite state at z={z_new!r}")
            k0 = (dpsi, p1, p2, p3, p4, p5, dpsi_new)
            k1 = (fd, q1, q2, q3, q4, q5, fd_new)
            u = (e0 * dpsi + e1 * p1 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * dpsi_new) * h
            v = (e0 * fd + e1 * q1 + e2 * q2 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * fd_new) * h
            u /= atol + max(abs(psi), abs(psi_new)) * rtol
            v /= atol + max(abs(dpsi), abs(dpsi_new)) * rtol
            err = math.sqrt(u * u + v * v) / 1.4142135623730951
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        stages.append((k0, k1))
        if psi <= 0.0 <= psi_new or psi >= 0.0 >= psi_new:
            zeros.append(_step_zero(z, z_new, psi, _dense_coeffs(k0, k1)))
        z, psi, dpsi, fd = z_new, psi_new, dpsi_new, fd_new
        zs.append(z)
        states.append((psi, dpsi))
    return Trajectory(zs, states, stages, zeros, nfev)
