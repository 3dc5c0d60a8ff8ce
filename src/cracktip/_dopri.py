"""DOP853 integration of Psi'' = F(z, Psi, Psi') on Python floats.

``integrate`` steps the state (Psi, Psi') with scipy DOP853's tableau,
initial-step rule, error norm and step controller, so it reproduces that
integrator's solutions to rounding without importing scipy.  F returns
Psi'' alone: the Psi' stages are the arguments the stepper forms anyway.
``Trajectory.sol`` gives (Psi, Psi') at one float z of its span.  A
step's 7th-order interpolant costs three more calls of F and is built on
first use, by a Psi = 0 crossing or by ``sol``; the crossing is a root of
it by ``characteristic._root``.  ``shooting`` loads this on first use.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from operator import add, mul

from .characteristic import _polyval, _root
from .errors import NumericsError

_RMS = 0.7071067811865476  # the root mean square of two numbers is their hypot times this
# DOP853 (Hairer, Norsett & Wanner, Sec. II.5-6) as in scipy: nodes c1..c11; each
# stage's nonzero coefficients (1 on stage 0; 2 on 0, 1; 3 on 0, 2; 4 on 0, 2, 3;
# s >= 5 on 0, 3..s-1); the weights and 5th-order error weights on stages 0,
# 5..11; and what the 3rd-order error weights take from the weights at 0, 8, 11.
_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
      0.8571428571428571, 1.0)
_A = (
    (0.05260015195876773,), (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.08876275643042054),
    (0.2413651341592667, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
)
_B = (0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
      0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E5 = (0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
       -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
# The dense output from the increments over stage 0 of stages 5..12 (12 is f at
# the step's end) and of three extra ones: their nodes, each one's coefficients
# on the stages from 5 on before it, and the rows of D for f3..f6.
_C_EXTRA = (0.1, 0.2, 0.7777777777777778)
_A_EXTRA = (
    (0.0, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-4.697621415361164, 7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0,
     0.0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_D = (
    (0.5667149535193777, -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (242.28349177525817, 165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (-387.0373087493518, -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-154.18974869023643, -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
)


def _dense(F, z, h, y0, y1, fd, r, q):
    """f0..f6 of the Psi and Psi' interpolants of the step from (z, y0) by h
    to y1, where F is fd, from its stages 5..12: r, their Psi' less Psi'(z),
    and q, their F values.  The sums run over increments from stage 0, as a
    row of coefficients sums to its node and one of D to 0, left to right on
    every Python (``sum`` compensates from 3.12).  A non-finite extra stage
    (three more calls of F) raises NumericsError."""
    (psi, dpsi), r, rq = y0, list(r), [v - fd for v in q]
    for c, a in zip(_C_EXTRA, _A_EXTRA):
        s = (c * fd + reduce(add, map(mul, a, rq), 0.0)) * h
        v = F(z + c * h, psi + (c * dpsi + reduce(add, map(mul, a, r), 0.0)) * h, dpsi + s)
        if not (math.isfinite(s) and math.isfinite(v)):
            raise NumericsError(f"non-finite dense output on the step from z={z!r}")
        r.append(s)
        rq.append(v - fd)
    out = []
    for u0, u1, f, d in ((psi, y1[0], dpsi, r), (dpsi, y1[1], fd, rq)):
        dy = u1 - u0
        out.append((dy, h * f - dy, 2.0 * dy - h * (2.0 * f + d[7]),
                    *[h * reduce(add, map(mul, row, d), 0.0) for row in _D]))
    return tuple(out)


def _interpolate(x, y0, f):
    """y0 + x (f0 + (1 - x) (f1 + x (f2 + ... (f5 + x f6)))), in scipy's
    order of operations."""
    f0, f1, f2, f3, f4, f5, f6 = f
    return y0 + x * (f0 + (1.0 - x) * (f1 + x * (f2 + (1.0 - x) * (
        f3 + x * (f4 + (1.0 - x) * (f5 + x * f6))))))


def _powers(y0, f):
    """``_interpolate(x, y0, f)`` as descending coefficients of x^7 .. x^0."""
    p = [0.0]
    for i, c in enumerate(reversed(f)):
        p[-1] += c
        p = p + [0.0] if i % 2 == 0 else [a - b for a, b in zip([0.0] + p, p + [0.0])]
    p[-1] += y0
    return p


def _step_zero(z0, z1, p):
    """The zero on the step from z0 to z1, whose end states change sign or
    vanish, of Psi's interpolant p (descending in x = (z - z0)/(z1 - z0),
    with p[-1] the Psi at z0); its root in (0, 1) comes from
    ``characteristic._root``, the package's one solver."""
    if p[-1] == 0.0:
        return z0
    end = _polyval(p, 1.0)
    if end == 0.0 or (end > 0.0) == (p[-1] > 0.0):
        # the end state vanishes or changes sign; the interpolant's rounding
        # at z1 can hide that
        return z1
    return z0 + (z1 - z0) * _root(p, 0.0, 1.0)


class Trajectory:
    """One solution from ``integrate``, in the state (Psi, Psi').

    ``zeros`` are the Psi = 0 crossings in the order met, ``end`` is
    (Psi, Psi') at the end of the span and ``steps`` the accepted steps;
    ``sol`` is the dense output.  ``nfev`` counts right-hand-side calls so
    far: 2 for the initial step, 12 per trial step and 3 for each step's
    interpolant, built on first use by a crossing or by ``sol``.
    """

    def __init__(self, F, zs, states, stages, nfev, crossings):
        self.end, self.nfev, self.steps = states[-1], nfev, len(stages)
        self._F, self._zs, self._states, self._stages = F, zs, states, stages
        self._sign = 1.0 if zs[-1] > zs[0] else -1.0
        self._keys = [self._sign * z for z in zs]  # ascending
        self._dense = {}
        self.zeros = [_step_zero(zs[i], zs[i + 1], _powers(states[i][0], self._interpolant(i)[0]))
                      for i in crossings]

    def _interpolant(self, i):
        """f0..f6 of step i's Psi and Psi' interpolants, built on first use."""
        if i not in self._dense:
            z0, z1 = self._zs[i:i + 2]
            self._dense[i] = _dense(self._F, z0, z1 - z0, *self._states[i:i + 2], *self._stages[i])
            self.nfev += 3
        return self._dense[i]

    def sol(self, z):
        """(Psi, Psi') at the float z on the interpolant of the step holding it
        (at a step end the earlier step).  A z past the span, or nan, raises
        ValueError."""
        key = self._sign * z
        if not self._keys[0] <= key <= self._keys[-1]:
            raise ValueError(f"z={z!r} past the integrated span {self._zs[0]!r}..{self._zs[-1]!r}")
        i = max(bisect_left(self._keys, key) - 1, 0)
        x = (z - self._zs[i]) / (self._zs[i + 1] - self._zs[i])
        return tuple(map(_interpolate, (x, x), self._states[i], self._interpolant(i)))


def integrate(F, z0, y0, z_end, rtol, atol) -> Trajectory:
    """Solution of Psi'' = F(z, Psi, Psi') through (Psi, Psi')(z0) = y0,
    carried to z_end on either side of z0 by the DOP853 pair.

    The initial step follows Hairer, Norsett & Wanner (Sec. II.4) for an
    error of order 7; a step is accepted when the blend of its 5th- and
    3rd-order error estimates over the scale atol + max(|y|, |y_new|) rtol
    is below 1, and the next step is the last one times 0.9 err^(-1/8),
    kept in [0.2, 10] (at most 1 after a rejection).  The Psi = 0 crossings
    are taken where the end values of a step change sign or vanish, and
    located on its interpolant.  A step below 10 ulps of z or a non-finite
    state raises NumericsError; errors raised by F pass through.  Needs
    finite rtol >= 0, atol > 0, y0 and z0 != z_end; anything else raises
    ValueError.
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
    d0, d1 = math.hypot(psi / s0, dpsi / s1) * _RMS, math.hypot(dpsi / s0, fd / s1) * _RMS
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    gp = dpsi + h0 * sign * fd
    gd = F(z + h0 * sign, psi + h0 * sign * dpsi, gp)
    # h0 is 0 where Psi'' is so large that 0.01 d0/d1 underflows; d2 is then
    # inf, as numpy's division gives it in scipy, and the first step fails
    d2 = math.hypot((gp - dpsi) / s0, (gd - fd) / s1) * _RMS / h0 if h0 else math.inf
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, span)

    # the trial step is straight-line code: every sum runs left to right over
    # the nonzero coefficients, and each stage reaches the new state through
    # nonzero ones, so a non-finite stage fails the step.  The Psi stages
    # p = dpsi + r are the Psi' arguments of the F stages q.  A row of
    # coefficients sums to its node, so the Psi sums run over the increments r
    # and cancel no terms of size 40 to rounding; the 5th-order error sums the
    # stages as scipy does, so an estimate that is rounding is of its size
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _C
    ((a1_0,), (a2_0, a2_1), (a3_0, a3_2), (a4_0, a4_2, a4_3), (a5_0, a5_3, a5_4),
     (a6_0, a6_3, a6_4, a6_5), (a7_0, a7_3, a7_4, a7_5, a7_6),
     (a8_0, a8_3, a8_4, a8_5, a8_6, a8_7), (a9_0, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10)) = _A
    b0, b5, b6, b7, b8, b9, b10, b11 = _B
    e0, e5, e6, e7, e8, e9, e10, e11 = _E5
    g0, g8, g11 = _E3
    nfev = 2
    zs, states, stages, crossings = [z], [(psi, dpsi)], [], []
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
            r1 = a1_0 * fd * h
            q1 = F(z + c1 * h, psi + c1 * dpsi * h, dpsi + r1)
            r2 = (a2_0 * fd + a2_1 * q1) * h
            q2 = F(z + c2 * h, psi + (c2 * dpsi + a2_1 * r1) * h, dpsi + r2)
            r3 = (a3_0 * fd + a3_2 * q2) * h
            q3 = F(z + c3 * h, psi + (c3 * dpsi + a3_2 * r2) * h, dpsi + r3)
            r4 = (a4_0 * fd + a4_2 * q2 + a4_3 * q3) * h
            q4 = F(z + c4 * h, psi + (c4 * dpsi + a4_2 * r2 + a4_3 * r3) * h, dpsi + r4)
            r5 = (a5_0 * fd + a5_3 * q3 + a5_4 * q4) * h
            q5 = F(z + c5 * h, psi + (c5 * dpsi + a5_3 * r3 + a5_4 * r4) * h, p5 := dpsi + r5)
            r6 = (a6_0 * fd + a6_3 * q3 + a6_4 * q4 + a6_5 * q5) * h
            q6 = F(z + c6 * h, psi + (c6 * dpsi + a6_3 * r3 + a6_4 * r4 + a6_5 * r5) * h,
                   p6 := dpsi + r6)
            r7 = (a7_0 * fd + a7_3 * q3 + a7_4 * q4 + a7_5 * q5 + a7_6 * q6) * h
            q7 = F(z + c7 * h, psi + (c7 * dpsi + a7_3 * r3 + a7_4 * r4 + a7_5 * r5
                                      + a7_6 * r6) * h, p7 := dpsi + r7)
            r8 = (a8_0 * fd + a8_3 * q3 + a8_4 * q4 + a8_5 * q5 + a8_6 * q6 + a8_7 * q7) * h
            q8 = F(z + c8 * h, psi + (c8 * dpsi + a8_3 * r3 + a8_4 * r4 + a8_5 * r5 + a8_6 * r6
                                      + a8_7 * r7) * h, p8 := dpsi + r8)
            r9 = (a9_0 * fd + a9_3 * q3 + a9_4 * q4 + a9_5 * q5 + a9_6 * q6 + a9_7 * q7
                  + a9_8 * q8) * h
            q9 = F(z + c9 * h, psi + (c9 * dpsi + a9_3 * r3 + a9_4 * r4 + a9_5 * r5 + a9_6 * r6
                                      + a9_7 * r7 + a9_8 * r8) * h, p9 := dpsi + r9)
            r10 = (a10_0 * fd + a10_3 * q3 + a10_4 * q4 + a10_5 * q5 + a10_6 * q6 + a10_7 * q7
                   + a10_8 * q8 + a10_9 * q9) * h
            q10 = F(z + c10 * h, psi + (c10 * dpsi + a10_3 * r3 + a10_4 * r4 + a10_5 * r5
                    + a10_6 * r6 + a10_7 * r7 + a10_8 * r8 + a10_9 * r9) * h, p10 := dpsi + r10)
            r11 = (a11_0 * fd + a11_3 * q3 + a11_4 * q4 + a11_5 * q5 + a11_6 * q6 + a11_7 * q7
                   + a11_8 * q8 + a11_9 * q9 + a11_10 * q10) * h
            q11 = F(z + c11 * h, psi + (c11 * dpsi + a11_3 * r3 + a11_4 * r4 + a11_5 * r5
                    + a11_6 * r6 + a11_7 * r7 + a11_8 * r8 + a11_9 * r9 + a11_10 * r10) * h,
                    p11 := dpsi + r11)
            br = b5 * r5 + b6 * r6 + b7 * r7 + b8 * r8 + b9 * r9 + b10 * r10 + b11 * r11
            bq = b0 * fd + b5 * q5 + b6 * q6 + b7 * q7 + b8 * q8 + b9 * q9 + b10 * q10 + b11 * q11
            psi_new, dpsi_new = psi + h * (dpsi + br), dpsi + h * bq
            fd_new = F(z_new, psi_new, dpsi_new)
            nfev += 12
            if not (math.isfinite(psi_new) and math.isfinite(dpsi_new) and math.isfinite(fd_new)):
                raise NumericsError(f"non-finite state at z={z_new!r}")
            s0 = atol + max(abs(psi), abs(psi_new)) * rtol
            s1 = atol + max(abs(dpsi), abs(dpsi_new)) * rtol
            u5 = (e0 * dpsi + e5 * p5 + e6 * p6 + e7 * p7 + e8 * p8 + e9 * p9 + e10 * p10
                  + e11 * p11) / s0
            v5 = (e0 * fd + e5 * q5 + e6 * q6 + e7 * q7 + e8 * q8 + e9 * q9 + e10 * q10
                  + e11 * q11) / s1
            u3 = (br - g8 * r8 - g11 * r11) / s0
            v3 = (bq - g0 * fd - g8 * q8 - g11 * q11) / s1
            n5, n3 = u5 * u5 + v5 * v5, u3 * u3 + v3 * v3
            err = abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * 2.0) if n5 or n3 else 0.0
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        if psi <= 0.0 <= psi_new or psi >= 0.0 >= psi_new:
            crossings.append(len(stages))
        stages.append((fd, (r5, r6, r7, r8, r9, r10, r11, dpsi_new - dpsi),
                       (q5, q6, q7, q8, q9, q10, q11, fd_new)))
        z, psi, dpsi, fd = z_new, psi_new, dpsi_new, fd_new
        zs.append(z)
        states.append((psi, dpsi))
    return Trajectory(F, zs, states, stages, nfev, crossings)
