"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own numerics: fold
points come from exact rational Sturm-sequence bisection on the
elimination polynomial, and improper integrals from Gauss-Legendre after
the tangent substitution.  Expected values frozen in the tests were
produced by these routines.
"""

import math
from fractions import Fraction

import numpy as np


def quartic_parts_exact(l):
    """Integer coefficient lists (descending) with Phi = A + n B."""
    A = [1, 4 * l + 1, l * (7 * l + 3), l * l * (6 * l + 4), l ** 3 * (2 * l + 2)]
    B = [1, 4 * l + 1, l * (6 * l + 5), l * l * (6 * l + 3), l ** 3 * (4 * l - 2)]
    return [Fraction(c) for c in A], [Fraction(c) for c in B]


def _polyval(c, x):
    acc = Fraction(0)
    for a in c:
        acc = acc * x + a
    return acc


def _polyder(c):
    n = len(c) - 1
    return [c[i] * (n - i) for i in range(n)]


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polysub(a, b):
    n = max(len(a), len(b))
    a = [Fraction(0)] * (n - len(a)) + list(a)
    b = [Fraction(0)] * (n - len(b)) + list(b)
    return [x - y for x, y in zip(a, b)]


def _sturm_chain(p):
    chain = [list(p), _polyder(p)]
    while True:
        a, b = chain[-2], chain[-1]
        if not any(x != 0 for x in b):
            chain.pop()
            break
        r = list(a)
        while len(r) >= len(b) and any(x != 0 for x in r):
            if r[0] == 0:
                r = r[1:]
                continue
            q = r[0] / b[0]
            for i in range(len(b)):
                r[i] -= q * b[i]
            r = r[1:]
        while r and r[0] == 0:
            r = r[1:]
        if not r:
            break
        chain.append([-x for x in r])
        if len(chain[-1]) == 1:
            break
    return chain


def _sign_changes(chain, x):
    count, prev = 0, 0
    for p in chain:
        v = _polyval(p, x)
        if v != 0:
            if prev != 0 and (v > 0) != (prev > 0):
                count += 1
            prev = v
    return count


def exact_real_roots(p, lo, hi, halvings=140):
    """Arbitrarily tight rational enclosures of the real roots in (lo, hi)."""
    chain = _sturm_chain(p)

    def count(a, b):
        return _sign_changes(chain, a) - _sign_changes(chain, b)

    roots = []
    stack = [(Fraction(lo), Fraction(hi))]
    while stack:
        a, b = stack.pop()
        c = count(a, b)
        if c == 0:
            continue
        if c == 1:
            for _ in range(halvings):
                m = (a + b) / 2
                if count(a, m) == 1:
                    b = m
                else:
                    a = m
            roots.append((a + b) / 2)
        else:
            m = (a + b) / 2
            stack.extend([(a, m), (m, b)])
    return sorted(roots)


def rounding_band_critical_points(p, lo, hi, factor=1):
    """The real critical points c of p in (lo, hi) at which |p(c)| is within
    ``factor`` times Horner's running error bound 2 len(p) 2^-53 sum |a_k| |c|^k,
    evaluated exactly; p is a list of rationals."""
    size = [abs(a) for a in p]
    unit = factor * 2 * len(p) * Fraction(1, 2 ** 53)
    return [c for c in exact_real_roots(_polyder(p), lo, hi)
            if abs(_polyval(p, c)) <= unit * _polyval(size, abs(c))]


def exact_fold(l, halvings=140):
    """Fold (n*, Lambda*) of index l by exact elimination.

    With Phi = A + n B, a double root satisfies W(Lam) = A' B - A B' = 0
    and n = -A/B.  W has integer coefficients, so Sturm bisection gives
    the fold to any requested accuracy with no floating point involved.
    """
    A, B = quartic_parts_exact(l)
    W = _polysub(_polymul(_polyder(A), B), _polymul(A, _polyder(B)))
    best = None
    for lam in exact_real_roots(W, -l - 2, Fraction(-l) + Fraction(1, 1000), halvings):
        b = _polyval(B, lam)
        if b == 0:
            continue
        n = -_polyval(A, lam) / b
        if n > 0 and (best is None or n < best[0]):
            best = (n, lam)
    if best is None:
        raise AssertionError(f"oracle found no fold for l={l}")
    return float(best[0]), float(best[1])


def exact_fold_derivatives(l, n, lam):
    """Phi, dPhi/dLam and d2Phi/dLam2 at float arguments, exactly."""
    A, B = quartic_parts_exact(l)
    p = [a + Fraction(n) * b for a, b in zip(A, B)]
    x = Fraction(lam)
    return tuple(float(_polyval(q, x)) for q in (p, _polyder(p), _polyder(_polyder(p))))


def quartic_residual(l, n, lam):
    """|Phi_l(lam; n)| over the sum of the absolute values of its terms,
    in exact arithmetic at the float arguments."""
    A, B = quartic_parts_exact(l)
    x, nq = Fraction(lam), Fraction(n)
    m = max(Fraction(1), abs(x))
    scale = sum((abs(a) + nq * abs(b)) * m ** (4 - k) for k, (a, b) in enumerate(zip(A, B)))
    return float(abs(_polyval(A, x) + nq * _polyval(B, x)) / scale)


def pencil_pair_exact(l):
    """Ascending exact coefficients of Re (z+i)^l and Im (z+i)^l / l, by
    l multiplications with (z + i) in Gaussian integers."""
    p = [(1, 0)]  # (re, im) per power of z
    for _ in range(l):
        # (z + i) p = z p + i p, with i (r + i s) = -s + i r
        zp = [(0, 0)] + p
        ip = [(-s, r) for r, s in p] + [(0, 0)]
        p = [(a + c, b + d) for (a, b), (c, d) in zip(zp, ip)]
    return [Fraction(r) for r, _ in p], [Fraction(i, l) for _, i in p]


def combine_coeffs(c, d, l):
    """The float coefficients of c Re (z+i)^l + d Im (z+i)^l / l, ascending,
    as the seeds' rounded coefficients weigh in: (0.0 + c re_k) + d im_k,
    each seed coefficient rounded once from its exact value, then trailing
    zeros dropped."""
    re, im = pencil_pair_exact(l)
    out = [(0.0 + c * float(a)) + d * float(b) for a, b in zip(re, im)]
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return tuple(out)


def pencil_ode_residual_exact(coeffs, lam):
    """Descending exact coefficients of (1+z^2) psi'' + 2(lam+1) z psi'
    + lam(lam+1) psi, for the descending exact coefficients of psi."""
    d1 = _polyder(coeffs)
    out = [lam * (lam + 1) * a for a in coeffs]
    for term in (_polymul([1, 0, 1], _polyder(d1)), _polymul([2 * (lam + 1), 0], d1)):
        out = _polysub(out, [-a for a in term])
    return out


def rational_form_exact(l, n, lam):
    """The characteristic equation before clearing its denominator D,

        Q(Lam) [1 + n (Lam+l)^2 / D] + n [l^3 (l-1) + 2 l (Lam+l)(Lam + l(l-1))] / D

    with Q = Lam^2 + (2l+1) Lam + l(l+1) and D = l^2 + (Lam+l)^2, and D,
    in rationals at the float (or rational) n and Lam."""
    n, lam = Fraction(n), Fraction(lam)
    Q = lam * lam + (2 * l + 1) * lam + l * (l + 1)
    shift = lam + l
    D = l * l + shift * shift
    R = l ** 3 * (l - 1) + 2 * l * shift * (lam + l * (l - 1))
    return Q * (1 + n * shift * shift / D) + n * R / D, D


def phi1(psi, dpsi, lam, z):
    """First gradient coupling g^2 / (psi'^2 + g^2), g = lam psi + z psi',
    in the z form; plain arithmetic, so floats, arrays and Fractions alike."""
    g = lam * psi + z * dpsi
    return g * g / (dpsi * dpsi + g * g)


def phi2(psi, dpsi, ddpsi, lam, z):
    """Second coupling (psi'^2 psi'' + 2 psi' g (lam psi' + z psi'')) / (psi'^2 + g^2)."""
    g = lam * psi + z * dpsi
    return (dpsi * dpsi * ddpsi + 2 * dpsi * g * (lam * dpsi + z * ddpsi)) / (dpsi * dpsi + g * g)


def source_h_exact(pair, mu, z):
    """h(mu) of the seed at the float z, exactly from ``pair.poly.exact``,
    with the sum of the absolute values of its three terms."""
    c, x, lam = pair.poly.exact[::-1], Fraction(z), Fraction(pair.lam)
    d1 = _polyder(c)
    psi, dpsi, ddpsi = _polyval(c, x), _polyval(d1, x), _polyval(_polyder(d1), x)
    terms = (
        phi2(psi, dpsi, ddpsi, lam, x),
        Fraction(mu) * ((2 * lam + 1) * psi + x * dpsi),
        -phi1(psi, dpsi, lam, x) * ddpsi,
    )
    return -sum(terms), sum(map(abs, terms))


def correction_system(l, family, mu, z_cut, num_points):
    """The bordered finite-difference system of the first-order correction,
    (A, rhs, z), assembled without cracktip's solver.

    The seed is Re (z+i)^l (first family, lam = -l) or Im (z+i)^(l+1) / (l+1)
    (second family, lam = -l-1), from ``pencil_pair_exact``; h(mu) comes
    from the z-form couplings ``phi1`` and ``phi2``.  A is the
    (N + 1) x (N + 1) scipy.sparse matrix [B u; v 0]: B holds second-order
    central differences of (1+z^2) phi'' + 2(lam+1) z phi' + lam(lam+1) phi
    inside and one-sided 4-point stencils in its first and last rows, u is
    the unit null direction (1+z^2)^lam psi and v the unit trapezoid
    normalization row; rhs is [h; 0].
    """
    import scipy.sparse

    e = l if family.value == "first" else l + 1
    re, im = pencil_pair_exact(e)
    coeffs = [float(c) for c in (re if family.value == "first" else im)][::-1]
    lam = float(-e)
    z = np.linspace(-z_cut, z_cut, num_points)
    psi, dpsi, ddpsi = (np.polyval(np.polyder(coeffs, k), z) for k in range(3))
    h = -(phi2(psi, dpsi, ddpsi, lam, z) + mu * ((2 * lam + 1) * psi + z * dpsi)
          - phi1(psi, dpsi, lam, z) * ddpsi)
    N, dz = num_points, z[1] - z[0]
    a, b, c = (1.0 + z * z) / dz ** 2, (lam + 1.0) * z / dz, lam * (lam + 1.0)
    A = scipy.sparse.lil_matrix((N + 1, N + 1))
    for i in range(1, N - 1):
        A[i, i - 1:i + 2] = [a[i] - b[i], c - 2.0 * a[i], a[i] + b[i]]
    A[0, :4] = [2 * a[0] - 3 * b[0] + c, -5 * a[0] + 4 * b[0], 4 * a[0] - b[0], -a[0]]
    A[N - 1, N - 4:N] = [-a[-1], 4 * a[-1] + b[-1], -5 * a[-1] - 4 * b[-1], 2 * a[-1] + 3 * b[-1] + c]
    null = (1.0 + z * z) ** lam * psi
    w = np.full(N, dz)
    w[0] = w[-1] = 0.5 * dz
    A[:N, N] = (null / np.linalg.norm(null))[:, None]
    A[N, :N] = w * null / np.linalg.norm(w * null)
    return A.tocsc(), np.append(h, 0.0), z


def combination_exact(l, c, d):
    """Descending exact coefficients of c Re (z+i)^l + d Im (z+i)^l / l at
    the float (or rational) weights c, d."""
    re, im = pencil_pair_exact(l)
    cq, dq = Fraction(c), Fraction(d)
    return [cq * a + dq * b for a, b in zip(re, im)][::-1]


def value_at(coeffs, x):
    """The descending exact polynomial at the float (or rational) x = u / w,
    exactly: Horner on w^k times the partial sums, in integers."""
    u, w = Fraction(x).as_integer_ratio()
    den = math.lcm(*(a.denominator for a in coeffs))
    acc, wk = 0, 1
    for a in coeffs:
        acc = acc * u + a.numerator * (den // a.denominator) * wk
        wk *= w
    return Fraction(acc, den * (wk // w))


def sign_at(coeffs, x):
    """Sign of the descending exact polynomial at the float x, exactly."""
    v = value_at(coeffs, x)
    return (v > 0) - (v < 0)


def slope_at(coeffs, x):
    """|p'(x)| of the descending exact polynomial at the float x, exactly,
    rounded once (inf beyond the float range)."""
    try:
        return float(abs(_polyval(_polyder(coeffs), Fraction(x))))
    except OverflowError:
        return float("inf")


def initial_angle_exact(l, alpha):
    """The angle t in [-pi/2, pi/2) of the data (cos t, sin t) at z = 0 whose
    solution of the linear pencil at lam = -l vanishes at the float alpha.

    With E and O the solutions with data (1, 0) and (0, 1), combined from
    Re (z+i)^l and Im (z+i)^l / l, tan t = -E(alpha) / O(alpha), in exact
    arithmetic and rounded once; t = -pi/2 where O(alpha) = 0."""
    re, im = pencil_pair_exact(l)
    det = re[0] * im[1] - re[1] * im[0]
    x = Fraction(alpha)
    u, v = _polyval(re[::-1], x), _polyval(im[::-1], x)
    e = (im[1] * u - re[1] * v) / det
    o = (re[0] * v - im[0] * u) / det
    if o == 0:
        return -math.pi / 2
    r = -e / o
    return math.atan(r) if abs(r) < 1e300 else math.pi / 2 if r > 0 else -math.pi / 2


def stable_residuals_sq(l, alphas):
    """Squared |sin(l (theta_j - theta_1))| at each slope, in exact
    arithmetic at the float slopes: the combination c Re (z+i)^l +
    d Im (z+i)^l / l pinned by the first slope, over
    (1 + z^2)^(l/2) sqrt(c^2 + (d / l)^2)."""
    re, im = pencil_pair_exact(l)
    xs = [Fraction(a) for a in alphas]
    c, d = _polyval(im[::-1], xs[0]), -_polyval(re[::-1], xs[0])
    norm = c * c + d * d / (l * l)
    return [
        (c * _polyval(re[::-1], x) + d * _polyval(im[::-1], x)) ** 2 / ((1 + x * x) ** l * norm)
        for x in xs
    ]


def integral_over_reals(f, order=600):
    """Gauss-Legendre integral of f over the real line via z = tan(theta).

    The substitution maps the line onto (-pi/2, pi/2); integrands decaying
    like 1/z^2 become smooth up to the endpoints, so convergence is
    geometric.  Divergent O(1) tails blow up as sec^2 near the endpoints,
    which shows up as order-dependence (use for convergent cases only).
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * np.pi * nodes
    w = 0.5 * np.pi * weights
    z = np.tan(theta)
    return float(np.sum(w * f(z) / np.cos(theta) ** 2))


def arctan_example(z):
    """The bounded analytic lam = 0 solution arctan(z) of the linear pencil.

    It solves (1+z^2) psi'' + 2 z psi' = 0 with limits +/- pi/2, but its
    blow-up limit is the sign function, which no admissible tip profile can
    trace; it is therefore classified as inadmissible.
    """
    return np.arctan(z)


def arctan_ode_residual(z):
    """(1+z^2) psi'' + 2 z psi' for psi = arctan; zero up to rounding."""
    zz = np.asarray(z, dtype=float)
    d1 = 1.0 / (1.0 + zz * zz)
    d2 = -2.0 * zz / (1.0 + zz * zz) ** 2
    return (1.0 + zz * zz) * d2 + 2.0 * zz * d1


ARCTAN_EXAMPLE_ADMISSIBLE = False
