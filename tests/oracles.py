"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own numerics: fold
points come from exact rational Sturm-sequence bisection on the
elimination polynomial, and improper integrals from Gauss-Legendre after
the tangent substitution.  Expected values frozen in the tests were
produced by these routines.
"""

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


def quartic_residual(l, n, lam):
    """|Phi_l(lam; n)| over the sum of the absolute values of its terms,
    in exact arithmetic at the float arguments."""
    A, B = quartic_parts_exact(l)
    x, nq = Fraction(lam), Fraction(n)
    m = max(Fraction(1), abs(x))
    scale = sum((abs(a) + nq * abs(b)) * m ** (4 - k) for k, (a, b) in enumerate(zip(A, B)))
    return float(abs(_polyval(A, x) + nq * _polyval(B, x)) / scale)


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
