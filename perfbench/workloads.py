"""Seeded task lists and their expected answers.

A task is a dict with ``kind`` (the runner in worker.py), ``args`` (plain
JSON values) and ``expect`` (the oracle's answer, computed here without
cracktip).  ``defect`` names a defect that is documented and expected on
that input; such a task still counts as failed when its answer is wrong,
but a wrong answer there does not mark the run incorrect.

Every list has a fixed shape.  The seed moves each input a little
around a fixed design point (lattice phases by +-5% of a cell, the
perturbed slope, indices within narrow strata), so no two seeds share
floating-point inputs while cost and defect incidence stay those of the
design point.  The nonlinear crack checks are the exception: their cost
is chaotic in the input, so they sit at the design point for every seed.
"""

from __future__ import annotations

import math
import random

import oracles as O

# log-spread lattice indices for the linear sweep; companion-matrix nodal
# sets are right up to ~80, lose accuracy from ~90 and roots from ~110,
# and check_linear overflows from ~128
LINEAR_L = (2, 3, 5, 8, 12, 18, 27, 40, 60, 90, 120, 150)
DEGREE_DEFECT = "companion-matrix roots at degree >= 90"
# the 8- and 10-slope sets cot((k + 1/2) pi / L): the default scan reaches
# l = 2L, where nodal_set raises RootFindingError
HALF_OFFSET_DEFECT = "RootFindingError at l = 2L on half-offset lattices"
# strata for find_fold, log-spread from 2 to 3000
FOLD_STRATA = (2, 3, 5, 10, 20, 50, 100, 300, 1000, 3000)
# the linear-crack perturbation moves one slope by this share of the gap
PERTURB = 0.37
# README: at n > 0 matching zeros drift by O(n); tol 0.3 covers n <= 0.05
NONLINEAR_TOL = 0.3
# the lattice phase of every check_nonlinear input, the same for all
# seeds: its cost jumps by up to 50% between phases 0.1% of a cell apart
# (adaptive ODE steps), which would make seed-to-seed spread swamp any
# change in the code
NONLINEAR_PHASE = 0.52


def _u(rng):
    """A lattice phase, as a share of the cell pi/L, near its centre."""
    return 0.5 + rng.uniform(-0.05, 0.05)


def _lattice(L, m, u, k0=0):
    """Ascending angles of m consecutive lattice points at index L."""
    g = math.pi / L
    return [(u + k0 + k) * g for k in range(m)]


def _slopes(thetas):
    return sorted(O.slope(t) for t in thetas)


def _crack_task(alphas, l_max, defect=None):
    scan_max = l_max if l_max is not None else len(alphas) + 10
    ok, decay = O.linear_verdict(alphas, scan_max)
    return {
        "kind": "check_linear",
        "args": {"alphas": alphas, "l_max": l_max},
        "expect": {"admissible": ok, "decay": decay, "l_scanned": scan_max - len(alphas) + 1},
        "defect": defect,
    }


def linear_sweep(seed: int):
    rng = random.Random(seed)
    tasks = []
    for L in LINEAR_L:
        defect = DEGREE_DEFECT if L >= 90 else None
        tasks.append({
            "kind": "build_eigenfunction",
            "args": {"l": L},
            "expect": {
                "first": [float(c) for c in O.eigenfunction_coeffs(L, "first")],
                "second": [float(c) for c in O.eigenfunction_coeffs(L - 1, "second")],
            },
            "defect": None,
        })
        delta = _u(rng) * math.pi - math.pi / 2
        c, d = math.cos(delta), L * math.sin(delta)
        s = max(abs(c), abs(d))
        c, d = c / s, d / s
        tasks.append({
            "kind": "nodal_set",
            "args": {"c": c, "d": d, "l": L},
            "expect": {"zeros": O.lattice_zeros(c, d, L)},
            "defect": defect,
        })
        # the whole lattice, with check_linear's default scan m .. m + 10
        tasks.append(_crack_task(_slopes(_lattice(L, L, _u(rng))), None, defect))
        # the lattice less up to ten slopes, scanned up to its own index:
        # once from the edge (k0 = 0, the largest slopes) and once centred
        # (slopes near 0, where check_linear's scaled residual test passes
        # at nearly every l and nodal_set runs for each)
        m = max(2, L - 10)
        tasks.append(_crack_task(_slopes(_lattice(L, m, _u(rng))), L + 1, defect))
        thetas = _lattice(L, m, _u(rng), (L - m) // 2)
        tasks.append(_crack_task(_slopes(thetas), L + 1, defect))
        # the centred set with one slope moved off the lattice (never
        # alphas[0], which pins the combination)
        thetas[rng.randrange(m - 1)] += PERTURB * math.pi / L
        tasks.append(_crack_task(_slopes(thetas), L + 1, defect))
        # a quarter of the lattice (one slope for L < 8) with the default
        # scan m .. m + 10, which reaches L only for small L
        m = max(1, L // 4)
        thetas = _lattice(L, m, _u(rng), (L - m) // 2)
        tasks.append(_crack_task(_slopes(thetas), None))
        fp = O.fold(L)
        ns = (0.0, rng.uniform(0.2, 0.8) * fp[0], rng.uniform(1.2, 2.0) * fp[0])
        tasks.append({
            "kind": "real_roots",
            "args": {"l": L, "n": list(ns)},
            "expect": {"roots": [O.tracked_roots(L, n, fp) for n in ns]},
            "defect": None,
        })
    for L in (8, 10):
        tasks.append(_crack_task(_slopes(_lattice(L, L, 0.5)), None, HALF_OFFSET_DEFECT))
    for lo, hi in zip(FOLD_STRATA, FOLD_STRATA[1:]):
        l = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        tasks.append({"kind": "find_fold", "args": {"l": l}, "expect": _fold_expect(l), "defect": None})
    for family, lo, hi in (("upper", 3, 4), ("lower", 10, 11)):
        l = rng.randint(lo, hi)
        tasks.append({
            "kind": "continue_branch",
            "args": {"l": l, "family": family, "n_max": 1.0},
            "expect": _fold_expect(l),
            "defect": None,
        })
    return tasks


def _fold_expect(l):
    n_star, lam_star = O.fold(l)
    return {"n_star": n_star, "n_tol": fold_tol(l, lam_star)}


def fold_tol(l, lam):
    """Relative accuracy of n* = -A/B that double precision permits.

    n* is a ratio of two quartic values with heavy cancellation; rounding
    each term by 2^-52 moves it by eps * sum|terms| / |value|.  A factor
    of 64 covers the few operations behind each term.
    """
    A, B = O.quartic_parts(l)
    m = abs(lam)
    terms_a = sum(abs(a) * m ** (4 - k) for k, a in enumerate(A))
    terms_b = sum(abs(b) * m ** (4 - k) for k, b in enumerate(B))
    a, b = abs(O.polyval(A, lam)), abs(O.polyval(B, lam))
    return max(1e-12, 64 * 2.0 ** -52 * (terms_a / a + terms_b / b))


def nonlinear_sweep(seed: int):
    rng = random.Random(seed)
    tasks = []
    # (m, n, on the lattice?, l_max); off-lattice verdicts at n > 0 have
    # no oracle under the drift tolerance, so the perturbed case is n = 0.
    # These inputs do not depend on the seed (see NONLINEAR_PHASE).
    for m, n, lattice, l_max in ((2, 0.0, False, 3), (3, 0.005, True, 4),
                                 (2, 0.01, True, 4), (3, 0.05, True, 5)):
        thetas = _lattice(m, m, NONLINEAR_PHASE)
        if not lattice:
            thetas[0] += PERTURB * math.pi / m
        alphas = _slopes(thetas)
        ok, decay = O.linear_verdict(alphas, l_max)
        usable = [l for l in range(m, l_max + 1) if n < O.fold(l)[0]]
        tasks.append({
            "kind": "check_nonlinear",
            "args": {"alphas": alphas, "n": n, "l_max": l_max,
                     "tol": NONLINEAR_TOL if n > 0.0 else 1e-8},
            "expect": {"admissible": ok, "decay": decay, "usable": usable},
            "defect": None,
        })
    for l in range(2, 7):
        z_max = rng.uniform(95.0, 105.0)
        c, d = O.parity_ratio(l, (1.0, 0.0) if l % 2 == 0 else (0.0, 1.0))
        tasks.append({
            "kind": "shoot",
            "args": {"l": l, "z_max": z_max},
            "expect": {"zeros": O.lattice_zeros(c, d, l),
                       "growth": O.log_slope_range(l, c, d, z_max / 10, z_max)},
            "defect": None,
        })
    for l in range(2, 7):
        # initial data spread over the circle by l, jittered by the seed
        t = math.pi * ((l - 1.5) / 5 - 0.5 + rng.uniform(-0.01, 0.01))
        ic = (math.cos(t), math.sin(t))
        c, d = O.parity_ratio(l, ic)
        z_max = 20.0
        zeros = [z for z in O.lattice_zeros(c, d, l) if abs(z) < z_max - 1e-6]
        tasks.append({
            "kind": "two_sided_profile",
            "args": {"l": l, "ic": list(ic), "z_max": z_max},
            "expect": {"zeros": zeros},
            "defect": None,
        })
    seeds = [(l, f) for l in range(2, 6) for f in ("first", "second")]
    tasks.append({
        "kind": "mu_via_ift",
        "args": {"seeds": seeds},
        "expect": {"mu": [[q.numerator, q.denominator] for q in (O.mu_ift(l, f) for l, f in seeds)]},
        "defect": None,
    })
    mu_orth = {l: O.mu_orthogonality(l, "second") for l in range(2, 6)}
    for l, f in seeds:
        tasks.append({
            "kind": "mu_via_quadrature",
            "args": {"l": l, "family": f},
            # first-family integrands tend to a nonzero constant: the
            # orthogonality integral diverges and must be flagged
            "expect": {"divergent": f == "first", "mu": mu_orth.get(l) if f == "second" else None},
            "defect": None,
        })
    for l, f in seeds:
        mu = mu_orth[l] if f == "second" else float(O.mu_ift(l, f))
        tasks.append({
            "kind": "solve_correction",
            "args": {"l": l, "family": f, "mu": mu, "z_cut": rng.uniform(47.5, 52.5)},
            "expect": {},
            "defect": None,
        })
    return tasks


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def cli_mix(seed: int):
    """One call per command; crack runs linear (exit 0 and 3) and nonlinear.

    The first seven calls could run without scipy once the n = 0 lattice
    and the graph n = -A/B replace root finding; mu, shoot and the
    nonlinear crack always need it, so an import change shows on one half.
    """
    rng = random.Random(seed)
    tasks = []

    def call(name, argv, exit_code=0, **expect):
        tasks.append({"kind": "cli", "args": {"name": name, "argv": argv},
                      "expect": {"exit": exit_code, **expect}, "defect": None})

    l = rng.randint(2, 200)
    call("fold", ["fold", "--l", str(l)], **_fold_expect(l))
    degree, family = rng.randint(2, 40), rng.choice(("first", "second"))
    call("pencil", ["pencil", "--degree", str(degree), "--family", family],
         coeffs=[float(c) for c in O.eigenfunction_coeffs(degree, family)])
    l = rng.randint(1, 6)
    ns = [round(rng.uniform(0.0, 0.5), 3) for _ in range(3)]
    call("char-scan", ["char-scan", "--l", str(l), "--n-list", ",".join(map(str, ns))], l=l, n=ns)
    l, family = rng.randint(2, 8), rng.choice(("upper", "lower"))
    call("branch", ["branch", "--l", str(l), "--family", family], l=l, **_fold_expect(l))
    L = rng.randint(2, 8)
    alphas = _slopes(_lattice(L, L, _u(rng)))
    call("crack", ["crack", "--alphas", _csv(alphas)], decay=L)
    L = rng.randint(3, 8)
    thetas = _lattice(L, L, _u(rng))
    thetas[rng.randrange(L - 1)] += PERTURB * math.pi / L
    alphas = _slopes(thetas)
    ok, decay = O.linear_verdict(alphas, L + 10)
    call("crack", ["crack", "--alphas", _csv(alphas)], 0 if ok else 3, decay=decay)
    l = rng.randint(2, 5)
    call("mu", ["mu", "--l", str(l), "--family", "second"],
         mu_ift=float(O.mu_ift(l, "second")), mu_quad=O.mu_orthogonality(l, "second"))
    l = rng.randint(2, 6)
    c, d = O.parity_ratio(l, (1.0, 0.0) if l % 2 == 0 else (0.0, 1.0))
    call("shoot", ["shoot", "--l", str(l), "--n", "0", "--lambda", str(-l), "--z-max", "50",
                   "--format", "json"], l=l, zeros=O.lattice_zeros(c, d, l),
         growth=O.log_slope_range(l, c, d, 5.0, 50.0))
    alphas = _slopes(_lattice(2, 2, NONLINEAR_PHASE))
    call("crack-nonlinear", ["crack", "--alphas", _csv(alphas), "--n", "0.05", "--l-max", "3",
                             "--tol", repr(NONLINEAR_TOL)], decay=2)
    return tasks


WORKLOADS = {"cli_mix": cli_mix, "linear_sweep": linear_sweep, "nonlinear_sweep": nonlinear_sweep}
