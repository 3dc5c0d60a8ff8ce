"""One benchmark run of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Run by run.py with one BLAS thread and ``src`` on the path.  The task
list comes from workloads.py; rounds of it run back to back (closed
loop, one client) until SECONDS have passed; the last round may be cut
short, except in traced runs, whose rounds alternate untraced and traced.  Each task's answer is
checked against its oracle after the task's clock stops, and followed by
host-speed reference work (hostspeed.py).  Prints one JSON object with
the rounds (task latencies, each task's scale to the nominal host,
counters), the failures and, when TRACE is 1, the spans.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings

import numpy as np

import hostspeed
import oracles as O
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_TIMEOUT_S = 60.0


class Tracer:
    """Spans around the benchmark's calls into each layer, kept in memory.

    A span is (id, name, start, end, parent id, task id); times are
    perf_counter seconds.  When off, ``span`` records nothing.
    """

    def __init__(self):
        self.on = False
        self.spans = []
        self.stack = []
        self.task = None

    def span(self, name):
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        if t.on:
            t.stack.append(len(t.spans))
            t.spans.append(None)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        if t.on:
            sid = t.stack.pop()
            parent = t.stack[-1] if t.stack else None
            t.spans[sid] = (sid, self.name, self.start, end, parent, t.task)
        return False


# ----------------------------------------------------------------------
# runners: each makes the task's calls into cracktip, one span per call

def _run(kind, a, tr, ct):
    if kind == "build_eigenfunction":
        with tr.span("pencil.build_eigenfunction"):
            p1 = ct.build_eigenfunction(a["l"], ct.Family.FIRST).poly.coeffs
        with tr.span("pencil.build_eigenfunction"):
            p2 = ct.build_eigenfunction(a["l"] - 1, ct.Family.SECOND).poly.coeffs
        return p1, p2
    if kind == "nodal_set":
        with tr.span("pencil.combine"):
            combo = ct.combine(a["c"], a["d"], a["l"])
        with tr.span("pencil.nodal_set"):
            return ct.nodal_set(combo).zeros
    if kind == "check_linear":
        spec = ct.CrackSpec(alphas=tuple(a["alphas"]))
        with tr.span("crack.check_linear"):
            return ct.check_linear(spec, l_max=a["l_max"])
    if kind == "real_roots":
        out = []
        for n in a["n"]:
            with tr.span("characteristic.build_quartic"):
                q = ct.build_quartic(a["l"], n)
            with tr.span("characteristic.real_roots"):
                out.append(ct.real_roots(q))
        return out
    if kind == "find_fold":
        with tr.span("continuation.find_fold"):
            return ct.find_fold(a["l"])
    if kind == "continue_branch":
        family = ct.BranchFamily(a["family"])
        with tr.span("continuation.continue_branch"):
            return ct.continue_branch(a["l"], family, a["n_max"])
    if kind == "check_nonlinear":
        spec = ct.CrackSpec(alphas=tuple(a["alphas"]))
        with tr.span("crack.check_nonlinear"):
            return ct.check_nonlinear(spec, a["n"], l_max=a["l_max"], tol=a["tol"])
    if kind == "shoot":
        with tr.span("shooting.shoot"):
            return ct.shoot(a["l"], 0.0, -float(a["l"]), z_max=a["z_max"])
    if kind == "two_sided_profile":
        with tr.span("shooting.two_sided_profile"):
            prof = ct.two_sided_profile(0.0, -float(a["l"]), tuple(a["ic"]), a["z_max"])
            return prof.zeros()
    if kind == "mu_via_ift":
        out = []
        for l, f in a["seeds"]:
            with tr.span("perturbation.mu_via_ift"):
                out.append(ct.mu_via_ift(l, ct.Family(f)))
        return out
    if kind == "mu_via_quadrature":
        with tr.span("perturbation.mu_via_quadrature"):
            return ct.mu_via_quadrature(a["l"], ct.Family(a["family"]))
    if kind == "solve_correction":
        with tr.span("perturbation.solve_correction"):
            return ct.solve_correction(a["l"], ct.Family(a["family"]), a["mu"], z_cut=a["z_cut"])
    if kind == "cli":
        with tr.span("cli.call." + a["name"]):
            return subprocess.run(
                [sys.executable, "-m", "cracktip", *a["argv"]],
                cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S,
            )
    raise ValueError(f"unknown task kind {kind!r}")


# ----------------------------------------------------------------------
# checks: compare a result with the oracle; return a reason or None.
# ``counters`` collects the per-layer work counts.

def _zeros_err(got, want, tol):
    if len(got) != len(want):
        return math.inf, f"returned {len(got)} of {len(want)} zeros"
    err = max((abs(g - w) / (1.0 + abs(w)) for g, w in zip(got, want)), default=0.0)
    return err, (f"zero error {err:.3g} > {tol:g}" if err > tol else None)


def _coeffs_reason(got, want):
    if len(got) != len(want):
        return f"degree {len(got) - 1}, expected {len(want) - 1}"
    bad = [k for k, (g, w) in enumerate(zip(got, want)) if abs(g - w) > 1e-12 * abs(w)]
    return f"coefficient {bad[0]} is {got[bad[0]]!r}, expected {want[bad[0]]!r}" if bad else None


def _fold_reason(l, n_star, lam_star, e):
    err = abs(n_star - e["n_star"]) / e["n_star"]
    # a fold's Lam* is only sqrt-conditioned; check it through n(Lam*)
    err_lam = abs(O.branch_n(l, lam_star) - e["n_star"]) / e["n_star"]
    if max(err, err_lam) > e["n_tol"]:
        return err, f"fold n* error {err:.3g}, n(Lam*) error {err_lam:.3g} > {e['n_tol']:.3g}"
    return err, None


def _branch_reason(l, samples, e):
    # |n - (-A/B)| * |B| = |Phi(Lam; n)|, in exact arithmetic, against the
    # size of Phi's terms: 1e-12 of it is ~4500 units in the last place
    worst = max(abs(O.quartic_value(l, n, lam)) / O.quartic_scale(l, n, lam) for n, lam in samples)
    if worst > 1e-12:
        return f"branch sample off n = -A/B: relative residual {worst:.3g}"
    if samples[0][0] != 0.0 or max(n for n, _ in samples) > e["n_star"] * (1 + e["n_tol"]):
        return "branch does not run from n = 0 to the fold"
    return None


def _growth_reason(g, bounds):
    lo, hi = bounds
    if g is None or not lo - 1e-6 <= g <= hi + 1e-6:
        return f"growth exponent {g!r} outside the local slopes [{lo:.6g}, {hi:.6g}]"
    return None


def _check(task, r, counters):
    kind, a, e = task["kind"], task["args"], task["expect"]
    if kind == "build_eigenfunction":
        return _coeffs_reason(r[0], e["first"]) or _coeffs_reason(r[1], e["second"])
    if kind == "nodal_set":
        counters["nodal_zeros"] += len(r)
        return _zeros_err(r, e["zeros"], 1e-6)[1]
    if kind == "check_linear":
        if (r.admissible, r.decay_exponent) != (e["admissible"], e["decay"]):
            return (f"verdict ({r.admissible}, {r.decay_exponent}), "
                    f"expected ({e['admissible']}, {e['decay']})")
        return None
    if kind == "real_roots":
        for n, got, want in zip(a["n"], r, e["roots"]):
            err, why = _zeros_err(got, want, 1e-9)
            if why:
                return f"n={n!r}: {why}"
        return None
    if kind == "find_fold":
        err, why = _fold_reason(a["l"], r.n_star, r.lambda_star, e)
        counters["fold_rel_err_max"] = max(counters["fold_rel_err_max"], err)
        return why
    if kind == "continue_branch":
        counters["branch_samples"] += len(r.samples)
        if r.fold is None:
            return "branch stopped without reporting its fold"
        return _fold_reason(a["l"], r.fold.n_star, r.fold.lambda_star, e)[1] or \
            _branch_reason(a["l"], r.samples, e)
    if kind == "check_nonlinear":
        past = {int(s.split(":")[0][2:]) for s in r.notes if "past fold" in s}
        usable = [l for l in range(len(a["alphas"]), a["l_max"] + 1) if l not in past]
        counters["l_usable"] += len(usable)
        if usable != e["usable"]:
            return f"usable l {usable}, expected {e['usable']}"
        if (r.admissible, r.decay_exponent) != (e["admissible"], e["decay"]):
            return (f"verdict ({r.admissible}, {r.decay_exponent}), "
                    f"expected ({e['admissible']}, {e['decay']})")
        return None
    if kind == "shoot":
        err, why = _zeros_err(r.zeros.zeros, e["zeros"], 1e-8)
        counters["shoot_zero_err_max"] = max(counters["shoot_zero_err_max"], err)
        if why:
            return why
        return _growth_reason(r.growth_exponent, e["growth"])
    if kind == "two_sided_profile":
        return _zeros_err(r, e["zeros"], 1e-8)[1]
    if kind == "mu_via_ift":
        for (l, f), got, (p, q) in zip(a["seeds"], r, e["mu"]):
            if abs(got - p / q) > 1e-12 * (1.0 + abs(p / q)):
                return f"mu_ift(l={l}, {f}) = {got!r}, expected {p}/{q}"
        return None
    if kind == "mu_via_quadrature":
        mu, diag = r
        counters["quad_windows"] += len(diag.windows)
        if diag.divergent_tail != e["divergent"]:
            return f"divergent_tail is {diag.divergent_tail}, expected {e['divergent']}"
        if e["mu"] is not None and abs(mu - e["mu"]) > 1e-5:
            return f"mu {mu!r}, orthogonality oracle {e['mu']!r}"
        return None
    if kind == "solve_correction":
        return _correction_reason(a, r)
    if kind == "cli":
        return _cli_reason(task, r)
    raise ValueError(kind)


def _correction_reason(a, sol):
    """Recompute the bordered finite-difference system from scratch.

    Each interior row of  Bstar phi + s * null = h  must hold to rounding
    relative to the sizes of its terms; the normalization row likewise.
    """
    z, phi, s = sol.z, sol.phi, sol.resonance_amplitude
    rest, coeff, psi, lam = O.source_parts(a["l"], a["family"], z)
    h = rest + a["mu"] * coeff
    dz = z[1] - z[0]
    aa, bb, c0 = 1.0 + z * z, 2.0 * (lam + 1.0) * z, lam * (lam + 1.0)
    null = (1.0 + z * z) ** lam * psi
    null = null / np.linalg.norm(null)
    second = aa[1:-1] * (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / dz ** 2
    first = bb[1:-1] * (phi[2:] - phi[:-2]) / (2.0 * dz)
    row = second + first + c0 * phi[1:-1] + s * null[1:-1] - h[1:-1]
    size = (aa[1:-1] * (np.abs(phi[:-2]) + 2 * np.abs(phi[1:-1]) + np.abs(phi[2:])) / dz ** 2
            + np.abs(bb[1:-1]) * (np.abs(phi[2:]) + np.abs(phi[:-2])) / (2 * dz)
            + abs(c0) * np.abs(phi[1:-1]) + abs(s) * np.abs(null[1:-1]) + np.abs(h[1:-1]))
    worst = float(np.max(np.abs(row) / size))
    if worst > 1e-9:
        return f"finite-difference row residual {worst:.3g} of its terms"
    w = np.full(z.size, dz)
    w[0] = w[-1] = 0.5 * dz
    con = w * (1.0 + z * z) ** lam * psi
    orth = abs(float(np.dot(con, phi))) / float(np.dot(np.abs(con), np.abs(phi)))
    if orth > 1e-9:
        return f"normalization off by {orth:.3g}"
    return None


def _cli_reason(task, proc):
    e, name = task["expect"], task["args"]["name"]
    if proc.returncode != e["exit"]:
        err = proc.stderr.decode(errors="replace").strip().splitlines()
        return f"exit {proc.returncode}, expected {e['exit']}" + (f": {err[-1]}" if err else "")
    out = proc.stdout.decode()
    if name == "pencil":
        got = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        return _coeffs_reason(got, e["coeffs"])
    if name == "char-scan":
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        if len(rows) != round((0.5 + e["l"] + 3.0) / 0.01) + 1:
            return f"{len(rows)} grid rows"
        for row in rows:
            lam = row[0]
            for n, v in zip(e["n"], row[1:]):
                want = O.quartic_value(e["l"], n, lam)
                if abs(v - want) > 1e-13 * O.quartic_scale(e["l"], n, lam):
                    return f"Phi({lam!r}; {n}) = {v!r}, expected {want!r}"
        return None
    if name == "branch":
        samples = [tuple(float(x) for x in line.split(",")) for line in out.splitlines()[1:]]
        return _branch_reason(e["l"], samples, e)
    rec = json.loads(out)
    if name == "fold":
        return _fold_reason(rec["l"], rec["n_star"], rec["lambda_star"], e)[1]
    if name in ("crack", "crack-nonlinear"):
        if rec["decay_exponent"] != e["decay"]:
            return f"decay exponent {rec['decay_exponent']}, expected {e['decay']}"
        return None
    if name == "mu":
        if abs(rec["mu_ift"] - e["mu_ift"]) > 1e-12 * abs(e["mu_ift"]):
            return f"mu_ift {rec['mu_ift']!r}, expected {e['mu_ift']!r}"
        if abs(rec["mu_quadrature"] - e["mu_quad"]) > 1e-5:
            return f"mu_quadrature {rec['mu_quadrature']!r}, oracle {e['mu_quad']!r}"
        return None
    if name == "shoot":
        why = _zeros_err(rec["zeros"], e["zeros"], 1e-8)[1]
        if why:
            return why
        return _growth_reason(rec["growth_exponent"], e["growth"])
    raise ValueError(name)


# ----------------------------------------------------------------------

def _new_counters():
    return {"nodal_zeros": 0, "nodal_predicted": 0, "l_scanned": 0, "fold_rel_err_max": 0.0,
            "branch_samples": 0, "l_usable": 0, "shoot_zero_err_max": 0.0, "quad_windows": 0}


def _run_task(task, tracer, ct, counters, failures, round_no, warm):
    # work asked of the layer counts whether or not the call returns
    if task["kind"] == "nodal_set":
        counters["nodal_predicted"] += len(task["expect"]["zeros"])
    elif task["kind"] == "check_linear":
        counters["l_scanned"] += task["expect"]["l_scanned"]
    tracer.task = task["id"]
    t0 = time.perf_counter()
    try:
        with tracer.span("task." + task["kind"]):
            r = _run(task["kind"], task["args"], tracer, ct)
        error = None
    except Exception as exc:  # the task's outcome, checked below
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if error is None:
        try:
            why = _check(task, r, counters)
        except Exception as exc:
            why = f"answer could not be checked: {type(exc).__name__}: {exc}"
        if why is None and task["kind"] == "cli":
            if task["id"] in warm and warm[task["id"]] != r.stdout:
                why = "output bytes differ from the previous identical call"
            warm.setdefault(task["id"], r.stdout)
    else:
        why = "raised " + error[:300]
    if why is not None:
        failures.append({"round": round_no, "task": task["id"], "kind": task["args"].get("name", task["kind"]),
                         "defect": task["defect"], "reason": why})
    return dt


def main(argv):
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    warnings.simplefilter("ignore", RuntimeWarning)
    tasks = workloads.WORKLOADS[workload](seed)
    for i, t in enumerate(tasks):
        t["id"] = i
    tracer = Tracer()
    warm = {}
    if workload == "cli_mix":
        ct = None
        # one untimed call per command, so .pyc compilation and cold file
        # caches stay out of the samples; its bytes anchor the repeat check
        for t in tasks:
            warm[t["id"]] = _run("cli", t["args"], tracer, None).stdout
    else:
        import cracktip as ct

    rounds, failures = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds) or len(rounds) < (2 if trace else 1):
        traced = trace and len(rounds) % 2 == 1
        tracer.on = traced
        first_span = len(tracer.spans)
        counters = _new_counters()
        if ct is not None and hasattr(ct.build_eigenfunction, "cache_clear"):
            # every round is one sweep from a fresh library state
            ct.build_eigenfunction.cache_clear()
        lat, refs = [], []
        for t in tasks:
            lat.append(_run_task(t, tracer, ct, counters, failures, len(rounds), warm))
            if ct is None:
                refs.append([hostspeed.fresh_import_s(hostspeed.IMPORT_REF, None, ROOT)])
            else:
                refs.append(hostspeed.sample(lat[-1]))
            # untraced runs may end inside a round once one round is whole
            if not trace and rounds and time.perf_counter() - start >= seconds:
                break
        nominal = hostspeed.IMPORT_REF_NOMINAL_S if ct is None else hostspeed.REF_NOMINAL_S
        rounds.append({"traced": traced, "latencies": lat, "scales": hostspeed.scales(refs, nominal),
                       "counters": counters, "spans": (first_span, len(tracer.spans))})
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if ct is None else resource.RUSAGE_SELF)
    out = {
        "tasks": [{"id": t["id"], "kind": t["args"].get("name", t["kind"]), "defect": t["defect"]} for t in tasks],
        "rounds": rounds,
        "failures": failures,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "spans": tracer.spans,
    }
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
