"""The cracktip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see BENCHMARK.json for why
each was chosen):

* cli_mix: fresh-interpreter ``python -m cracktip`` calls cycling over
  fold, pencil, char-scan, branch, crack (exit 0 and 3), mu, shoot and a
  nonlinear crack;
* linear_sweep: in-process check_linear, nodal_set, build_eigenfunction,
  real_roots, find_fold and continue_branch over lattice indices 2..150
  and fold indices 2..3000;
* nonlinear_sweep: in-process check_nonlinear, shoot, two_sided_profile,
  mu_via_ift, mu_via_quadrature and solve_correction.

Each run first times ``import cracktip`` in fresh interpreters (setup_s),
then starts one worker process with one BLAS thread that runs the
seeded task list in rounds, closed loop with one client, until
``--seconds`` have passed.  Every answer is checked against an oracle
that does not use cracktip (perfbench/oracles.py).  Every time is
scaled to a nominal host speed measured alongside it (hostspeed.py);
the report prints the unscaled times and the scale factors too.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and reports per-layer self time,
work counters and the tracing overhead.  It prints a readable report,
writes it with the run context to perfbench/results/, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.

``attempted`` is the number of tasks in the seeded list and ``failed``
the number of them that failed in any round, so both depend on the seed
alone.  ``correct`` is false when any task fails outside the documented
defect classes in workloads.py; failures inside them still count in
``failed`` and in pass_frac.  Compare two sets of results with
perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
DEADLINE_S = 170.0
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("cli_mix", "linear_sweep", "nonlinear_sweep")

# per-layer metrics: span names whose self time is summed per round
LAYER_MS = (
    "pencil.nodal_set", "pencil.build_eigenfunction", "characteristic.real_roots",
    "continuation.find_fold", "continuation.continue_branch", "crack.check_linear",
    "crack.check_nonlinear", "shooting.shoot", "shooting.two_sided_profile",
    "perturbation.mu_via_ift", "perturbation.mu_via_quadrature", "perturbation.solve_correction",
)
CALL_COUNTS = ("pencil.nodal_set", "characteristic.real_roots")
CLI_COMMANDS = ("fold", "pencil", "char-scan", "branch", "crack", "mu", "shoot", "crack-nonlinear")


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every process
    return env


def context(args):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "load_avg_1m": os.getloadavg()[0],
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "git_revision": git_revision(),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    child = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]
    return {s[0]: (s[3] - s[2]) - child[s[0]] for s in spans}


def failed_tasks(res):
    """Distinct tasks that failed in any round.

    A task is one seeded input, run once per round; counting tasks rather
    than calls keeps ``attempted`` and ``failed`` a function of the seed,
    whatever number of rounds the host's speed allows.  A task whose
    outcome changes between rounds counts as failed.
    """
    return len({f["task"] for f in res["failures"]})


def task_latencies(rounds, n_tasks, scaled):
    """Each task's median latency over the rounds, each call scaled to the
    nominal host by its task's scale (hostspeed.py) if ``scaled``.  A slow
    spell on a shared host then moves single samples rather than whole
    rounds."""
    lat = [[x * (k if scaled else 1.0) for x, k in zip(r["latencies"], r["scales"])] for r in rounds]
    return [statistics.median(r[i] for r in lat if i < len(r)) for i in range(n_tasks)]


def end_to_end(res, setup):
    rounds = res["rounds"]
    lat = task_latencies(rounds, len(res["tasks"]), True)
    # the typical task latency is the mean of the middle half of the tasks
    # (interquartile mean), not their median: a task list mixes costs from
    # 0.1 ms to seconds, with gaps of 30% between neighbouring tasks in the
    # middle, and which task lands at the median changes with the seed
    mid = sorted(lat)[len(lat) // 4:len(lat) - len(lat) // 4]
    m = {
        "setup_s": (statistics.median(setup["scaled"]), "s"),
        "wall_s": (sum(lat), "s"),
        "task_ms.iqm": (1e3 * statistics.mean(mid), "ms"),
        "pass_frac": (1.0 - failed_tasks(res) / len(res["tasks"]), "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {"rounds": len(rounds), "calls": sum(len(r["latencies"]) for r in rounds),
             "tasks": len(lat), "task_ms.p50": 1e3 * statistics.median(lat)}
    if len(lat) >= 100:
        notes["task_ms.p90"] = 1e3 * statistics.quantiles(lat, n=10)[-1]
    host = task_latencies(rounds, len(res["tasks"]), False)
    notes.update({"host.setup_s": statistics.median(setup["host"]), "host.wall_s": sum(host),
                  "speed_scale.median": statistics.median(k for r in rounds for k in r["scales"])})
    return m, notes


def per_layer(res, setup):
    rounds = res["rounds"]
    spans = res["spans"]
    selfs = self_times(spans)
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round, cli_s = [], defaultdict(list)
    for r in traced:
        ms, calls = Counter(), Counter()
        for s in spans[r["spans"][0]:r["spans"][1]]:
            k = r["scales"][s[5]]
            ms[s[1]] += k * 1e3 * selfs[s[0]]
            calls[s[1]] += 1
            if s[1].startswith("cli.call."):
                cli_s[s[1]].append(k * (s[3] - s[2]))
        per_round.append((ms, calls, r["counters"]))

    def med(f):
        return statistics.median(f(x) for x in per_round)

    m = {"cli.import_s": (statistics.median(setup["scaled"]), "s"),
         "cli.import_floor_s": (statistics.median(setup["floor"]), "s")}
    for cmd in CLI_COMMANDS:
        d = cli_s["cli.call." + cmd]
        m["cli.call_s." + cmd] = (statistics.median(d) if d else 0.0, "s")
    for name in LAYER_MS:
        m[name + ".ms"] = (med(lambda x: x[0][name]), "ms")
    for name in CALL_COUNTS:
        m[name + ".calls"] = (med(lambda x: x[1][name]), "count")
    c = [x[2] for x in per_round]
    predicted = sum(x["nodal_predicted"] for x in c)
    m["pencil.nodal_set.root_yield"] = (
        sum(x["nodal_zeros"] for x in c) / predicted if predicted else 0.0, "ratio")
    m["continuation.find_fold.rel_err_max"] = (max(x["fold_rel_err_max"] for x in c), "ratio")
    m["continuation.continue_branch.samples"] = (med(lambda x: x[2]["branch_samples"]), "count")
    m["crack.check_linear.l_scanned"] = (med(lambda x: x[2]["l_scanned"]), "count")
    m["crack.check_nonlinear.l_usable"] = (med(lambda x: x[2]["l_usable"]), "count")
    m["shooting.shoot.zero_err_max"] = (max(x["shoot_zero_err_max"] for x in c), "ratio")
    m["perturbation.mu_via_quadrature.windows"] = (med(lambda x: x[2]["quad_windows"]), "count")
    wall_plain = statistics.median(sum(x * k for x, k in zip(r["latencies"], r["scales"])) for r in plain)
    wall_traced = statistics.median(sum(x * k for x, k in zip(r["latencies"], r["scales"])) for r in traced)
    m["trace.overhead_frac"] = ((wall_traced - wall_plain) / wall_plain, "ratio")
    m["tasks.fail_frac"] = (failed_tasks(res) / len(res["tasks"]), "ratio")

    # self time per layer (the text before the first dot) per traced round
    layers = sorted({name.split(".")[0] for ms, _, _ in per_round for name in ms})
    table = {layer: med(lambda x: sum(v for n, v in x[0].items() if n.split(".")[0] == layer))
             for layer in layers}
    return m, table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "cracktip", "__init__.py")):
        print(f"error: no cracktip sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = child_env()
    # each import of cracktip as measured ("host") and scaled by a fresh
    # import of numpy right after it ("scaled"), whose own time is the
    # import floor ("floor", unscaled)
    setup = {"host": [], "scaled": [], "floor": []}
    try:
        for _ in range(SETUP_REPEATS):
            t = hostspeed.fresh_import_s("cracktip", env, ROOT)
            ref = hostspeed.fresh_import_s(hostspeed.IMPORT_REF, env, ROOT)
            setup["host"].append(t)
            setup["floor"].append(ref)
            setup["scaled"].append(t * hostspeed.scale([ref], hostspeed.IMPORT_REF_NOMINAL_S))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    worker = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
         repr(args.seconds), str(args.trace)],
        cwd=ROOT, env={**env, "PYTHONPATH": HERE + os.pathsep + env["PYTHONPATH"]},
        stdout=subprocess.PIPE,
    )
    try:
        out, _ = worker.communicate(timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.communicate()
        print("error: worker did not finish in time", file=sys.stderr)
        return 3
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 3
    res = json.loads(out.decode().strip().splitlines()[-1])

    calls = sum(len(r["latencies"]) for r in res["rounds"])
    attempted, failed = len(res["tasks"]), failed_tasks(res)
    defect_of = {t["id"]: t["defect"] for t in res["tasks"]}
    unexpected = [f for f in res["failures"] if defect_of[f["task"]] is None]
    if args.trace:
        metrics, table = per_layer(res, setup)
        notes = {"rounds": len(res["rounds"]), "traced_rounds": sum(r["traced"] for r in res["rounds"])}
    else:
        metrics, notes = end_to_end(res, setup)
        table = None

    ctx = context(args)
    print(f"cracktip benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("context: " + ", ".join(f"{k}={v}" for k, v in ctx.items() if k != "blas_threads")
          + ", BLAS threads 1")
    print("run: " + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in notes.items())
          + (" (task_ms.p90 needs >= 100 tasks)" if "task_ms.p90" not in notes and not args.trace else ""))
    groups = Counter((f["kind"], f["defect"] or "UNEXPECTED", f["reason"][:90]) for f in res["failures"])
    print(f"failures: {failed} of {attempted} tasks ({len(res['failures'])} of {calls} calls over all rounds), "
          f"{len(unexpected)} calls outside known defects")
    for (kind, defect, reason), k in sorted(groups.items()):
        print(f"  {k:5d} x {kind} [{defect}] {reason}")
    if table is not None:
        print("self time per layer per traced round (ms):")
        for layer, v in table.items():
            print(f"  {layer:16s} {v:12.3f}")
    print("metrics:")
    for name, (v, unit) in metrics.items():
        print(f"  {name:40s} {v:14.6g} {unit}")

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"context": ctx, "notes": notes, "layer_self_ms": table,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "failures": [{"count": k, "kind": kd, "defect": d, "reason": r}
                                for (kd, d, r), k in sorted(groups.items())]}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "task"],
                       "spans": res["spans"]}, fh)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
