"""The host's current speed, from fixed reference work timed beside the tasks.

On a shared host the same code runs up to twice as fast or slow for
seconds to minutes at a time, as other tenants come and go.  So every
timed task is followed by reference work that does not use cracktip,
and each task's time is multiplied by ``nominal / median(reference times
after it and after its NEIGHBOURS tasks on each side)``: times are
reported as seconds on a host on which the reference takes its nominal
time, about its median on the 2-vCPU 2.1 GHz Xeon VM the benchmark was
tuned on.  run.py prints the unscaled times beside them.  A change to
cracktip cannot move the reference; a spell that slows the host moves
both and cancels.

There are two references, one for each kind of work timed:

* in-process tasks: ``reference``, a fixed mix of interpreter work and
  small numpy operations, called once per REF_EVERY_S of task time;
* fresh interpreters (set-up and CLI calls): a fresh ``import numpy``,
  which is start-up work of the same kind and does not import cracktip;
  each set-up import is scaled by the one reference import after it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REF_NOMINAL_S = 1.5e-3
IMPORT_REF = "numpy"
IMPORT_REF_NOMINAL_S = 0.15
# one reference call per this much task time, at least one per task, so
# the samples are spread over the round like the task time is
REF_EVERY_S = 0.02
REF_MAX_CALLS = 50
# tasks on each side of a task whose reference times also set its scale:
# a single short task is followed by one reference call, too few alone
NEIGHBOURS = 10

_M = np.random.default_rng(12345).standard_normal((24, 24))
_V = _M[0].copy()


def reference():
    """Seconds taken by one call of the in-process reference."""
    t0 = time.perf_counter()
    acc, d = 0.0, {}
    for i in range(1500):
        acc += (i * 0.5) % 7.0
        d[i & 63] = acc
    np.linalg.eigvals(_M)
    for _ in range(20):
        np.polyval(_V, 0.3) + np.sum(_V * 1.5)
    return time.perf_counter() - t0


def sample(after_s):
    """In-process reference times after a task that took ``after_s`` seconds."""
    calls = min(REF_MAX_CALLS, max(1, int(after_s / REF_EVERY_S)))
    return [reference() for _ in range(calls)]


def fresh_import_s(module, env, cwd):
    """Seconds from spawning a fresh interpreter until ``import module`` is done.

    The child reports the wall-clock time at which its import finished, so
    interpreter shutdown stays out of the figure.
    """
    code = f"import time, {module}; print(repr(time.time()))"
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {proc.stderr.decode(errors='replace').strip()}")
    return float(proc.stdout) - t0


def scale(ref_times, nominal):
    """Factor that turns this host's seconds into nominal-host seconds."""
    return nominal / statistics.median(ref_times)


def scales(ref_times_per_task, nominal):
    """Each task's scale, from the reference times after it and its neighbours."""
    n = len(ref_times_per_task)
    return [scale([x for r in ref_times_per_task[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1] for x in r],
                  nominal) for i in range(n)]
