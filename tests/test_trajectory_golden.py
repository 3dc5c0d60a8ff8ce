"""Bit-for-bit regression of ``_trajectory`` against recorded solutions.

Each case records ``float.hex`` of the zeros, the end state and the dense
output at the middle of the span, and the counts ``nfev`` and ``steps``.
The cases cover forward and backward runs, a start on Psi = 0, the
tolerances of the nonlinear crack check and the power-of-two rescale of
``shooting._tip_kernel``.  After a deliberate change to the stepper's
arithmetic, see what it moves with

    PYTHONPATH=src python tests/test_trajectory_golden.py --diff

which prints each changed field and its largest relative change, or each
added or removed one, and writes nothing, then record the file again with

    PYTHONPATH=src python tests/test_trajectory_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from cracktip.shooting import _trajectory

from golden import changes, report

GOLDEN = Path(__file__).parent / "data" / "trajectory_golden.json"

# name -> (lam, n, z0, y0, z_end, rtol, atol)
CASES = {
    "forward_even": (-2.3, 0.05, 0.0, (1.0, 0.0), 30.0, 1e-10, 1e-10),
    "forward_odd_linear": (-5.0, 0.0, 0.0, (0.0, 1.0), 100.0, 1e-10, 1e-10),
    "backward": (-3.1, 0.02, 2.0, (0.3, -0.8), -25.0, 1e-10, 1e-10),
    "backward_steep": (-8.2, 0.1, 5.0, (0.6, 0.8), -60.0, 1e-10, 1e-12),
    "on_zero_crack_tolerances": (-3.0, 0.05, 0.7, (0.0, 1.0), 40.0, 1e-11, 1e-12),
    "crack_back_to_origin": (-2.0, 0.05, 1.2, (0.0, -1.0), 0.0, 1e-11, 1e-12),
    "large_n": (-4.5, 0.3, -1.0, (0.6, 0.8), 15.0, 1e-11, 1e-12),
    "rescaled_past_overflow": (-100.0, 0.0, 0.0, (1.0, 0.0), 100.0, 1e-10, 1e-10),
}


def _record(args):
    lam, n, z0, y0, z_end, rtol, atol = args
    traj = _trajectory(lam, n, z0, y0, z_end, rtol, atol)
    return {
        "zeros": [z.hex() for z in traj.zeros],
        "end": [v.hex() for v in traj.end],
        "sol_mid": [v.hex() for v in traj.sol(0.5 * (z0 + z_end))],
        "nfev": traj.nfev,
        "steps": traj.steps,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_recorded_bits(name):
    want = json.loads(GOLDEN.read_text())[name]
    assert _record(CASES[name]) == want


if __name__ == "__main__":
    out = {name: _record(args) for name, args in CASES.items()}
    if sys.argv[1:] == ["--diff"]:
        def flat(cases):
            return {f"{name}.{key}": rec[key] for name, rec in sorted(cases.items())
                    for key in sorted(rec)}
        report(changes(flat(json.loads(GOLDEN.read_text())), flat(out)))
    else:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
