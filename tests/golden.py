"""The ``--diff`` report of the golden-file scripts.

``python tests/test_trajectory_golden.py --diff`` and
``python tests/test_cli_golden.py --diff`` compute every case afresh and
print, for each recorded field or line that would change, its largest
relative change; they write no file.
"""

import math


def _numbers(value):
    """The leaves of a JSON value in order.  Strings are split at commas
    (a CSV line), and each piece that reads as a decimal or ``float.hex``
    number becomes that float."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, str):
        for tok in value.split(","):
            try:
                yield float.fromhex(tok) if "0x" in tok.lower() else float(tok)
            except ValueError:
                yield tok
    else:
        yield value


def largest_relative_change(old, new):
    """max |new - old| / max(|old|, |new|) over the numbers of two values of
    one shape; inf where the shapes or a non-number leaf differ."""
    a, b = list(_numbers(old)), list(_numbers(new))
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (x != x and y != y):
            continue
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v) for v in (x, y)):
            return math.inf
        worst = max(worst, abs(y - x) / max(abs(x), abs(y)))
    return worst


def report(changes):
    """Print each (label, old, new) triple that differs with its largest
    relative change, then how many differ."""
    count = 0
    for label, old, new in changes:
        if old != new:
            print(f"{label}: largest relative change {largest_relative_change(old, new):.3g}")
            count += 1
    print(f"{count} changed")
