"""The ``--diff`` report of the golden-file scripts.

``python tests/test_trajectory_golden.py --diff`` and
``python tests/test_cli_golden.py --diff`` compute every case afresh and
print, for each recorded field or line that would change, its largest
relative change, or ``added`` or ``removed`` for a field only one side
has; they write no file.
"""

import math

MISSING = object()  # the value of a field on the side that lacks it


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


def changes(old, new):
    """(label, old value, new value) for each label of either dict, in
    order, with MISSING on the side that lacks it."""
    return [(label, old.get(label, MISSING), new.get(label, MISSING))
            for label in dict.fromkeys([*old, *new])]


def report(triples):
    """Print each (label, old, new) triple that differs with its largest
    relative change, or as added or removed, then how many differ."""
    count = 0
    for label, old, new in triples:
        if old is MISSING:
            print(f"{label}: added")
        elif new is MISSING:
            print(f"{label}: removed")
        elif old != new:
            print(f"{label}: largest relative change {largest_relative_change(old, new):.3g}")
        else:
            continue
        count += 1
    print(f"{count} changed")
