"""Machine speed probe for scaling measured times.

The CPU speed this benchmark sees drifts by tens of percent within
seconds, as other work on the same host comes and goes (README.md has
the figures).  A fixed pure-Python loop, timed right before and right
after each measured step, tracks that drift closely.  A step's scaled
time is its measured time times REFERENCE_S over the loop's time around
it: the time the step would take on a machine where the loop takes
REFERENCE_S seconds.  The loop imports nothing, so the import timing
that uses it stays clean.
"""

import time

# seconds the loop takes on an undisturbed core of the reference machine
REFERENCE_S = 0.0015


def _loop():
    table = {}
    a, b = 1, 1
    for i in range(5000):
        a, b = b, (a * 3 + b) % 1000003
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + a * b
    return len(table)


def calibrate():
    """Seconds one pass of the fixed loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """`seconds` measured between calibrations `before` and `after`, at
    reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
