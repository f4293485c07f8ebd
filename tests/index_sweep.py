"""A seeded sweep of the catalog series past the indices the harness
samples.

For each index of `GRID` the sweep draws `VALUES` value sets, seeded by
`SEED`, as the harness draws them (`cli._row_values`, then a tangent
image through `cli._sample_germ`, cut at mu + 2), and classifies the
base germ and that image, each under a wall-clock budget of `BUDGET`
seconds.  A sample is ok when the family and every drawn modulus come
back, wrong when another answer or a rejection does, an error when the
classifier raises, and over budget when the alarm ends it first.  Per
series it prints the four counts, then every failing germ as a string.

    PYTHONPATH=src python tests/index_sweep.py

`SLICE` is the part of the grid that runs in Tier-1, within 10 s: every
series, at a few indices past the harness, without the tangent images of
the series in `UNSETTLED`, whose reduction still stops on them.
"""

import random
import signal
from collections import Counter

from arnoldnf import cli
from arnoldnf.catalog import FAMILY, display_name
from arnoldnf.poly import poly_str

SEED = 1
VALUES = 3
BUDGET = 2.0


def _w_sharp(i):
    return ("W#_1,2q" if i % 2 == 0 else "W#_1,2q-1", (1, i))


# series -> the (key, indices) rows it sweeps
GRID = {
    "A_k": [("A_k", (k,)) for k in (10, 20, 40)],
    "D_k": [("D_k", (k,)) for k in (10, 20, 40)],
    "J_10+k": [("J_10+k", (n,)) for n in range(14, 31)],
    "X_9+k": [("X_9+k", (n,)) for n in range(13, 31)],
    "Y_r,s": [("Y_r,s", (r, s)) for r in range(7, 13) for s in (5, r)],
    "J_3,p": [("J_3,p", (3, p)) for p in range(4, 31, 2)],
    "Z_1,p": [("Z_1,p", (1, p)) for p in range(4, 31, 2)],
    "W_1,p": [("W_1,p", (1, p)) for p in range(4, 31, 2)],
    "W#_1,i": [_w_sharp(i) for i in range(7, 27)],
}

SLICE = {
    "A_k": [("A_k", (20,)), ("A_k", (40,))],
    "D_k": [("D_k", (20,)), ("D_k", (40,))],
    "J_10+k": [("J_10+k", (16,)), ("J_10+k", (20,))],
    "X_9+k": [("X_9+k", (16,)), ("X_9+k", (20,))],
    "Y_r,s": [("Y_r,s", (9, 7)), ("Y_r,s", (12, 12))],
    "J_3,p": [("J_3,p", (3, 10)), ("J_3,p", (3, 30))],
    "Z_1,p": [("Z_1,p", (1, 10)), ("Z_1,p", (1, 30))],
    "W_1,p": [("W_1,p", (1, 10)), ("W_1,p", (1, 30))],
    "W#_1,i": [_w_sharp(7), _w_sharp(8), _w_sharp(12)],
}

UNSETTLED = {"J_3,p", "Z_1,p", "W_1,p"}


def samples(grid):
    """Yield (series, name, kind, values, germ) over the grid: per
    index, `VALUES` draws of the moduli, each giving the base germ and
    its tangent image."""
    rng = random.Random(SEED)
    for series, rows in grid.items():
        for key, indices in rows:
            name = display_name(key, indices)
            bound = FAMILY[key].mu(*indices) + 2
            for _ in range(VALUES):
                drawn = cli._row_values(key, indices, rng)
                f0 = cli._row_germ(key, indices, drawn)
                yield series, name, "identity", drawn, f0
                g = cli._sample_germ(f0, "tangent", rng, bound)
                yield series, name, "tangent", drawn, g


class OverBudget(BaseException):
    """Raised by the alarm.  Not an Exception, so `cli._run_sample`,
    which records every classifier exception, lets it through."""


def _alarm(signum, frame):
    raise OverBudget


def outcome(g, kind, name, values, budget):
    """(outcome, detail) of one sample under a budget in seconds."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        record = cli._run_sample(g, kind, name, values)
    except OverBudget:
        return "over-budget", f"over {budget} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    error = record.get("error")
    if error is not None:
        return ("wrong" if error.startswith("Rejection") else "error"), error
    if record["type_ok"] and record["parameters_ok"]:
        return "ok", ""
    return "wrong", "; ".join(record.get("mismatches", ["another family"]))


def sweep(grid, budget, skip):
    """Per series, the Counter of outcomes and the failures as (name,
    kind, detail, germ string); the tangent images of the series in
    `skip` are drawn but not run."""
    counts, failures = {}, {}
    for series, name, kind, drawn, g in samples(grid):
        if kind == "tangent" and series in skip:
            continue
        result, detail = outcome(g, kind, name, drawn, budget)
        counts.setdefault(series, Counter())[result] += 1
        if result != "ok":
            failures.setdefault(series, []).append((name, kind, detail, poly_str(g)))
    return counts, failures


def main():
    counts, failures = sweep(GRID, BUDGET, ())
    for series, seen in counts.items():
        tally = "  ".join(f"{k} {seen[k]}" for k in ("ok", "wrong", "error", "over-budget"))
        print(f"{series}: {tally}")
        for name, kind, detail, text in failures.get(series, []):
            print(f"  {name} {kind}: {detail}: {text}")


if __name__ == "__main__":
    main()
