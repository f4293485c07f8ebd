"""The germs `classify harness` draws, for tests that count work.

Each catalog row gives its base germ with moduli drawn from the
harness palette, then a linear and a tangent image of it cut where the
harness cuts them, at mu + 2.  The draws follow `cli.run_harness` with
`--count 3` for the given seed.
"""

import random

from arnoldnf import cli
from arnoldnf.poly import substitute
from arnoldnf.transform import apply_linear, split_germ


def harness_germs(seed=1, keys=None):
    """Yield (key, germ) for each base germ and its two images; with
    `keys`, only the rows of those families, drawn as in the full run."""
    rng = random.Random(seed)
    for key, indices in cli._harness_rows():
        values = cli._row_values(key, indices, rng)
        f0 = cli._row_germ(key, indices, values)
        bound = split_germ(f0).mu + 2
        linear = cli._linear_rows(rng)
        tangent = cli._tangent_images(rng)
        if keys is not None and key not in keys:
            continue
        yield key, f0
        yield key, apply_linear(f0, linear, bound)
        yield key, substitute(f0, tangent, truncation=((1, 1), bound))
