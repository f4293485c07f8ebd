"""The germs `classify harness` draws, for tests that count work.

Each catalog row gives its base germ with moduli drawn from the
harness palette, then a linear and a tangent image of it cut where the
harness cuts them, at mu + 2.  The draws follow `cli.run_harness` with
`--count 3` for the given seed.

`harness_golden_lines` records what `classify harness` prints and what
each of its classifications returns.  `tests/golden/harness_seed1.jsonl`
holds them for seed 1, and a tooling test compares them byte for byte.
Those germs never pass through `parse_poly`; `strings_golden_lines`
sends each one through the command line as its printed string, and
`tests/golden/strings_seed1.jsonl` holds that output for seed 1.
Rewrite both files with `PYTHONPATH=src python tests/harness_samples.py`
only together with a CHANGES.md line that explains the change.
"""

import contextlib
import io
import json
import random
from pathlib import Path

from arnoldnf import cli
from arnoldnf.catalog import FAMILY
from arnoldnf.poly import poly_str, substitute
from arnoldnf.scalars import QQ, tower_of
from arnoldnf.transform import apply_linear


def harness_germs(seed=1, keys=None):
    """Yield (key, germ) for each base germ and its two images; with
    `keys`, only the rows of those families, drawn as in the full run."""
    rng = random.Random(seed)
    for key, indices in cli._harness_rows():
        values = cli._row_values(key, indices, rng)
        f0 = cli._row_germ(key, indices, values)
        bound = FAMILY[key].mu(*indices) + 2
        linear = cli._linear_rows(rng)
        tangent = cli._tangent_images(rng)
        if keys is not None and key not in keys:
            continue
        yield key, f0
        yield key, apply_linear(f0, linear, bound)
        yield key, substitute(f0, tangent, truncation=((1, 1), bound))


GOLDEN = Path(__file__).resolve().parent / "golden" / "harness_seed1.jsonl"
STRINGS_GOLDEN = GOLDEN.with_name("strings_seed1.jsonl")


def harness_golden_lines(seed=1, count=3):
    """The harness stdout line, then one JSON line per classification
    it makes: `cli.result_payload` at 30 digits with the trace, or the
    error it raised."""
    payloads = []
    classify = cli.classify

    def recording_classify(f):
        try:
            r = classify(f)
        except Exception as exc:
            payloads.append({"error": f"{type(exc).__name__}: {exc}"})
            raise
        payloads.append(cli.result_payload(r, 30, True))
        return r

    out = io.StringIO()
    cli.classify = recording_classify
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["harness", "--seed", str(seed), "--count", str(count)])
    finally:
        cli.classify = classify
    return out.getvalue().splitlines(keepends=True) + [
        json.dumps(p, sort_keys=True) + "\n" for p in payloads
    ]


def strings_golden_lines(seed=1):
    """`classify --json --steps --digits 30` stdout for the printed
    string of each harness germ with rational coefficients."""
    lines = []
    for _, f in harness_germs(seed):
        if tower_of(*f.terms.values()) is not QQ:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["--json", "--steps", "--digits", "30", "--", poly_str(f)])
        lines.append(out.getvalue())
    return lines


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(harness_golden_lines()))
    STRINGS_GOLDEN.write_text("".join(strings_golden_lines()))
