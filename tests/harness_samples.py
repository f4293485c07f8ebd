"""The germs `classify harness` draws, for tests that count work.

Each catalog row gives its base germ with moduli drawn from the
harness palette, then a linear and a tangent image of it cut where the
harness cuts them, at mu + 2.  The draws come from `cli._harness_draws`,
as in `classify harness --count 3` for the given seed.

`harness_golden_lines` records what `classify harness` prints and what
each of its classifications returns.  `tests/golden/harness_seed1.jsonl`
holds them for seed 1, and a tooling test compares them byte for byte.
Those germs never pass through `parse_poly`; `strings_golden_lines`
sends each one through the command line as its printed string, and
`tests/golden/strings_seed1.jsonl` holds that output for seed 1.
`corpus_golden_lines` does the same for each distinct germ of the four
seed-1 benchmark corpora, read from `perfbench/corpus.py`, with its
exit status, and `tests/golden/corpus_seed1.jsonl` holds them.
Rewrite the files with `PYTHONPATH=src python tests/harness_samples.py`
only together with a CHANGES.md line that explains the change.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

from arnoldnf import cli
from arnoldnf.poly import poly_str
from arnoldnf.scalars import QQ, tower_of


def harness_germs(seed=1, keys=None):
    """Yield (key, germ) for each base germ and its two images; with
    `keys`, only the rows of those families, drawn as in the full run."""
    draws = cli._harness_draws(cli._harness_rows(), 3, random.Random(seed))
    for key, _, _, germs in draws:
        if keys is None or key in keys:
            yield from ((key, g) for _, g in germs)


GOLDEN = Path(__file__).resolve().parent / "golden" / "harness_seed1.jsonl"
STRINGS_GOLDEN = GOLDEN.with_name("strings_seed1.jsonl")
CORPUS_GOLDEN = GOLDEN.with_name("corpus_seed1.jsonl")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def _printed(text):
    """Exit status and stdout of `classify --json --steps --digits 30`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--json", "--steps", "--digits", "30", "--", text])
    return code, out.getvalue()


def strings_golden_lines(seed=1):
    """`classify --json --steps --digits 30` stdout for the printed
    string of each harness germ with rational coefficients."""
    return [
        _printed(poly_str(f))[1]
        for _, f in harness_germs(seed)
        if tower_of(*f.terms.values()) is QQ
    ]


def corpus_germs():
    """The distinct polynomial strings of the four seed-1 benchmark
    corpora, in order of first appearance.  `perfbench/corpus.py` builds
    them with sympy and imports its sibling `invariants`."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
    finally:
        sys.path.remove(str(PERFBENCH))
    polys = [op["poly"] for name in corpus.WORKLOADS for op in corpus.build(name, 1)]
    return list(dict.fromkeys(polys))


def corpus_golden_lines():
    """One JSON line per corpus germ: the string, the exit status and the
    stdout of `classify --json --steps --digits 30`."""
    lines = []
    for text in corpus_germs():
        code, out = _printed(text)
        lines.append(json.dumps({"poly": text, "code": code, "stdout": out}) + "\n")
    return lines


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(harness_golden_lines()))
    STRINGS_GOLDEN.write_text("".join(strings_golden_lines()))
    CORPUS_GOLDEN.write_text("".join(corpus_golden_lines()))
