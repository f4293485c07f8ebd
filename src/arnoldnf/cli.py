"""Command line front end.

Two modes: classify one germ given as a polynomial string, or run the
round trip harness over the whole catalog.  Classification prints the
family name, the normal form, the exact moduli with decimal
approximations, and the Milnor number; with --json the same data goes
out as one machine-readable line.  The exit status tells the outcomes
apart (see `main`).

The decimals are truncated toward zero and proven by integer interval
enclosures of the tower values (`scalars.approximate`), with one
exception: a real or imaginary part that equals a nonzero decimal of
the printed length but is not known exactly prints that decimal once
its enclosure has been refined past a top precision.
"""

import argparse
import functools
import json
import random
import sys
import time
from fractions import Fraction

from .catalog import FAMILIES, FAMILY, display_name, instantiate
from .classify import classify
from .errors import ParseError, PipelineError, Rejection
from .poly import SparsePoly, parse_poly, substitute
from .scalars import (
    QQ,
    approximate,
    format_scalar,
    format_tower,
    monomial_text,
    scalar_payload,
    signed_sum,
    term_text,
    tower_of,
)
from .transform import apply_linear

_REASON_TEXT = {
    "modality>2": "modality > 2",
    "corank>2": "corank > 2",
    "non-isolated": "non-isolated singularity",
}


# -- rendering a result ----------------------------------------------


def _part_vars(parts):
    arity = max((len(e) for _, e in parts if e is not None), default=2)
    return ("x", "y")[:arity]


def _form_text(parts, coeff):
    """The normal form's text, `coeff(label)` the coefficient of each
    part; a part whose coefficient is 0 is left out."""
    vars = _part_vars(parts)
    chunks = []
    for label, exps in parts:
        if label == "core":
            chunks.append("(x^2+y^3)^2")
        elif (c := coeff(label)) != 0:
            chunks.append(term_text(c, monomial_text(vars, exps)))
    return signed_sum(chunks)


def normal_form_string(parts):
    """Normal form with parameter names left symbolic."""
    return _form_text(parts, lambda label: label)


def equation_string(result):
    """Normal form with the parameter values filled in, parseable by
    the input grammar; None when some value leaves the rationals."""
    values = {1: 1}
    for name, value in result.parameters:
        if tower_of(value) is not QQ:
            return None
        values[name] = value
    return _form_text(result.parts, values.__getitem__)


def result_payload(result, digits, with_trace):
    payload = {
        "type": result.name,
        "indices": list(result.indices),
        "normal_form": normal_form_string(result.parts),
        "parameters": [
            {"name": name, **scalar_payload(value, digits)}
            for name, value in result.parameters
        ],
        "mu": result.mu,
        "modality": result.modality,
    }
    equation = equation_string(result)
    if equation is not None:
        payload["normal_form_equation"] = equation
    if with_trace:
        payload["trace"] = list(result.trace)
    return payload


def _print_result(result, digits, with_trace):
    print(f"type: {result.name}")
    print(f"normal form: {normal_form_string(result.parts)}")
    legend = {}
    for name, value in result.parameters:
        print(f"{name} = {format_scalar(value)} ~ {approximate(value, digits)}")
        for line in format_tower(tower_of(value)):
            legend[line] = None
    for line in legend:
        print(f"  {line}")
    print(f"mu = {result.mu}")
    if with_trace:
        print("steps:")
        for line in result.trace:
            print(f"  {line}")


# -- the classify command --------------------------------------------


def run_classify(ns):
    vars = None
    if ns.vars:
        vars = tuple(v for v in map(str.strip, ns.vars.split(",")) if v)
    try:
        f = parse_poly(ns.poly, vars)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"classify: error: {exc}", file=sys.stderr)
        return 1
    try:
        result = classify(f)
    except Rejection as exc:
        if ns.json:
            payload = {"rejected_reason": exc.reason}
            if exc.detail:
                payload["detail"] = exc.detail
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"rejected: {_REASON_TEXT[exc.reason]}")
            if exc.detail:
                print(f"  {exc.detail}")
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if ns.json:
        print(json.dumps(result_payload(result, ns.digits, ns.steps), sort_keys=True))
    else:
        _print_result(result, ns.digits, ns.steps)
    return 0


# -- the harness command ---------------------------------------------


def _harness_rows():
    return [(fam.key, indices) for fam in FAMILIES for indices in fam.samples]


_PALETTE = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
]


def _row_values(key, indices, rng):
    fam = FAMILY[key]
    values = {}
    for i, (name, _) in enumerate(fam.moduli(*indices)):
        pool = list(_PALETTE) + [Fraction(0)]
        if i == 0 and fam.restriction is not None:
            # keep the sampled germ on its family's open stratum
            pool = [c for c in pool if fam.restriction(c) != 0]
        values[name] = rng.choice(pool)
    return values


def _row_germ(key, indices, values):
    f = instantiate(key, indices, values)
    if len(f.vars) == 1:
        terms = {(e, 0): c for (e,), c in f.terms.items()}
        f = SparsePoly.build(("x", "y"), {**terms, (0, 2): 1})
    return f


def _linear_rows(rng):
    while True:
        rows = (
            (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))),
            (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))),
        )
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] != 0:
            return rows


_TANGENT_EXPS = [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
_TANGENT_COEFFS = [
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(2),
]


def _tangent_images(rng):
    images = {}
    for var in ("x", "y"):
        img = SparsePoly.variable(("x", "y"), var)
        for _ in range(rng.randint(1, 2)):
            exps = rng.choice(_TANGENT_EXPS)
            img = img + SparsePoly.monomial(
                ("x", "y"), exps, rng.choice(_TANGENT_COEFFS)
            )
        images[var] = img
    return images


def _sample_germ(f0, kind, rng, bound):
    """f0 under a linear or tangent change drawn from rng, cut at `bound`."""
    if kind == "linear":
        return apply_linear(f0, _linear_rows(rng), bound)
    return substitute(f0, _tangent_images(rng), truncation=((1, 1), bound))


def _harness_draws(rows, count, rng):
    """Yield (key, indices, values, germs) per row in the harness's rng
    order: the moduli values, then a change for each of the count - 1
    samples after the base germ, linear and tangent by turns; `germs`
    lists (kind, germ), the images cut at mu + 2."""
    for key, indices in rows:
        values = _row_values(key, indices, rng)
        f0 = _row_germ(key, indices, values)
        bound = FAMILY[key].mu(*indices) + 2
        germs = [("identity", f0)]
        for i in range(1, count):
            kind = "linear" if i % 2 else "tangent"
            germs.append((kind, _sample_germ(f0, kind, rng, bound)))
        yield key, indices, values, germs


def _run_sample(g, kind, row_name, values):
    record = {"transform": kind}
    try:
        r = classify(g)
    except Exception as exc:
        record["type_ok"] = False
        record["parameters_ok"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["type_ok"] = r.name == row_name
    params_ok = record["type_ok"]
    for name, value in r.parameters:
        want = values.get(name)
        if want is None:
            continue
        if value != want:
            params_ok = False
            record.setdefault("mismatches", []).append(
                f"{name}={format_scalar(value)} expected {want}"
            )
    record["parameters_ok"] = params_ok
    return record


def run_harness(ns):
    rng = random.Random(ns.seed)
    rows = _harness_rows()
    if ns.types:
        wanted = [t for t in ns.types.split(";") if t]
        rows = [
            (key, indices)
            for key, indices in rows
            if any(
                display_name(key, indices).startswith(w) or key.startswith(w)
                for w in wanted
            )
        ]
    report_rows = []
    totals = {
        "samples": 0,
        "type_recovered": 0,
        "parameter_samples": 0,
        "parameters_recovered": 0,
    }
    started = time.monotonic()
    for key, indices, values, germs in _harness_draws(rows, ns.count, rng):
        name = display_name(key, indices)
        samples = [_run_sample(g, kind, name, values) for kind, g in germs]
        report_rows.append(
            {
                "type": name,
                "indices": list(indices),
                "values": {n: str(v) for n, v in sorted(values.items())},
                "samples": samples,
            }
        )
        totals["samples"] += len(samples)
        totals["type_recovered"] += sum(1 for s in samples if s["type_ok"])
        # linear changes may swap a normal form for an equivalent gauge
        # with flipped parameter signs, so only shape preserving samples
        # count toward parameter recovery
        totals["parameter_samples"] += sum(
            1 for s in samples if s["transform"] != "linear"
        )
        totals["parameters_recovered"] += sum(
            1
            for s in samples
            if s["transform"] != "linear" and s["parameters_ok"]
        )
    elapsed = time.monotonic() - started
    report = {
        "seed": ns.seed,
        "count": ns.count,
        "rows": report_rows,
        "totals": totals,
    }
    print(json.dumps(report, sort_keys=True))
    print(
        f"harness: {totals['samples']} classifications, "
        f"{totals['type_recovered']}/{totals['samples']} type matches, "
        f"{totals['parameters_recovered']}/{totals['parameter_samples']} "
        f"parameter matches outside linear changes, "
        f"{elapsed:.2f} s",
        file=sys.stderr,
    )
    return 0


# -- argument handling -----------------------------------------------


# the most approximation digits a classification prints; far more would
# pass the interpreter's limit on converting integers to decimal strings
MAX_DIGITS = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _classify_parser():
    parser = _Parser(
        prog="classify",
        description="Classify an isolated plane curve germ over the rationals.",
    )
    parser.add_argument("poly", help="polynomial string, e.g. 'x^3+x*y^5'")
    parser.add_argument("--json", action="store_true", help="one line of JSON")
    parser.add_argument(
        "--steps", action="store_true", help="include the reduction steps"
    )
    parser.add_argument(
        "--digits",
        type=int,
        default=8,
        help=f"approximation digits, 1 to {MAX_DIGITS} (default 8)",
    )
    parser.add_argument(
        "--vars", help="comma separated variable names (default: from the input)"
    )
    return parser


@functools.cache
def _harness_parser():
    parser = _Parser(
        prog="classify harness",
        description="Round trip the catalog through random coordinate changes.",
    )
    parser.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
    parser.add_argument(
        "--count", type=int, default=3, help="samples per row (default 3)"
    )
    parser.add_argument(
        "--types",
        help="semicolon separated name prefixes, e.g. 'E_12;W#' (default: all)",
    )
    return parser


# classify options that take a value, so that a value such as
# "--digits -3" is not read as a germ
_VALUE_OPTIONS = ("--digits", "--vars")


def _germ_behind_dashes(argv):
    """argv with a germ that starts with a minus sign, such as
    "-x^3+y^4", moved behind "--" so that argparse reads it as the germ
    and not as an unknown option.  A germ is any argument before "--"
    that starts with a single "-", is not "-" or "-h" and is no option's
    value; long options, abbreviated or not, stay as they are."""
    takes_value = False
    for k, arg in enumerate(argv):
        if arg == "--":
            break
        if takes_value:
            takes_value = False
        elif arg.startswith("--"):
            takes_value = "=" not in arg and any(
                o.startswith(arg) for o in _VALUE_OPTIONS
            )
        elif arg.startswith("-") and arg not in ("-", "-h"):
            return argv[:k] + argv[k + 1:] + ["--", arg]
    return argv


def _parse_args(parser, argv):
    try:
        return parser.parse_args(argv), None
    except SystemExit as exc:
        return None, int(exc.code or 0)


def main(argv=None):
    """Run `classify` or `classify harness` on argv; return the exit status.

    0: the germ is classified (or the harness ran); 1: unusable input,
    a usage error, a parse error, or a corank two residual past the size
    limit of `classify` (an exponent of 2^20, or a standard basis degree
    of 2^19); 2: the germ lies outside the covered range and is rejected;
    3: an internal error, a step of the classifier broke its own
    invariant.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "harness":
        ns, code = _parse_args(_harness_parser(), argv[1:])
        if ns is None:
            return code
        if ns.count < 1:
            print("classify harness: error: count must be positive", file=sys.stderr)
            return 1
        return run_harness(ns)
    ns, code = _parse_args(_classify_parser(), _germ_behind_dashes(argv))
    if ns is None:
        return code
    if ns.digits < 1:
        print("classify: error: digits must be positive", file=sys.stderr)
        return 1
    if ns.digits > MAX_DIGITS:
        print(f"classify: error: digits must be at most {MAX_DIGITS}", file=sys.stderr)
        return 1
    return run_classify(ns)


if __name__ == "__main__":
    sys.exit(main())
