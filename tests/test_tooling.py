"""The benchmark tracer wraps classifier functions by name.

`perfbench/tracer.py` looks each name in ENTRY_POINTS up with getattr
when a traced run starts, so renaming or deleting one of them breaks
`perfbench/run.py --trace 1` without failing any classifier test.  This
loads the tracer by path and checks every name, then runs it once on a
germ whose reduction works over a radical tower.  Later tests count
the standard basis completions and substitutions behind the splitting
of a germ, the field divisions behind rational factoring, the layer
walks behind a double core germ and the classifications of one harness
run.  Three hold the seed-1 harness germs to their golden files, once
as polynomials and once as printed strings, and the germs of the seed-1
benchmark corpora to theirs; the last runs the Tier-1 slice of the
index sweep.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from arnoldnf import cli, localalg, newton, transform
from arnoldnf.catalog import instantiate
from arnoldnf.classify import classify
from arnoldnf.poly import parse_poly, poly_order, substitute
from arnoldnf.scalars import QQ, adjoin_root
from arnoldnf.transform import split_germ
from harness_samples import (
    CORPUS_GOLDEN,
    GOLDEN,
    STRINGS_GOLDEN,
    corpus_golden_lines,
    harness_germs,
    harness_golden_lines,
    strings_golden_lines,
)
from index_sweep import SLICE, UNSETTLED, sweep

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arnoldnf"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_tracer_entry_points_resolve():
    missing = []
    for short, names in _entry_points().items():
        module = importlib.import_module(f"arnoldnf.{short}")
        missing += [
            f"{short}.{name}"
            for name in names
            if not callable(getattr(module, name, None))
        ]
    assert not missing, missing
    scalars = importlib.import_module("arnoldnf.scalars")
    assert callable(scalars.AlgebraicScalar.inverted)


def test_tracer_entry_points_are_called():
    # a per-layer metric must time a function the classifier still
    # calls: every traced name appears as the callee of some call in
    # the package, by name or as an attribute
    called = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    called.add(func.id)
                elif isinstance(func, ast.Attribute):
                    called.add(func.attr)
    idle = [
        f"{short}.{name}"
        for short, names in _entry_points().items()
        for name in names
        if name not in called
    ]
    assert not idle, idle


TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
import arnoldnf.cli as cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["--json", "--", sys.argv[2]])
print(json.dumps({
    "code": code,
    "type": json.loads(out.getvalue())["type"],
    "tower_mul": tracer.tower_mul,
    "calls": dict(tracer.calls),
    "tower_degree_max": tracer.tower_degree_max,
}))
"""


def test_tracer_counts_tower_arithmetic():
    # The tracer replaces AlgebraicScalar.__mul__/__rmul__ and .inverted
    # and reads the degree of what adjoin_root returns; it installs itself
    # on the classes, so it runs in its own interpreter.  The face cubic
    # x^3 - 2/3*x*Y^2 + Y^3, Y = y^2, has its critical points in Q(sqrt 2).
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACER), "x^3-2/3*x*y^4+y^6"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert (seen["code"], seen["type"]) == (0, "J_10")
    assert seen["tower_mul"] > 0
    assert seen["calls"].get("scalars.inverted", 0) > 0
    assert seen["calls"].get("scalars.adjoin_root", 0) > 0
    assert seen["tower_degree_max"] >= 2


MODULUS_RUN = """
import contextlib, io, sys
from arnoldnf import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["--json", "--", sys.argv[1]])
print(code, "mpmath" in sys.modules, out.getvalue().strip())
"""


def test_tower_modulus_prints_without_mpmath():
    # the package has no runtime dependency: the decimals of a modulus
    # in Q(sqrt 3) come from integer enclosures, and nothing imports
    # mpmath on the way
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", MODULUS_RUN, "3*x^4-x^2*y^2+y^4"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    code, loaded, payload = done.stdout.strip().split(" ", 2)
    assert code == "0"
    (param,) = json.loads(payload)["parameters"]
    assert param["tower"] and param["approx"] == "-0.57735026"
    assert loaded == "False"


def test_determinacy_cut_costs_no_extra_standard_basis(monkeypatch):
    # classify cuts the corank two reduction at the determinacy degree
    # that split_germ reads off its own Milnor count; no second Mora
    # completion may run for it
    f0 = instantiate("J_3,p", (3, 1), {"a0": 2, "a1": 2})
    g = substitute(f0, {"x": parse_poly("x+x^3", ("x", "y"))}, truncation=((1, 1), 30))
    calls = []
    basis = localalg._basis

    def counting_basis(*args, **kwargs):
        calls.append(1)
        return basis(*args, **kwargs)

    monkeypatch.setattr(localalg, "_basis", counting_basis)
    split = split_germ(g)
    splitting = len(calls)
    calls.clear()
    r = classify(g)
    assert (r.name, split.determinacy) == ("J_3,1", 13)
    assert splitting > 0
    assert len(calls) == splitting


def test_split_germ_counts_one_milnor_number_from_its_first_cap(monkeypatch):
    # the splitting accepts the first bound whose Milnor count certifies,
    # so an isolated corank two germ is counted once, and the cap ladder
    # starts at 2*ord - 2, the lowest cap that can certify
    counts = []
    basis, milnor = localalg._basis, localalg.milnor_number

    def recording_basis(gens, order, cap=None):
        counts[-1][1].append(cap)
        return basis(gens, order, cap)

    def recording_milnor(f, *args, **kwargs):
        counts.append((poly_order(f, (1, 1)), []))
        return milnor(f, *args, **kwargs)

    monkeypatch.setattr(localalg, "_basis", recording_basis)
    monkeypatch.setattr(transform, "milnor_number", recording_milnor)
    corank_two = 0
    for key, g in harness_germs():
        counts.clear()
        split = split_germ(g)
        assert split.mu is not None, (key, g)
        if split.corank != 2:
            assert counts == [], (key, g)
            continue
        corank_two += 1
        assert len(counts) == 1, (key, g)
        (d, caps), = counts
        assert caps[0] == 2 * d - 2, (key, g)
    assert corank_two == 153


def test_germ_without_quadratic_part_runs_one_milnor_ladder(monkeypatch):
    # with no Morse variable the residual is the germ itself at every
    # bound, so one ladder climbs from 2*ord - 2 to the Bezout cap
    # (d-1)^2 + 2 and decides a non-isolated germ once
    caps = []
    basis = localalg._basis

    def recording_basis(gens, order, cap=None):
        caps.append(cap)
        return basis(gens, order, cap)

    monkeypatch.setattr(localalg, "_basis", recording_basis)
    split = split_germ(parse_poly("x^2*y^2+x^2*y^3", ("x", "y")))
    assert (split.corank, split.mu) == (2, None)
    assert caps == [6, 9, 13, 18]
    caps.clear()
    split = split_germ(parse_poly("2*(x^2+3*y^3)^2", ("x", "y")))
    assert (split.corank, split.mu) == (2, None)
    assert caps == [6, 9, 13, 19, 27]


def test_identity_linear_change_runs_no_substitution(monkeypatch):
    germs = list(harness_germs(keys={"A_k", "J_3,p", "X_9"}))
    calls = []
    substituted = transform.substitute

    def counting_substitute(*args, **kwargs):
        calls.append(1)
        return substituted(*args, **kwargs)

    monkeypatch.setattr(transform, "substitute", counting_substitute)
    one, zero = Fraction(1), Fraction(0)
    for key, g in germs:
        for rows in (((1, 0), (0, 1)), ((one, zero), (zero, one))):
            want = substituted(g, {}, truncation=((1, 1), 9))
            assert transform.apply_linear(g, rows, 9) == want, (key, g)
            assert transform.apply_linear(g, rows) is g
    assert calls == []
    swapped = transform.apply_linear(parse_poly("x^3+y^5", ("x", "y")), ((0, 1), (1, 0)))
    assert swapped == parse_poly("y^3+x^5", ("x", "y"))
    # a general rational change and a 3-variable one are shears too
    half = Fraction(1, 2)
    sheared = transform.apply_linear(
        parse_poly("x^3+y^4", ("x", "y")), ((2, half), (-1, 3))
    )
    assert sheared == parse_poly("(2*x+1/2*y)^3+(3*y-x)^4", ("x", "y"))
    xyz = ("x", "y", "z")
    changed = transform.apply_linear(
        parse_poly("x^2*z+y^3", xyz), ((0, 1, 1), (1, 0, half), (1, -1, 0)), 3
    )
    assert changed == parse_poly("(y+z)^2*(x-y)+(x+1/2*z)^3", xyz)
    assert calls == []


def test_rational_factoring_runs_no_field_division(monkeypatch):
    # every lowest jet and face polynomial of the seed-1 harness germs is
    # rational, and a rational list factors on integers: the field loop
    # of uni_gcd / uni_divmod never runs for them
    calls = []
    divmod_ = newton.uni_divmod

    def counting_divmod(f, g):
        calls.append(1)
        return divmod_(f, g)

    monkeypatch.setattr(newton, "uni_divmod", counting_divmod)
    for key, g in harness_germs():
        classify(g)
    jets = {
        "x^3+y^4": "cube",
        "x^2*y+y^4": "square-line",
        "x^2*y-x*y^2+y^5": "three-lines",
        "(x+2*y)^4+y^5": "fourth-power",
        "x^3*y+y^5": "cube-line",
        "(x^2-2*y^2)^2+x^5": "two-double-lines",
        "x^4-x^2*y^2+y^5": "double-plus-two",
        "x^4+y^4": "four-distinct",
    }
    kinds = {}
    for text, kind in jets.items():
        g = parse_poly(text, ("x", "y"))
        kinds[text] = transform.straighten_jet(g, poly_order(g, (1, 1)), 12)[1]
    assert kinds == jets
    assert calls == []
    # the irreducible double quadratic stays one unsplit block
    jet = parse_poly("(x^2-2*y^2)^2", ("x", "y"))
    assert transform._binary_form_factors(jet, 4) == ([], [([-2, 0, 1], 2)])
    # the count sees the field loop when it does run, over a tower
    _, root = adjoin_root(QQ, 2, Fraction(2))
    newton.uni_yun([2, -2 * root, 1])
    assert calls


def test_double_core_walks_once_without_the_flow(monkeypatch):
    # normalize_double_core reduces a W# germ in one `_absorb` pass, and
    # in a second one only after the flow that fixes the core; of the
    # seed-1 harness germs, each base germ and its tangent image need no
    # flow, and each linear image (6 of 18) does
    passes, flows = [], []
    absorb, flow = transform._absorb, transform._flow_images

    def counting_absorb(*args):
        passes.append(1)
        return absorb(*args)

    def counting_flow(*args):
        flows.append(1)
        return flow(*args)

    monkeypatch.setattr(transform, "_absorb", counting_absorb)
    monkeypatch.setattr(transform, "_flow_images", counting_flow)
    seen = []
    for key, g in harness_germs(keys={"W#_1,2q-1", "W#_1,2q"}):
        passes.clear()
        flows.clear()
        assert classify(g).key == key
        seen.append((len(flows), len(passes)))
    assert seen == [(0, 1), (1, 2), (0, 1)] * 6


def test_harness_classifies_each_sample_once(monkeypatch):
    # the harness reads each row's Milnor number off the catalog, so a
    # seed-1 run with three samples per row classifies 162 germs, once each
    calls = []

    def counting_classify(f):
        calls.append(1)
        return classify(f)

    monkeypatch.setattr(cli, "classify", counting_classify)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["harness", "--seed", "1", "--count", "3"])
    assert json.loads(out.getvalue())["totals"]["samples"] == 162
    assert len(calls) == 162


def test_harness_matches_golden_file():
    # a refactor keeps the harness report and every classification it
    # makes byte for byte; see `harness_samples` before rewriting the file
    want = GOLDEN.read_text().splitlines(keepends=True)
    got = harness_golden_lines()
    assert len(got) == len(want) == 163
    for i, (line, golden) in enumerate(zip(got, want)):
        assert line == golden, f"line {i + 1} of {GOLDEN.name}"


def test_printed_harness_germs_match_golden_file():
    # the harness germs again, each entered as its printed string, so
    # that the parser sits in front of every classification
    want = STRINGS_GOLDEN.read_text().splitlines(keepends=True)
    got = strings_golden_lines()
    assert len(got) == len(want) == 162
    for i, (line, golden) in enumerate(zip(got, want)):
        assert line == golden, f"line {i + 1} of {STRINGS_GOLDEN.name}"


def test_benchmark_corpus_germs_match_golden_file():
    # every distinct germ of the four seed-1 benchmark corpora, with its
    # exit status and `--json --steps --digits 30` output
    want = CORPUS_GOLDEN.read_text().splitlines(keepends=True)
    got = corpus_golden_lines()
    assert len(got) == len(want) == 237
    for i, (line, golden) in enumerate(zip(got, want)):
        assert line == golden, f"line {i + 1} of {CORPUS_GOLDEN.name}"


def test_index_sweep_slice_recovers_every_sample():
    # each series a few indices past the harness, base germs and tangent
    # images, except the corner tangent images that still stop
    counts, failures = sweep(SLICE, budget=10.0, skip=UNSETTLED)
    assert failures == {}
    assert set(counts) == set(SLICE)
    assert sum(c["ok"] for c in counts.values()) == 96
