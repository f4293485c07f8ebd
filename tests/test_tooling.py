"""The benchmark tracer wraps classifier functions by name.

`perfbench/tracer.py` looks each name in ENTRY_POINTS up with getattr
when a traced run starts, so renaming or deleting one of them breaks
`perfbench/run.py --trace 1` without failing any classifier test.  This
loads the tracer by path and checks every name, then runs it once on a
germ whose reduction works over a radical tower.  The last test counts
the standard basis completions behind one classification.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from arnoldnf import localalg
from arnoldnf.catalog import instantiate
from arnoldnf.classify import classify
from arnoldnf.poly import parse_poly, substitute
from arnoldnf.transform import split_germ

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
