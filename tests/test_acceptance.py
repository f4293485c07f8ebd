"""End to end acceptance gate, one test per release criterion.

Each test prints a single summary line on success and fails with a
full list of offending cases otherwise.  Together they cover the
catalog round trip, the Milnor number against an independent brute
force oracle, the double core leading ideals and Milnor jump, type
and parameter recovery under coordinate changes, the rejection
paths, and bytewise determinism of the sample harness.
"""

import json
import random
from fractions import Fraction

import pytest

from arnoldnf.catalog import display_name, instantiate
from arnoldnf.classify import classify
from arnoldnf.cli import (
    _harness_rows,
    _row_germ,
    _row_values,
    _run_sample,
    _sample_germ,
    main,
)
from arnoldnf.errors import Rejection
from arnoldnf.localalg import jacobian_leading_exponents, milnor_number
from arnoldnf.poly import SparsePoly, parse_poly
from milnor_oracle import brute_milnor

SEED = 20260822

V = ("x", "y")


def test_criterion_1_catalog_round_trip():
    """Classifying an instantiated normal form returns its own family
    name and the exact parameter values it was built from."""
    rng = random.Random(SEED)
    rows = _harness_rows()
    failures = []
    for key, indices in rows:
        values = _row_values(key, indices, rng)
        name = display_name(key, indices)
        label = f"{name} {sorted(values.items())}"
        try:
            r = classify(instantiate(key, indices, values))
        except Exception as exc:
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if r.name != name:
            failures.append(f"{label}: classified as {r.name}")
            continue
        got = {pname for pname, _ in r.parameters}
        if not set(values) <= got:
            failures.append(f"{label}: parameters {sorted(got)} missing some names")
            continue
        for pname, value in r.parameters:
            want = values.get(pname)
            if want is not None and value != want:
                failures.append(f"{label}: {pname} came back {value}, wanted {want}")
    assert not failures, " | ".join(failures)
    print(f"criterion 1 catalog round trip: PASS "
          f"({len(rows)} rows, exact names and parameters)")


_SIMPLE_GERMS = [
    "x^2+y^2",
    "x^3+y^2",
    "x^4+y^2",
    "x^5+y^2",
    "x^6+y^2",
    "x^2*y+y^3",
    "x^2*y+y^4",
    "x^2*y+y^5",
    "x^2*y+y^6",
    "x^3+y^4",
    "x^3+x*y^3",
    "x^3+y^5",
]

_EXTRA_GERMS = [
    ("X_9", (9,), {"a": Fraction(1)}),
    ("J_10", (10,), {"a": Fraction(2)}),
    ("E_12", (12,), {"a": Fraction(1)}),
    ("Z_11", (11,), {"a": Fraction(-1, 2)}),
    ("W_12", (12,), {"a": Fraction(1, 3)}),
    ("J_10+k", (11,), {"a": Fraction(1)}),
    ("Y_r,s", (5, 5), {"a": Fraction(1)}),
    ("W#_1,2q-1", (1, 1), {"a0": Fraction(1), "a1": Fraction(1)}),
]

_BRIESKORN = [(2, 5), (3, 4), (3, 7), (4, 5), (4, 7), (5, 6), (2, 9), (6, 7)]


def test_criterion_2_milnor_against_brute_force():
    """The standard basis Milnor number agrees with a truncated linear
    algebra dimension count, and hits (a-1)(b-1) on x^a + y^b."""
    germs = [parse_poly(text, V) for text in _SIMPLE_GERMS]
    germs += [instantiate(key, indices, values)
              for key, indices, values in _EXTRA_GERMS]
    assert len(germs) >= 20
    for f in germs:
        expected = brute_milnor(f)
        assert expected is not None
        assert milnor_number(f) == expected, f"disagrees on {f}"
    for a, b in _BRIESKORN:
        f = SparsePoly.build(V, {(a, 0): 1, (0, b): 1})
        assert milnor_number(f) == (a - 1) * (b - 1)
    print(f"criterion 2 milnor oracle: PASS ({len(germs)} brute force "
          f"matches, {len(_BRIESKORN)} staircase values)")


def test_criterion_3_double_core_leading_ideals():
    """Minimal leading exponents of the Jacobian of a double core germ,
    under the weighted order with weights (3, 2).

    With even Milnor number mu the generators are x^3, x^2*y^2 and
    y^((mu-2)/2); with odd mu the pure power moves up to y^((mu+1)/2)
    and x*y^((mu-5)/2) joins.  Either staircase encloses exactly mu
    monomials."""
    cases = 0
    failures = []
    for q in (1, 2, 3, 4):
        for key, sub, mu in (
            ("W#_1,2q-1", 2 * q - 1, 14 + 2 * q),
            ("W#_1,2q", 2 * q, 15 + 2 * q),
        ):
            for a0, a1 in ((Fraction(1), Fraction(0)),
                           (Fraction(-2), Fraction(3))):
                f = instantiate(key, (1, sub), {"a0": a0, "a1": a1})
                les = set(jacobian_leading_exponents(f, (3, 2)))
                if mu % 2 == 0:
                    want = {(3, 0), (2, 2), (0, (mu - 2) // 2)}
                else:
                    want = {(3, 0), (2, 2),
                            (1, (mu - 5) // 2), (0, (mu + 1) // 2)}
                cases += 1
                if les != want:
                    failures.append(
                        f"{display_name(key, (1, sub))} a0={a0} a1={a1}: "
                        f"got {sorted(les)}, wanted {sorted(want)}"
                    )
    assert not failures, " | ".join(failures)
    print(f"criterion 3 double core leading ideals: PASS "
          f"({cases} ideals, both parities, q = 1..4)")


_JUMP_PALETTE = [Fraction(n) for n in (1, -1, 2, -2, 3)]
_JUMP_PALETTE += [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]


def _line_points(d):
    return [
        (i, (12 + d - 3 * i) // 2)
        for i in range((12 + d) // 3 + 1)
        if (12 + d - 3 * i) % 2 == 0
    ]


def _core_plus(ws):
    f = SparsePoly.build(V, {(2, 0): 1, (0, 3): 1}) ** 2
    for exps, c in sorted(ws.items()):
        if c:
            f = f + SparsePoly.monomial(V, exps, c)
    return f


def _signed_sum(ws):
    return sum((-1) ** (i // 2) * w for (i, _), w in ws.items())


def test_criterion_4_double_core_milnor_jump():
    """Perturbing (x^2+y^3)^2 along the line 3i+2j = 12+d gives Milnor
    number exactly 15+d when the signed coefficient sum is nonzero,
    and a strictly larger (possibly infinite) value when it cancels."""
    rng = random.Random(SEED + 4)
    equal_cases = jump_cases = 0
    for d in (1, 2, 3, 4):
        pts = _line_points(d)
        for case in ("nonzero", "zero"):
            for _ in range(4):
                ws = {pt: rng.choice(_JUMP_PALETTE) for pt in pts}
                if case == "zero":
                    i = pts[-1][0]
                    ws[pts[-1]] -= Fraction((-1) ** (i // 2)) * _signed_sum(ws)
                elif _signed_sum(ws) == 0:
                    ws[pts[0]] += 1
                signed = _signed_sum(ws)
                mu = milnor_number(_core_plus(ws))
                label = f"d={d} ws={sorted(ws.items())}"
                if case == "nonzero":
                    assert signed != 0
                    assert mu == 15 + d, f"{label}: mu={mu}, wanted {15 + d}"
                    equal_cases += 1
                else:
                    assert signed == 0
                    assert mu is None or mu > 15 + d, \
                        f"{label}: mu={mu} did not jump past {15 + d}"
                    jump_cases += 1
    assert equal_cases >= 10 and jump_cases >= 10
    print(f"criterion 4 double core milnor jump: PASS ({equal_cases} "
          f"equality instances, {jump_cases} jump instances)")


def test_criterion_5_invariance_under_coordinate_changes():
    """Five random linear changes per catalog row preserve the type;
    five random tangent to identity changes preserve the type and the
    exact parameter values."""
    rng = random.Random(SEED + 5)
    rows = _harness_rows()
    linear_n = tangent_n = 0
    failures = []
    for key, indices in rows:
        values = _row_values(key, indices, rng)
        name = display_name(key, indices)
        f0 = _row_germ(key, indices, values)
        base = classify(f0)
        assert base.name == name
        bound = base.mu + 2
        for kind, count in (("linear", 5), ("tangent", 5)):
            for _ in range(count):
                g = _sample_germ(f0, kind, rng, bound)
                rec = _run_sample(g, kind, name, values)
                if kind == "linear":
                    linear_n += 1
                    if not rec["type_ok"]:
                        failures.append(
                            f"{name} linear: "
                            + rec.get("error", "type mismatch")
                        )
                else:
                    tangent_n += 1
                    if not (rec["type_ok"] and rec["parameters_ok"]):
                        detail = rec.get(
                            "error",
                            "; ".join(rec.get("mismatches", ["type mismatch"])),
                        )
                        failures.append(f"{name} tangent: {detail}")
    assert not failures, "confluence failures: " + " | ".join(failures)
    print(f"criterion 5 invariance: PASS ({linear_n} linear type "
          f"recoveries, {tangent_n} tangent parameter recoveries)")


def test_criterion_6_rejections(capsys):
    """Germs outside the catalog are rejected with the right reason
    and the command exits with status 2."""
    cases = (
        ("x^5+y^6", "modality>2", "modality > 2"),
        ("x^2*y^2", "non-isolated", "non-isolated singularity"),
        ("x^3+y^3+z^3", "corank>2", "corank > 2"),
    )
    for text, reason, display in cases:
        with pytest.raises(Rejection) as exc:
            classify(parse_poly(text))
        assert exc.value.reason == reason
        assert main([text]) == 2
        out = capsys.readouterr().out
        assert f"rejected: {display}" in out
        assert main(["--json", text]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["rejected_reason"] == reason
    print("criterion 6 rejections: PASS (zero low jet, non-isolated, "
          "high corank; exit status 2)")


def test_criterion_7_harness_determinism(capsys):
    """Two full harness runs with one seed emit byte identical JSON."""
    argv = ["harness", "--seed", "1", "--count", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    report = json.loads(first)
    totals = report["totals"]
    assert totals["type_recovered"] == totals["samples"]
    assert totals["parameters_recovered"] == totals["parameter_samples"]
    print(f"criterion 7 determinism: PASS (two identical "
          f"{totals['samples']} sample reports, {len(first)} bytes)")
