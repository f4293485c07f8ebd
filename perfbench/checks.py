"""Checks made apart from the classifier.

`certify` runs at set-up on the inputs and confirms what each operation
expects: the brute force Milnor number of `tests/milnor_oracle.py` on the
catalog normal forms, a common factor of the partials through the origin
for non-isolated germs, and the rank of the Hessian for the corank.
`check_answer` compares one `classify --json` answer with the expectation,
and `self_test` confirms that it refuses wrong answers.
"""

import json
from fractions import Fraction

import sympy as sp

from invariants import evaluate, invariant_holds


class _Rational(Fraction):
    def as_fraction(self):
        return Fraction(self)


class _OracleInput:
    """The two attributes `brute_milnor` reads from a polynomial."""

    def __init__(self, poly):
        self.terms = {e: _Rational(str(c)) for e, c in poly.terms()}


def _parse(text):
    expr = sp.sympify(text.replace("^", "**"))
    gens = sorted(expr.free_symbols, key=str)
    return expr, gens


def _hessian_corank(expr, gens):
    at0 = {g: 0 for g in gens}
    hess = sp.hessian(expr, gens).subs(at0)
    return len(gens) - hess.rank()


def _partials_share_factor_at_origin(expr, gens):
    fx, fy = (sp.diff(expr, g) for g in gens)
    common = sp.gcd(fx, fy)
    return common.free_symbols != set() and common.subs({g: 0 for g in gens}) == 0


def certify(ops, brute_milnor):
    """Raise ValueError when an input does not have the property its
    expectation rests on."""
    for op in ops:
        expect = op["expect"]
        expr, gens = _parse(op["poly"])
        reason = expect.get("reject")
        if reason == "corank>2":
            if _hessian_corank(expr, gens) <= 2:
                raise ValueError(f"{op['id']}: Hessian corank is not above two")
        elif reason == "non-isolated":
            if len(gens) != 2 or not _partials_share_factor_at_origin(expr, gens):
                raise ValueError(f"{op['id']}: partials share no factor through 0")
        elif reason == "modality>2":
            # the family is known by construction; rule out the other reasons
            if _hessian_corank(expr, gens) != 2:
                raise ValueError(f"{op['id']}: corank is not two")
            if _partials_share_factor_at_origin(expr, gens):
                raise ValueError(f"{op['id']}: germ is not isolated")
        if op.get("oracle_mu"):
            mu = brute_milnor(_OracleInput(sp.Poly(expr, *sp.symbols("x y"))))
            if mu != expect["mu"]:
                raise ValueError(
                    f"{op['id']}: oracle Milnor number {mu}, expected {expect['mu']}"
                )


def check_answer(op, code, text):
    """None when the answer is right, else a short note on what is wrong."""
    expect = op["expect"]
    try:
        payload = json.loads(text)
    except ValueError:
        return f"exit {code}, output is not JSON: {text[:80]!r}"
    reason = expect.get("reject")
    if reason is not None:
        got = payload.get("rejected_reason")
        if code != 2 or got != reason:
            return f"expected rejection {reason}, got exit {code} {got or payload.get('type')}"
        return None
    if code != 0:
        return f"expected {expect['type']}, got exit {code} {payload.get('rejected_reason')}"
    if payload.get("type") != expect["type"]:
        return f"expected {expect['type']}, got {payload.get('type')}"
    if payload.get("mu") != expect["mu"]:
        return f"expected mu {expect['mu']}, got {payload.get('mu')}"
    params = {p["name"]: p for p in payload.get("parameters", [])}
    for name, want in expect.get("params", {}).items():
        p = params.get(name)
        if p is None:
            return f"modulus {name} missing"
        if p["tower"] or Fraction(p["coeffs"][0]) != Fraction(want):
            return f"modulus {name} = {p['approx']}, expected {want}"
    for spec in expect.get("invariants", []):
        p = params.get(spec["param"])
        if p is None:
            return f"modulus {spec['param']} missing"
        if spec["kind"] == "zero":
            if any(Fraction(c) for c in p["coeffs"]):
                return f"modulus {spec['param']} = {p['approx']}, expected 0"
        elif not invariant_holds(spec, evaluate(p)):
            return f"modulus {spec['param']} = {p['approx']} fails {spec['kind']} invariant {spec['value']}"
    return None


# -- self-test --------------------------------------------------------


def _mutations(op, code, payload):
    """Wrong answers derived from a right one."""
    expect = op["expect"]
    if "reject" in expect:
        for other in ("non-isolated", "modality>2", "corank>2"):
            if other != expect["reject"]:
                yield "wrong rejection reason", code, dict(payload, rejected_reason=other)
        yield "classified instead of rejected", 0, {"type": "A_1", "mu": 1, "parameters": []}
        return
    yield "wrong family", code, dict(payload, type=payload["type"] + "0")
    yield "wrong Milnor number", code, dict(payload, mu=payload["mu"] + 1)
    yield "rejected instead of classified", 2, {"rejected_reason": "modality>2"}
    for i, p in enumerate(payload.get("parameters", [])):
        checked = p["name"] in expect.get("params", {}) or any(
            s["param"] == p["name"] for s in expect.get("invariants", [])
        )
        if not checked:
            continue
        bent = dict(p, coeffs=list(p["coeffs"]))
        bent["coeffs"][0] = str(Fraction(bent["coeffs"][0]) + Fraction(1, 7))
        params = list(payload["parameters"])
        params[i] = bent
        yield f"perturbed modulus {p['name']}", code, dict(payload, parameters=params)


def self_test(ops, answers):
    """Feed each check wrong answers made from the first right answer of
    every kind it handles; return the kinds of check that accepted one."""
    seen = set()
    leaks = []
    for op, (code, text) in zip(ops, answers):
        expect = op["expect"]
        kind = (
            "reject" if "reject" in expect
            else "invariant" if "invariants" in expect
            else "params" if expect.get("params")
            else "type"
        )
        if kind in seen or check_answer(op, code, text) is not None:
            continue
        seen.add(kind)
        for what, bad_code, bad in _mutations(op, code, json.loads(text)):
            if check_answer(op, bad_code, json.dumps(bad)) is None:
                leaks.append(f"{kind} check accepts a {what} ({op['id']})")
    return leaks
