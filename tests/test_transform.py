import importlib
from fractions import Fraction

import pytest

from arnoldnf.catalog import instantiate, moduli_positions
from arnoldnf.classify import classify
from arnoldnf.errors import PipelineError
from arnoldnf.localalg import (
    _monomials_with_pdeg_at_most,
    milnor_number,
    mono_mul,
)
from arnoldnf.poly import (
    SparsePoly,
    as_weights,
    diff,
    drop_above,
    parse_poly,
    poly_order,
    substitute,
    term_sort_key,
    weight_value,
    wlayer,
)
from arnoldnf.scalars import QQ, adjoin_root, approximate, from_rational
from arnoldnf.transform import (
    absorb_above,
    apply_linear,
    clear_level,
    even_quartic_form,
    expose_end,
    graded_ladder,
    kill_face_middle,
    normalize_double_core,
    rescale_to_unit,
    shear,
    split_germ,
    straighten_jet,
)
from milnor_oracle import brute_milnor

# the package exports the classify function under the module's name
classify_module = importlib.import_module("arnoldnf.classify")
transform_module = importlib.import_module("arnoldnf.transform")


def P(text, vars=("x", "y")):
    return parse_poly(text, vars)


def B(terms):
    return SparsePoly.build(("x", "y"), terms)


# -- splitting off the quadratic part --------------------------------


def test_split_full_rank():
    res = split_germ(P("x^2+y^2"))
    assert res.corank == 0
    assert res.rank == 2
    assert res.mu == 1


def test_split_corank_one_degenerate_square():
    res = split_germ(P("x^2+2*x*y+y^2+x^4"))
    assert res.corank == 1
    assert res.mu == 3


def test_split_corank_two_residual_exact():
    res = split_germ(P("z^2+x^3+x*y^3", ("x", "y", "z")))
    assert res.corank == 2
    assert res.rank == 1
    assert res.residual.vars == ("x", "y")
    assert (res.residual - P("y^3+x^3*y")).is_zero()
    assert res.mu == 7
    assert brute_milnor(P("y^3+x^3*y")) == 7


def test_split_five_variables():
    res = split_germ(P("a^2+b^2+c^2+u^3+v^4", ("a", "b", "c", "u", "v")))
    assert res.corank == 2
    assert (res.residual - P("x^3+y^4")).is_zero()
    assert res.mu == 6


def test_split_corank_three_stops():
    res = split_germ(P("x^3+y^3+z^3", ("x", "y", "z")))
    assert res.corank == 3
    assert res.residual is None
    assert res.mu is None


def test_split_non_isolated():
    res = split_germ(P("x^2+2*x*y+y^2"))
    assert res.corank == 1
    assert res.mu is None


def test_split_non_isolated_corank_two_residual():
    # the residual is x^2*y^2 times a unit, so the line x = 0 is
    # critical; the Milnor count at each bound stops at that bound
    res = split_germ(P("x^2+x*y*z^2+x^3*z+y^2*z^2", ("x", "y", "z")))
    assert res.corank == 2
    assert res.mu is None


# -- straightening the lowest jet ------------------------------------


def test_straighten_cube():
    g2, kind = straighten_jet(P("(x+y)^3+y^4"), 3, 12)
    assert kind == "cube"
    assert (g2 - P("x^3+y^4")).is_zero()


def test_straighten_square_line():
    g2, kind = straighten_jet(P("x^3+x^2*y+y^5"), 3, 12)
    assert kind == "square-line"
    assert wlayer(g2, (1, 1), 3).terms == {(2, 1): 1}


def test_straighten_three_lines_rational_root():
    g2, kind = straighten_jet(P("x^3+y^3+x^2*y^2"), 3, 12)
    assert kind == "three-lines"
    jet = wlayer(g2, (1, 1), 3)
    assert jet.coeff((2, 1)) == 3
    assert jet.coeff((0, 3)) == Fraction(1, 4)
    assert set(jet.terms) == {(2, 1), (0, 3)}


def test_straighten_three_lines_radical_root():
    g2, kind = straighten_jet(P("x^3+3*x*y^2+y^3+y^4"), 3, 12)
    assert kind == "three-lines"
    jet = wlayer(g2, (1, 1), 3)
    assert set(jet.terms) == {(2, 1), (0, 3)}
    assert not jet.coeff((2, 1)).is_zero()
    assert not jet.coeff((0, 3)).is_zero()


def test_straighten_fourth_power():
    g2, kind = straighten_jet(P("(x+2*y)^4+y^5"), 4, 12)
    assert kind == "fourth-power"
    assert wlayer(g2, (1, 1), 4).terms == {(4, 0): 1}


def test_straighten_cube_line():
    g2, kind = straighten_jet(P("x^4+x^3*y+y^5"), 4, 12)
    assert kind == "cube-line"
    assert wlayer(g2, (1, 1), 4).terms == {(3, 1): 1}


def test_straighten_two_double_lines_rational():
    g2, kind = straighten_jet(P("(x^2-y^2)^2+y^5"), 4, 12)
    assert kind == "two-double-lines"
    assert wlayer(g2, (1, 1), 4).terms == {(2, 2): 1}


def test_straighten_two_double_lines_radical():
    g2, kind = straighten_jet(P("(x^2+2*y^2)^2+x^5"), 4, 12)
    assert kind == "two-double-lines"
    jet = wlayer(g2, (1, 1), 4)
    assert set(jet.terms) == {(2, 2)}
    assert jet.coeff((2, 2)) == 1


def test_straighten_double_line_plus_pair():
    g2, kind = straighten_jet(P("x^4+x^3*y+x^2*y^2+y^5"), 4, 12)
    assert kind == "double-plus-two"
    jet = wlayer(g2, (1, 1), 4)
    assert jet.coeff((4, 0)) == Fraction(3, 4)
    assert jet.coeff((2, 2)) == 1
    assert set(jet.terms) == {(4, 0), (2, 2)}


def test_straighten_four_distinct_untouched():
    f = P("x^4+x^3*y+y^4")
    g2, kind = straighten_jet(f, 4, 12)
    assert kind == "four-distinct"
    assert (g2 - f).is_zero()


def test_apply_linear_swap():
    f = apply_linear(P("x^3+y^5"), [[0, 1], [1, 0]])
    assert f.terms == {(0, 3): 1, (5, 0): 1}


# -- emptying one graded level ---------------------------------------


def test_clear_level_corner_shear():
    f = P("x^4-2*x^3*y+x^2*y^2+y^5")
    weights = ((6, 4), (5, 5))
    allowed = {(4, 0), (2, 2), (0, 5)}
    f2 = clear_level(f, weights, 20, allowed, 12)
    assert f2 is not None
    assert (wlayer(f2, weights, 20) - P("x^2*y^2+y^5")).is_zero()


def test_clear_level_second_order_feedback():
    f = P("x^3+x^2*y^2+3*x*y^5+y^8")
    weights = ((9, 3), (8, 4))
    allowed = {(3, 0), (2, 2), (0, 8)}
    f2 = clear_level(f, weights, 24, allowed, 14)
    assert f2 is not None
    expected = B({(3, 0): 1, (2, 2): 1, (0, 8): Fraction(-5, 4)})
    assert (wlayer(f2, weights, 24) - expected).is_zero()


def test_clear_level_already_clean():
    f = P("x^3+x^2*y^2+y^8")
    f2 = clear_level(f, ((9, 3), (8, 4)), 24, {(3, 0), (2, 2), (0, 8)}, 14)
    assert (f2 - f).is_zero()


# -- the layer ladder ------------------------------------------------


def test_ladder_no_work_needed():
    f = P("x^3+2*y^7+x*y^5")
    f2 = graded_ladder(f, ((7, 3),), 21, 22, [(1, 5)])
    assert (f2 - f).is_zero()


def test_ladder_shears_one_layer():
    f = P("x^3+x*y^5+x^2*y^3")
    f2 = graded_ladder(f, ((5, 2),), 15, 16, [(0, 8)])
    expected = B({(3, 0): 1, (1, 5): 1, (0, 8): Fraction(-1, 3)})
    assert (f2 - expected).is_zero()


# -- one shear routine -----------------------------------------------


def _substituted(f, v1, v2, truncation):
    """f(x - v1, y - v2) by substitution, the reference for shear."""
    x = SparsePoly.variable(f.vars, "x")
    y = SparsePoly.variable(f.vars, "y")
    return substitute(f, {"x": x - v1, "y": y - v2}, truncation=truncation)


@pytest.mark.parametrize(
    "f, v1, v2, truncation",
    [
        # ordinary cut; x^5*y^4 already lies past it
        ("x^3+x*y^4-2*x^2*y^2+y^6+x^5*y^4", "1/2*y^2-x*y", "3*x^2+y^3",
         ((1, 1), 8)),
        # one weight, as graded_ladder cuts
        ("x^3+y^7+x*y^5+x^2*y^4", "2*y^3-x*y^2", "x*y+1/3*x^2", ((7, 3), 30)),
        # two piece weight, as a corner grading
        ("x^3+x^2*y^2+y^8+x*y^6", "y^4-x*y^2", "1/3*x^2+x*y^3",
         (((9, 3), (8, 4)), 40)),
        # a linear part, like the 23/54*x of the second layer shear
        # absorb_above makes for x^3+x^2*y^3+y^10+x^3*y
        ("x^3+x^2*y^3+y^10+x^3*y", "x*y^2-2*y^4", "23/54*x+y^2",
         ((1, 1), 12)),
    ],
)
def test_shear_matches_substitute(f, v1, v2, truncation):
    f, v1, v2 = P(f), P(v1), P(v2)
    assert shear(f, v1, v2, truncation) == _substituted(f, v1, v2, truncation)


def test_shear_over_a_radical_tower():
    _, r = adjoin_root(QQ, 2, from_rational(2))
    f = P("x^3+x*y^4") + B({(0, 5): r, (2, 2): 1 + r})
    v1 = B({(0, 2): r, (1, 1): Fraction(1, 3)})
    v2 = B({(2, 0): 1 - r})
    truncation = ((1, 1), 9)
    got = shear(f, v1, v2, truncation)
    assert not all(c.is_rational() for c in got.terms.values())
    assert got == _substituted(f, v1, v2, truncation)


def test_shear_without_parts_returns_f():
    # x^5*y^5 lies past the bound, so any truncation would show
    f = P("x^3+y^9+x^5*y^5")
    zero = SparsePoly.zero(f.vars)
    assert shear(f, zero, zero, ((1, 1), 6)) is f


# -- exact absorption above a corner level ---------------------------

J_CORNER_WEIGHTS = ((63, 18), (60, 20))


def test_absorb_above_no_stray_terms():
    f = P("x^3+x^2*y^3+y^10+2*y^11")
    f2 = absorb_above(f, J_CORNER_WEIGHTS, 180, [(0, 11)], 19)
    assert (f2 - f).is_zero()


def test_absorb_above_cross_level_residue():
    # x^3*y sits at weighted degree 200 but reduces against the
    # Jacobian of x^3+x^2*y^3+y^10 with residue (20/9)*y^11 at 198,
    # so the absorbed tail shifts the lower modulus position
    f = P("x^3+x^2*y^3+y^10+2*y^11") + B({(3, 1): Fraction(9, 10)})
    f2 = absorb_above(f, J_CORNER_WEIGHTS, 180, [(0, 11)], 19)
    assert f2.coeff((3, 1)).is_zero()
    assert f2.coeff((0, 11)) == 4
    assert (wlayer(f2, J_CORNER_WEIGHTS, 180) - P("x^3+x^2*y^3+y^10")).is_zero()


def test_absorb_above_ideal_member_vanishes():
    f = P("x^3+x^2*y^3+y^10+2*y^11+5*y^12")
    f2 = absorb_above(f, J_CORNER_WEIGHTS, 180, [(0, 11)], 19)
    assert f2.coeff((0, 12)).is_zero()
    assert f2.coeff((0, 11)) == 2


def _eager_column_safe(var_index, u, j, weights, allowed):
    step = tuple(c - (1 if k == var_index else 0) for k, c in enumerate(u))
    for m in allowed:
        p = m
        for _ in range(m[var_index]):
            p = tuple(a + b for a, b in zip(p, step))
            if p in allowed:
                break
            if weight_value(weights, p) <= j:
                return False
    return True


def _eager_layer_shear(layer, candidates, weights, j, allowed):
    """Reference elimination: every safe column is formed and reduced
    on every layer before the layer itself is reduced."""
    vars = layer.vars
    zero = from_rational(0)
    pivots = {}
    for e in sorted(allowed):
        pivots[e] = (SparsePoly.monomial(vars, e, 1), {})

    def reduce_column(col, combo):
        while not col.is_zero():
            e = min(col.terms, key=term_sort_key)
            entry = pivots.get(e)
            if entry is None:
                pivots[e] = (col, combo)
                return
            base, base_combo = entry
            c = col.coeff(e) / base.coeff(e)
            col = col - mono_mul(base, (0, 0), c)
            for tag, value in base_combo.items():
                combo[tag] = combo.get(tag, zero) - c * value

    for _, var_index, u, prod in candidates:
        if _eager_column_safe(var_index, u, j, weights, allowed):
            reduce_column(prod, {(var_index, u): from_rational(1)})
    s = layer
    combo = {}
    while not s.is_zero():
        e = min(s.terms, key=term_sort_key)
        base, base_combo = pivots[e]
        c = s.coeff(e) / base.coeff(e)
        s = s - mono_mul(base, (0, 0), c)
        for tag, value in base_combo.items():
            combo[tag] = combo.get(tag, zero) + c * value
    v1 = SparsePoly.zero(vars)
    v2 = SparsePoly.zero(vars)
    for (var_index, u), value in sorted(combo.items()):
        if value.is_zero():
            continue
        mono = SparsePoly.monomial(vars, u, value)
        if var_index == 0:
            v1 = v1 + mono
        else:
            v2 = v2 + mono
    return v1, v2


def _eager_absorb_above(f, weights, level, allowed, bound):
    """absorb_above with every column product formed up front and the
    whole table eliminated again on each layer; returns the germ and
    the shears it applied."""
    weights = as_weights(weights)
    ordinary = as_weights((1, 1))
    cut = bound - 1
    f = drop_above(f, ordinary, cut)
    f0 = wlayer(f, weights, level)
    allowed = {tuple(e) for e in allowed}
    partials = (diff(f0, 0), diff(f0, 1))
    candidates = []
    for var_index in (0, 1):
        if partials[var_index].is_zero():
            continue
        for u in _monomials_with_pdeg_at_most(ordinary, cut):
            prod = drop_above(mono_mul(partials[var_index], u, 1), ordinary, cut)
            if prod.is_zero() or poly_order(prod, weights) <= level:
                continue
            low = term_sort_key(min(prod.terms, key=term_sort_key))
            candidates.append((low, var_index, u, prod))
    candidates.sort(key=lambda item: (item[0], item[1], item[2]))
    shears = []
    for _ in range(300):
        stray = {
            e: c
            for e, c in f.terms.items()
            if weight_value(weights, e) > level and e not in allowed
        }
        if not stray:
            return f, shears
        j = min(weight_value(weights, e) for e in stray)
        layer = SparsePoly.build(
            f.vars,
            {e: c for e, c in stray.items() if weight_value(weights, e) == j},
        )
        v1, v2 = _eager_layer_shear(layer, candidates, weights, j, allowed)
        shears.append((v1, v2))
        f = shear(f, v1, v2, (ordinary, cut))
    raise AssertionError("eager absorption did not settle")


def _absorb_calls(monkeypatch, g):
    """Classify g and return, for each absorb_above call, its arguments,
    its result and the shears it applied."""
    calls = []
    shears = []

    def recording_shear(f, v1, v2, truncation):
        shears.append((v1, v2))
        return shear(f, v1, v2, truncation)

    def recording_absorb(*args):
        shears.clear()
        result = absorb_above(*args)
        calls.append((args, result, list(shears)))
        return result

    monkeypatch.setattr(transform_module, "shear", recording_shear)
    monkeypatch.setattr(classify_module, "absorb_above", recording_absorb)
    return classify(g), calls


@pytest.mark.parametrize(
    "key, indices, image, columns",
    [
        ("J_3,p", (3, 1), ("x", "x+x^3"), [1] * 7),
        ("Z_1,p", (1, 1), ("x", "x+x^3"), [1] * 6),
        ("W_1,p", (1, 1), ("x", "x+x^3"), [1] * 6),
        ("Y_r,s", (5, 5), ("x", "x+x^3"), [1, 1, 1, 5]),
        ("Y_r,s", (6, 6), ("x", "x+x^3"), [1, 1, 1, 1, 5]),
        # 48 layers, on which the table drops columns that turn unsafe
        ("J_3,p", (3, 2), ("y", "y+x^2"), None),
    ],
)
def test_absorb_above_matches_eager_elimination(
    monkeypatch, key, indices, image, columns
):
    # the image of the normal form under a tangent to identity change
    # leaves a tail that absorb_above clears layer by layer; each
    # layer's shear must equal the one the eager table gives, term for
    # term
    values = {name: 2 for name, _ in moduli_positions(key, indices)}
    f0 = instantiate(key, indices, values)
    var, text = image
    g = substitute(f0, {var: P(text)}, truncation=((1, 1), 30))
    r, calls = _absorb_calls(monkeypatch, g)
    assert [(n, v) for n, v in r.parameters] == [(n, 2) for n in values]
    assert len(calls) == 1
    args, result, shears = calls[0]
    want, want_shears = _eager_absorb_above(*args)
    if columns is not None:
        assert [len(v1.terms) + len(v2.terms) for v1, v2 in shears] == columns
    assert shears and shears == want_shears
    assert result == want


def test_absorb_above_plans_nothing_without_stray_terms(monkeypatch):
    # the J_3,68 normal form has no term above its corner level, so
    # absorb_above must hand it back before planning a column box of
    # ordinary degree 83
    def no_table(*args):
        raise AssertionError("a column table was planned")

    monkeypatch.setattr(transform_module, "_ColumnTable", no_table)
    g = P("x^3+x^2*y^3+y^77")
    r, calls = _absorb_calls(monkeypatch, g)
    assert (r.name, r.mu) == ("J_3,68", 84)
    assert dict(r.parameters) == {"a0": 1, "a1": 0}
    assert len(calls) == 1
    args, result, shears = calls[0]
    assert result == args[0] == g
    assert shears == []


# -- rescaling marked coefficients to one ----------------------------


def test_rescale_radical_modulus():
    f = P("x^3+2*y^7+x*y^5")
    f2 = rescale_to_unit(f, [(3, 0), (0, 7)])
    assert f2.coeff((3, 0)) == 1
    assert f2.coeff((0, 7)) == 1
    assert approximate(f2.coeff((1, 5)), 5) == "0.60950"


def test_rescale_two_mixed_monomials():
    f = P("2*x^3*y+3*x*y^4+5*x^2*y^3")
    f2 = rescale_to_unit(f, [(3, 1), (1, 4)])
    assert f2.coeff((3, 1)) == 1
    assert f2.coeff((1, 4)) == 1
    t = (2.0 / 27.0) ** (1.0 / 11.0)
    s = (1.0 / (2.0 * t)) ** (1.0 / 3.0)
    got = float(approximate(f2.coeff((2, 3)), 10))
    assert abs(got - 5.0 * s * s * t ** 3) < 1e-8


def test_rescale_with_axis_monomial():
    f = P("4*x^2*y+9*y^4")
    f2 = rescale_to_unit(f, [(2, 1), (0, 4)])
    assert f2.coeff((2, 1)) == 1
    assert f2.coeff((0, 4)) == 1


def test_rescale_rejects_pure_y_pair():
    f = P("y^3+y^5")
    with pytest.raises(PipelineError):
        rescale_to_unit(f, [(0, 3), (0, 5)])


def test_rescale_rejects_dependent_pair():
    f = P("x*y^2+3*x^2*y^4")
    with pytest.raises(PipelineError):
        rescale_to_unit(f, [(1, 2), (2, 4)])


# -- pre-normalization of a four point face --------------------------


def test_kill_face_middle_rational_shift():
    f = P("x^3-3*x*y^4+y^6")
    f2 = kill_face_middle(f, (3, 0), (2, 2), (1, 4), 2, 12)
    assert (f2 - P("x^3+3*x^2*y^2-y^6")).is_zero()


def test_kill_face_middle_radical_shift():
    f = P("x^3+x^2*y^2+x*y^4+y^6")
    f2 = kill_face_middle(f, (3, 0), (2, 2), (1, 4), 2, 12)
    assert f2.coeff((1, 4)).is_zero()
    assert f2.coeff((3, 0)) == 1
    assert not f2.coeff((0, 6)).is_zero()


def test_kill_face_middle_no_op():
    f = P("x^3+x^2*y^2+y^6")
    f2 = kill_face_middle(f, (3, 0), (2, 2), (1, 4), 2, 12)
    assert (f2 - f).is_zero()


@pytest.mark.parametrize("shift", ["2", "-2", "1/2", "-1/2"])
@pytest.mark.parametrize(
    "text, power, bound, name, moduli",
    [
        ("x^3-x^2*y^2+y^6", 2, 12, "J_10", {"a": Fraction(-1)}),
        (
            "x^3-2*x^2*y^3+y^9+3/2*x*y^7",
            3,
            18,
            "J_3,0",
            {"b": Fraction(-2), "c": Fraction(3, 2)},
        ),
        (
            "x^3*y-x^2*y^3+3/2*x*y^6+y^7",
            2,
            17,
            "Z_1,0",
            {"d": Fraction(-1), "c": Fraction(3, 2)},
        ),
    ],
)
def test_kill_face_middle_ignores_a_face_shift(
    text, power, bound, name, moduli, shift
):
    # x -> x + c*y**power moves both critical points of the face cubic
    # alike; the normal form must come back with the same moduli
    image = P(f"x + ({shift})*y^{power}")
    g = substitute(P(text), {"x": image}, truncation=((1, 1), bound))
    r = classify(g)
    assert r.name == name
    assert {n: v.as_fraction() for n, v in r.parameters} == moduli


# -- even quartic reduction ------------------------------------------


def test_even_quartic_fixed_point():
    f = P("x^4+3*x^2*y^2+y^4")
    f2 = even_quartic_form(f, 11)
    assert (f2 - f).is_zero()


def test_even_quartic_general_jet():
    f = P("x^4+x^3*y+y^4")
    f2 = even_quartic_form(f, 11)
    jet = wlayer(f2, (1, 1), 4)
    assert set(jet.terms) <= {(4, 0), (2, 2), (0, 4)}
    assert not jet.coeff((4, 0)).is_zero()
    assert not jet.coeff((0, 4)).is_zero()
    assert milnor_number(f) == 9
    assert milnor_number(f2) == 9


def test_even_quartic_missing_ends():
    f = P("x^3*y+x*y^3")
    assert brute_milnor(f) == 9
    f2 = even_quartic_form(f, 11)
    jet = wlayer(f2, (1, 1), 4)
    assert set(jet.terms) <= {(4, 0), (2, 2), (0, 4)}
    assert not jet.coeff((4, 0)).is_zero()
    assert not jet.coeff((0, 4)).is_zero()
    assert milnor_number(f2) == 9


def test_expose_end_skips_the_roots_of_the_end():
    # y -> y + lam*x puts lam*(1-lam)*(1+lam)*(1+2*lam) on x^4, which
    # lam = 1 and lam = -1 both zero
    g = P("y*(x-y)*(x+y)*(x+2*y)")
    g2, lam = expose_end(g, wlayer(g, (1, 1), 4), 1, (1, 0), 11)
    assert lam == 2
    assert g2 == substitute(g, {"y": P("y+2*x")}, truncation=((1, 1), 11))
    jet = wlayer(even_quartic_form(g, 11), (1, 1), 4)
    assert set(jet.terms) == {(4, 0), (2, 2), (0, 4)}


# -- germs built on a double core ------------------------------------


def test_double_core_even_index():
    f = P("x^4+2*x^2*y^3+y^6+x*y^5")
    assert milnor_number(f) == 16
    res = normalize_double_core(f, 16)
    assert res.index == 1
    assert res.monomial0 == (1, 5)
    assert res.monomial1 == (1, 6)
    assert res.a0 == 1
    assert res.a1.is_zero()


def test_double_core_odd_index():
    # y^7 = y^4*(x^2+y^3) - x^2*y^4, so the gauge peel y -> y - y^2/6
    # converts the tail; its second order effect and the cross term on
    # y^7 leave (1/6)*y^5*(x^2+y^3) + (1/12)*y^8 on the next layer
    f = P("x^4+2*x^2*y^3+y^6+y^7+y^8")
    assert milnor_number(f) == 17
    res = normalize_double_core(f, 17)
    assert res.index == 2
    assert res.monomial0 == (2, 4)
    assert res.monomial1 == (2, 5)
    assert res.a0 == -1
    assert res.a1 == Fraction(-1, 12)


def test_double_core_catalog_gauge_round_trips():
    nf = B({(2, 0): 1, (0, 3): 1}) ** 2
    nf = nf + SparsePoly.monomial(("x", "y"), (2, 4), Fraction(-2))
    nf = nf + SparsePoly.monomial(("x", "y"), (2, 5), Fraction(1))
    res = normalize_double_core(nf, 17)
    assert res.a0 == -2
    assert res.a1 == 1


def test_double_core_flow_is_canonical():
    f = P("x^4+2*x^2*y^3+y^6+x*y^5+y^7")
    assert milnor_number(f) == 16
    res = normalize_double_core(f, 16)
    assert res.a0 == 1
    nf = B({(2, 0): 1, (0, 3): 1}) ** 2
    nf = nf + SparsePoly.monomial(("x", "y"), res.monomial0, res.a0)
    nf = nf + SparsePoly.monomial(("x", "y"), res.monomial1, res.a1)
    res2 = normalize_double_core(nf, 16)
    assert res2.a0 == res.a0
    assert res2.a1 == res.a1


def test_double_core_coordinate_invariance():
    from arnoldnf.poly import substitute

    f = P("x^4+2*x^2*y^3+y^6+x*y^5+y^7")
    image = P("x+y^3")
    g = substitute(f, {"x": image})
    assert milnor_number(g) == 16
    res = normalize_double_core(f, 16)
    res2 = normalize_double_core(g, 16)
    assert res2.a0 == res.a0
    assert res2.a1 == res.a1


def test_double_core_rescales_the_square():
    f = P("x^4+4*x^2*y^3+4*y^6+y^7")
    assert milnor_number(f) == 17
    res = normalize_double_core(f, 17)
    assert res.index == 2
    assert res.a0 ** 6 == Fraction(1, 4 ** 7)
    assert abs(float(approximate(res.a0, 8)) + 4.0 ** (-7.0 / 6.0)) < 1e-6


def test_double_core_rejects_non_square_jet():
    f = P("x^4+x^2*y^3+y^6+x*y^5")
    with pytest.raises(PipelineError):
        normalize_double_core(f, 16)
