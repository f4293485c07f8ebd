import importlib
import itertools
import random
import re
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arnoldnf import cli
from arnoldnf.catalog import (
    FAMILIES,
    FAMILY,
    display_name,
    double_core_family,
    instantiate,
    moduli_positions,
)
from arnoldnf.classify import classify
from arnoldnf.errors import PipelineError
from arnoldnf.localalg import (
    _monomials_with_pdeg_at_most,
    layer_decompose,
    milnor_number,
)
from arnoldnf.poly import (
    SparsePoly,
    as_weights,
    diff,
    parse_poly,
    poly_order,
    substitute,
    term_sort_key,
    weight_value,
    wjet,
    wlayer,
)
from arnoldnf.scalars import (
    QQ,
    AlgebraicScalar,
    adjoin_root,
    approximate,
    tower_of,
)
from arnoldnf.transform import (
    _CODES,
    _ColumnTable,
    _absorb,
    _column_floor,
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
from harness_samples import harness_germs
from milnor_oracle import brute_milnor

# the package exports the classify function under the module's name
classify_module = importlib.import_module("arnoldnf.classify")
transform_module = importlib.import_module("arnoldnf.transform")
poly_module = importlib.import_module("arnoldnf.poly")


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


def test_split_quadratic_part_without_diagonal():
    # x*y has no square to pivot on, so the diagonalization first adds
    # one column to another: x*y = (x + y)^2 / 4 - (x - y)^2 / 4
    f = P("x*y+z^3", ("x", "y", "z"))
    res = split_germ(f)
    assert (res.corank, res.rank, res.mu) == (1, 2, 2)
    assert classify(f).name == "A_2"


@pytest.mark.parametrize(
    "text, name",
    [
        ("x*y", "A_1"),
        ("x*z+y^3", "A_2"),
        ("x*z+y^4+z^5", "A_3"),
        ("2*x*z-y*z+y^4+x^7", "A_3"),
        ("x*y+z*w+v^5", "A_4"),
    ],
)
def test_hyperbolic_quadratic_parts(text, name):
    # every diagonal entry of the first pivot's block is zero, so the
    # diagonalization adds one column to another, and for x*y+z*w+v^5
    # (variables v, w, x, y, z) it then swaps that column into place
    f = parse_poly(text)
    m = transform_module._quadratic_matrix(f)
    change, diagonal, rank = transform_module._diagonalize(m)
    n = len(m)
    congruent = [
        [
            sum(change[a][i] * m[a][b] * change[b][j] for a in range(n) for b in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert congruent == [[diagonal[i] * (i == j) for j in range(n)] for i in range(n)]
    assert all(diagonal[:rank]) and not any(diagonal[rank:])
    r = classify(f)
    assert r.name == name
    assert rank == n - r.corank


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
    assert res.determinacy is None


@pytest.mark.parametrize(
    "text, mu, determinacy",
    [
        ("x^2+y^2", 1, 2),
        ("x^2+y^5", 4, 5),
        # J_3,1, Z_1,1, W_1,1 and Y_5,5: the staircase top plus two,
        # well below mu + 1
        ("x^3+x^2*y^3+y^10+y^11", 17, 13),
        ("x^3*y+x^2*y^3+y^8+y^9", 16, 11),
        ("x^4+x^2*y^3+y^7+y^8", 16, 10),
        ("x^2*y^2+x^5+y^5", 11, 7),
    ],
)
def test_split_reads_determinacy_off_the_milnor_count(text, mu, determinacy):
    res = split_germ(P(text))
    assert (res.mu, res.determinacy) == (mu, determinacy)
    if res.corank == 2:
        assert milnor_number(res.residual, with_top=True) == (mu, determinacy - 2)


def _complete_squares(g, diagonal, rank, bound):
    # the splitting this package ran before the critical graph: one
    # substitution z_i -> z_i - c/(2 d_i) * m per monomial z_i * m off
    # the diagonal squares, kept as a reference
    vars = g.vars
    trunc = ((1,) * len(vars), bound)
    while True:
        offending = [
            e
            for e in g.terms
            if any(e[i] for i in range(rank))
            and not (sum(e) == 2 and any(e[i] == 2 for i in range(rank)))
        ]
        if not offending:
            return g
        target = min(offending, key=term_sort_key)
        i = next(i for i in range(rank) if target[i])
        c = g.coeff(target)
        stem = list(target)
        stem[i] -= 1
        shift = SparsePoly.monomial(vars, stem, c / (2 * diagonal[i]))
        image = SparsePoly.variable(vars, vars[i]) - shift
        g = substitute(g, {vars[i]: image}, truncation=trunc)


def _square_completion_residual(f, bound):
    quadratic = transform_module._quadratic_matrix(f)
    change, diagonal, rank = transform_module._diagonalize(quadratic)
    g = _complete_squares(apply_linear(f, change, bound), diagonal, rank, bound)
    names = ("x", "y")[: len(f.vars) - rank]
    return SparsePoly(
        names, {e[rank:]: c for e, c in g.terms.items() if not any(e[:rank])}
    )


def _graph_residuals(f, bounds):
    # the residual at each bound, the iteration at each bound seeded by
    # the graph of the one before, as split_germ runs it
    quadratic = transform_module._quadratic_matrix(f)
    change, diagonal, rank = transform_module._diagonalize(quadratic)
    g = apply_linear(f, change)
    names = ("x", "y")[: len(f.vars) - rank]
    phi = None
    for bound in bounds:
        residual, phi = transform_module._morse_split(
            g, diagonal, rank, names, bound, phi
        )
        yield bound, residual


def _edge_a_k_germs():
    rng = random.Random(5)
    c = lambda: rng.choice([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)])
    xyz, wxyz = ("x", "y", "z"), ("w", "x", "y", "z")
    for _ in range(2):
        # x^2 + c*y^2 + z^5 + c*x*z^3 + c*y*z^4 + c*x*y*z, and
        # w^2 + x^2 + c*y^2 + z^7 + c*w*z^4 + c*x*y*z + c*y*z^5
        yield SparsePoly.build(xyz, {
            (2, 0, 0): 1, (0, 2, 0): c(), (0, 0, 5): 1,
            (1, 0, 3): c(), (0, 1, 4): c(), (1, 1, 1): c(),
        })
        yield SparsePoly.build(wxyz, {
            (2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): c(), (0, 0, 0, 7): 1,
            (1, 0, 0, 4): c(), (0, 1, 1, 1): c(), (0, 0, 1, 5): c(),
        })
        for k in (20, 79):
            a, b = c(), c()
            yield P(f"(x+{a}*y^2)^2+{b}*y^{k + 1}")


def _random_corank_germs(seed, count):
    # a quadratic form of rank one or two in a random frame of three
    # variables, plus two to four terms of degree three or four
    rng = random.Random(seed)
    vars = ("x", "y", "z")
    coeffs = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3)]
    monos = [
        e for e in itertools.product(range(5), repeat=3) if 3 <= sum(e) <= 4
    ]
    for _ in range(count):
        f = SparsePoly.zero(vars)
        for _ in range(rng.choice((1, 2))):
            axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            line = SparsePoly.build(vars, {e: rng.choice(coeffs) for e in axes})
            f = f + line * line * rng.choice(coeffs)
        tail = rng.sample(monos, rng.randint(2, 4))
        yield f + SparsePoly.build(vars, {e: rng.choice(coeffs) for e in tail})


def test_critical_graph_residual_matches_square_completion():
    # the edge workload's A_k shapes in two to four variables and the
    # harness A_k samples at the first two bounds split_germ tries, the
    # second iteration seeded by the first graph; seeded random germs
    # of three variables at the first bound
    cases = list(_edge_a_k_germs())
    cases += [f for _, f in harness_germs(keys={"A_k"})]
    for f in cases:
        start = max(2 * f.total_degree(), 10)
        for bound, residual in _graph_residuals(f, (start, 2 * start)):
            assert residual == _square_completion_residual(f, bound), (f, bound)
    coranks = []
    for f in _random_corank_germs(11, 12):
        (_, residual), = _graph_residuals(f, (10,))
        assert residual == _square_completion_residual(f, 10), f
        coranks.append(len(residual.vars))
    assert sorted(set(coranks)) == [1, 2]


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
    assert jet.coeff((2, 1))
    assert jet.coeff((0, 3))


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


def test_straighten_lone_line_without_x_coefficient():
    # a factor p*x + q*y framing one axis alone gets the complement
    # (0, 1/p); when p = 0 it is (1, 0) for x, a swap, and (-1/q, 0)
    # for y, which sends x to -x
    g2, kind = straighten_jet(P("y^3+x^4"), 3, 12)
    assert (kind, g2) == ("cube", P("x^3+y^4"))
    g2, kind = straighten_jet(P("x^2*y+y^3+x^5"), 3, 12)
    assert (kind, g2) == ("three-lines", P("x^2*y+y^3-x^5"))


def test_straighten_four_distinct_untouched():
    f = P("x^4+x^3*y+y^4")
    g2, kind = straighten_jet(f, 4, 12)
    assert kind == "four-distinct"
    assert (g2 - f).is_zero()


@pytest.mark.parametrize(
    "text, d, kind",
    [
        ("x^3+y^3+x^2*y^2", 3, "three-lines"),
        ("x^3+3*x*y^2+y^3+y^4", 3, "three-lines"),
        ("x^2*y+y^3+x^5", 3, "three-lines"),
        ("x^4+x^3*y+x^2*y^2+y^5", 4, "double-plus-two"),
    ],
)
def test_straighten_middle_shear_joins_the_linear_change(monkeypatch, text, d, kind):
    # the shear removing the middle term is linear, so it is folded into
    # the framing rows and no substitution of its own runs
    def no_shear(*args):
        raise AssertionError("straighten_jet ran a shear")

    monkeypatch.setattr(transform_module, "shear", no_shear)
    assert straighten_jet(P(text), d, 12)[1] == kind


def test_apply_linear_swap():
    f = apply_linear(P("x^3+y^5"), [[0, 1], [1, 0]])
    assert f.terms == {(0, 3): 1, (5, 0): 1}


def _linear_by_substitution(f, rows, bound=None):
    """apply_linear's earlier route: linear images, then substitute."""
    n = len(f.vars)
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    images = {
        name: SparsePoly.build(f.vars, zip(units, row))
        for name, row in zip(f.vars, rows)
    }
    trunc = ((1,) * n, bound) if bound is not None else None
    return substitute(f, images, truncation=trunc)


def _determinant(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def test_apply_linear_matches_substitution():
    # random germs in 2, 3 and 4 variables under random invertible rows:
    # int and Fraction entries, a zero leading entry that forces the
    # pivot search to permute, and entries in Q(sqrt 2)
    rng = random.Random(27)
    pool = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3), Fraction(3, 4)]
    checked = {"permuted": 0, "tower": 0}
    for case in range(90):
        n = 2 + case % 3
        vars = ("x", "y", "z", "w")[:n]
        terms = {
            tuple(rng.randint(0, 4) for _ in range(n)): Fraction(
                rng.randint(-9, 9), rng.randint(1, 5)
            )
            for _ in range(rng.randint(1, 7))
        }
        tower = case % 4 == 3
        if tower and case % 8 == 3:
            e = next(iter(terms))
            terms[e] = terms[e] * _SQRT2 + 1
        f = SparsePoly.build(vars, terms)
        while True:
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            if case % 2:
                rows[0][0] = 0
            if tower:
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] = rng.randint(1, 3) * _SQRT2 - 1
            if _determinant(rows):
                break
        checked["permuted"] += not rows[0][0]
        checked["tower"] += tower
        for bound in (None, 3, 6):
            want = _linear_by_substitution(f, rows, bound)
            assert apply_linear(f, rows, bound).terms == want.terms, (f, rows, bound)
    assert checked["permuted"] >= 45 and checked["tower"] >= 20


def test_apply_linear_rejects_singular_rows():
    f = P("x^3+y^4")
    for rows in (((1, 1), (1, 1)), ((0, 1), (0, 2)), ((0, 0), (1, 0))):
        with pytest.raises(ValueError, match="singular linear change"):
            apply_linear(f, rows)
    # the third row is the sum of the first two
    g = P("x^3+y^4+z^5", ("x", "y", "z"))
    with pytest.raises(ValueError, match="singular linear change"):
        apply_linear(g, ((1, 0, 1), (0, 1, 1), (1, 1, 2)))


def test_diagonal_tower_change_inverts_no_scalar(monkeypatch):
    # rescale_to_unit applies ((s, 0), (0, t)) with s and t in a tower;
    # no multiplier is formed for a zero entry, so nothing is inverted
    _, t = adjoin_root(_SQRT2.tower, 3, Fraction(5))
    s = 1 + _SQRT2
    f = P("x^3+2*x^2*y^2+y^5+1/3*x*y^4") + B({(4, 1): _SQRT2})
    want = _linear_by_substitution(f, ((s, 0), (0, t)), 7)
    calls = []
    inverted = AlgebraicScalar.inverted

    def counting_inverted(self):
        calls.append(1)
        return inverted(self)

    monkeypatch.setattr(AlgebraicScalar, "inverted", counting_inverted)
    assert apply_linear(f, ((s, 0), (0, t)), 7) == want
    assert calls == []


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


def _dense_ladder(f, weights, d, dprime, allowed_above):
    """graded_ladder as one dense solve per layer: each layer from d+1
    to dprime is written through layer_decompose as shears of the
    principal part plus the allowed monomials, then sheared away."""
    weights = as_weights(weights)
    f0 = wlayer(f, weights, d)
    current = wjet(f, weights, dprime)
    levels = sorted(
        {
            weight_value(weights, e)
            for e in _monomials_with_pdeg_at_most(weights, dprime)
            if d < weight_value(weights, e) <= dprime
        }
    )
    for level in levels:
        g = wlayer(current, weights, level)
        if g.is_zero():
            continue
        extras = sorted(
            e for e in allowed_above if weight_value(weights, e) == level
        )
        result = layer_decompose(g, f0, weights, level, extras)
        assert result is not None, f"layer {level} will not reduce"
        v1, v2, coeffs = result
        current = shear(current, v1, v2, (weights, dprime))
        layer_now = wlayer(current, weights, level)
        assert (layer_now - SparsePoly.build(f.vars, dict(coeffs))).is_zero()
    return current


def _ladder_calls(monkeypatch, g):
    """Classify g and return, for each graded_ladder call, its
    arguments and its result."""
    calls = []

    def recording_ladder(*args):
        result = graded_ladder(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(classify_module, "graded_ladder", recording_ladder)
    return classify(g), calls


# the harness rows that finish under one weight, through graded_ladder:
# all but A_k, the corner families and the double core families
LADDER_ROWS = [
    (fam.key, indices)
    for fam in FAMILIES
    for indices in fam.samples
    if fam.key
    not in (
        "A_k",
        "J_10+k",
        "X_9+k",
        "Y_r,s",
        "J_3,p",
        "Z_1,p",
        "W_1,p",
        "W#_1,2q-1",
        "W#_1,2q",
    )
]


@pytest.mark.parametrize(
    "key, indices",
    LADDER_ROWS,
    ids=[display_name(key, indices) for key, indices in LADDER_ROWS],
)
def test_graded_ladder_matches_dense_solve(monkeypatch, key, indices):
    # the normal form and two tangent to identity images of it; the
    # graded_ladder call must give exactly what the dense per layer
    # solve gives on the same arguments
    rng = random.Random(f"ladder:{key}:{indices}")
    values = cli._row_values(key, indices, rng)
    while 0 in values.values():
        # a zero modulus leaves its layer empty, so a ladder cut short
        # below it would go unseen
        values = cli._row_values(key, indices, rng)
    f0 = cli._row_germ(key, indices, values)
    bound = FAMILY[key].mu(*indices) + 2
    germs = [f0] + [
        substitute(f0, cli._tangent_images(rng), truncation=((1, 1), bound))
        for _ in range(2)
    ]
    for g in germs:
        r, calls = _ladder_calls(monkeypatch, g)
        assert r.name == display_name(key, indices)
        assert len(calls) == 1
        args, result = calls[0]
        assert result == _dense_ladder(*args)


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
    _, r = adjoin_root(QQ, 2, Fraction(2))
    f = P("x^3+x*y^4") + B({(0, 5): r, (2, 2): 1 + r})
    v1 = B({(0, 2): r, (1, 1): Fraction(1, 3)})
    v2 = B({(2, 0): 1 - r})
    truncation = ((1, 1), 9)
    got = shear(f, v1, v2, truncation)
    assert tower_of(*got.terms.values()) is not QQ
    assert got == _substituted(f, v1, v2, truncation)


def test_shear_without_parts_returns_f():
    # x^5*y^5 lies past the bound, so any truncation would show
    f = P("x^3+y^9+x^5*y^5")
    zero = SparsePoly.zero(f.vars)
    assert shear(f, zero, zero, ((1, 1), 6)) is f


_SQRT2 = adjoin_root(QQ, 2, Fraction(2))[1]
_RATIONALS = st.sampled_from(
    [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
)


@st.composite
def _drawn_poly(draw, exps, min_size, max_size):
    """A polynomial on the given exponents, over Q or over Q(sqrt 2)."""
    terms = draw(
        st.dictionaries(
            st.sampled_from(exps), _RATIONALS, min_size=min_size, max_size=max_size
        )
    )
    if draw(st.booleans()):
        terms = {
            e: Fraction(c) + draw(_RATIONALS) * _SQRT2
            for e, c in terms.items()
        }
    return B(terms)


_GERM_EXPS = [(a, b) for a in range(8) for b in range(8) if 2 <= a + b <= 8]
# parts may hold x or y themselves, as a layer shear can
_PART_EXPS = [(a, b) for a in range(5) for b in range(5) if 1 <= a + b <= 4]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    _drawn_poly(_GERM_EXPS, 1, 6),
    _drawn_poly(_PART_EXPS, 1, 3),
    _drawn_poly(_PART_EXPS, 1, 3),
    st.sampled_from([None, 0, 1]),
    st.sampled_from([(1, 1), (2, 1), (1, 3), (3, 2), (7, 3)]),
    st.integers(4, 30),
)
def test_shear_matches_substitute_on_drawn_germs(f, v1, v2, zero, weight, bound):
    # rational and sqrt(2) tower germs and parts, one part zero or
    # none, cut under one weight; a linear part may lower the weight of
    # a term, which the derivative table must still reach
    v1, v2 = (
        SparsePoly.zero(f.vars) if k == zero else v for k, v in enumerate((v1, v2))
    )
    truncation = ((weight,), bound)
    assert shear(f, v1, v2, truncation) == _substituted(f, v1, v2, truncation)


def test_rational_shear_runs_on_integers(monkeypatch):
    # a rational shear reads its derivative table off the terms and
    # multiplies integers: no diff and no scalar product runs
    f = P("1/2*x^3+x^2*y^3-2/3*y^10+3/5*x^3*y+7*x*y^8")
    v1 = P("2/3*x*y^2-1/4*y^4")
    v2 = P("23/54*x+y^2")
    truncation = ((1, 1), 14)
    want = _substituted(f, v1, v2, truncation)

    def refuse(*args):
        raise AssertionError("a rational shear left the integers")

    for module in (poly_module, transform_module):
        monkeypatch.setattr(module, "diff", refuse)
    monkeypatch.setattr(AlgebraicScalar, "__mul__", refuse)
    monkeypatch.setattr(AlgebraicScalar, "__rmul__", refuse)
    got = shear(f, v1, v2, truncation)
    monkeypatch.undo()
    assert got == want


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
    assert not f2.coeff((3, 1))
    assert f2.coeff((0, 11)) == 4
    assert (wlayer(f2, J_CORNER_WEIGHTS, 180) - P("x^3+x^2*y^3+y^10")).is_zero()


def test_absorb_above_ideal_member_vanishes():
    f = P("x^3+x^2*y^3+y^10+2*y^11+5*y^12")
    f2 = absorb_above(f, J_CORNER_WEIGHTS, 180, [(0, 11)], 19)
    assert not f2.coeff((0, 12))
    assert f2.coeff((0, 11)) == 2


def _eager_column_safe(var_index, u, j, weights, level, allowed):
    step = tuple(c - (1 if k == var_index else 0) for k, c in enumerate(u))
    # second order terms of a shear on the column land at level + 2 * shift
    if j >= level + 2 * weight_value(weights, step):
        return False
    for m in allowed:
        p = m
        for _ in range(m[var_index]):
            p = tuple(a + b for a, b in zip(p, step))
            if p in allowed:
                break
            if weight_value(weights, p) <= j:
                return False
    return True


def _eager_layer_shear(layer, candidates, weights, level, j, allowed):
    """Reference elimination: every safe column is formed and reduced
    on every layer before the layer itself is reduced."""
    vars = layer.vars
    zero = Fraction(0)
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
            col = col - base * c
            for tag, value in base_combo.items():
                combo[tag] = combo.get(tag, zero) - c * value

    for _, var_index, u, prod in candidates:
        if _eager_column_safe(var_index, u, j, weights, level, allowed):
            reduce_column(prod, {(var_index, u): Fraction(1)})
    s = layer
    combo = {}
    while not s.is_zero():
        e = min(s.terms, key=term_sort_key)
        base, base_combo = pivots[e]
        c = s.coeff(e) / base.coeff(e)
        s = s - base * c
        for tag, value in base_combo.items():
            combo[tag] = combo.get(tag, zero) + c * value
    v1 = SparsePoly.zero(vars)
    v2 = SparsePoly.zero(vars)
    for (var_index, u), value in sorted(combo.items()):
        if not value:
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
    f = wjet(f, ordinary, cut)
    f0 = wlayer(f, weights, level)
    allowed = {tuple(e) for e in allowed}
    partials = (diff(f0, 0), diff(f0, 1))
    candidates = []
    for var_index in (0, 1):
        if partials[var_index].is_zero():
            continue
        for u in _monomials_with_pdeg_at_most(ordinary, cut):
            prod = partials[var_index] * SparsePoly.monomial(f.vars, u)
            prod = wjet(prod, ordinary, cut)
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
        v1, v2 = _eager_layer_shear(layer, candidates, weights, level, j, allowed)
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
        ("J_3,p", (3, 1), ("x", "x+x^3"), [1] * 5),
        ("Z_1,p", (1, 1), ("x", "x+x^3"), [1] * 3),
        ("W_1,p", (1, 1), ("x", "x+x^3"), [1] * 3),
        ("Y_r,s", (5, 5), ("x", "x+x^3"), [1]),
        ("Y_r,s", (6, 6), ("x", "x+x^3"), [1, 1]),
        # the table drops columns that turn unsafe between its layers
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


def test_layer_weights_of_a_column_table_rise(monkeypatch):
    # a column table only ever moves to a higher layer weight, so it
    # never has to bring back a column it skipped: over every harness
    # germ, the j of each table's successive layer shears rises
    layers = {}
    layer_shear = transform_module._ColumnTable.layer_shear

    def recording_layer_shear(table, layer, j):
        layers.setdefault(table, []).append(j)
        return layer_shear(table, layer, j)

    monkeypatch.setattr(
        transform_module._ColumnTable, "layer_shear", recording_layer_shear
    )
    for _, g in harness_germs():
        classify(g)
    assert sum(len(js) > 1 for js in layers.values()) >= 10
    for js in layers.values():
        assert all(a < b for a, b in zip(js, js[1:])), js


def test_absorb_stops_short_of_second_order_feedback():
    # the J_13 tangent image below, cut at ordinary degree 11: layer 30
    # (x^2*y^8) is cleared by x*y^3*df/dx and y^4*df/dy, both of shift
    # 6, whose mixed second order term lands back on 18 + 2*6 = 30 with
    # the square of their coefficients; using them there never settles,
    # so the test runs under an alarm rather than hang
    f = P(
        "x^3+x^3*y+x^2*y^2+1/3*x^3*y^2+5/3*x^2*y^3+1/27*x^3*y^3"
        "+37/36*x^2*y^4+5/18*x^2*y^5+1/36*x^2*y^6-2*y^9-9*y^10-18*y^11"
        "-21*y^12-63/4*y^13-63/8*y^14-21/8*y^15"
    )

    def out_of_time(*args):
        raise TimeoutError("absorption kept feeding its own layer")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(30)
    try:
        g = _absorb(f, ((7, 2), (6, 3)), 18, [], ((1, 1), 11))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert g == P("x^3+x^2*y^2-2*y^9")


def _walked_column_floor(var_index, u, weights, level, allowed):
    """_column_floor as a walk: every step of the ray from each kept
    monomial, up to its first kept landing."""
    step = tuple(c - (1 if k == var_index else 0) for k, c in enumerate(u))
    floor = level + 2 * weight_value(weights, step)
    for m in allowed:
        p = m
        for _ in range(m[var_index]):
            p = tuple(a + b for a, b in zip(p, step))
            if p in allowed:
                break
            floor = min(floor, weight_value(weights, p))
    return floor


def _scanned_columns(f0, weights, level, truncation):
    """The column plan with a min over every exponent of the partial
    per u, on the partials of f0, as (term_sort_key of the lowest term,
    var_index, u)."""
    tw, cut = truncation
    ((wx, wy),) = as_weights(tw)
    columns = []
    for var_index in (0, 1):
        partial = diff(f0, var_index)
        if partial.is_zero():
            continue
        exps = list(partial.terms)
        lowest = min(exps, key=term_sort_key)
        room = cut - wx * lowest[0] - wy * lowest[1]
        for a in range(room // wx + 1):
            for b in range((room - wx * a) // wy + 1):
                if a == 0 and b == 0:
                    continue
                order = min(
                    weight_value(weights, (e[0] + a, e[1] + b))
                    for e in exps
                    if wx * (e[0] + a) + wy * (e[1] + b) <= cut
                )
                if order <= level:
                    continue
                low = term_sort_key((lowest[0] + a, lowest[1] + b))
                columns.append((low, var_index, (a, b)))
    columns.sort()
    return columns


def _planned(table):
    return [
        (term_sort_key(_CODES.exps(code)), var_index, u)
        for code, var_index, u in table.columns
    ]


def test_column_plans_and_floors_match_the_scans_on_harness_tables(monkeypatch):
    # every table the seed-1 harness builds: the plan read off prefix
    # minima and the floors read off the two ends of each walk equal
    # the exponent scan and the step by step walk
    tables = []
    init = _ColumnTable.__init__

    def recording_init(table, *args):
        init(table, *args)
        tables.append((table, args))

    monkeypatch.setattr(_ColumnTable, "__init__", recording_init)
    for _, g in harness_germs():
        classify(g)
    monkeypatch.undo()
    assert len(tables) >= 30
    assert any(len(args[1]) == 2 for _, args in tables)
    for table, (f0, weights, level, allowed, truncation) in tables:
        assert _planned(table) == _scanned_columns(f0, weights, level, truncation)
        for _, var_index, u in table.columns:
            assert _column_floor(var_index, u, weights, level, allowed) == (
                _walked_column_floor(var_index, u, weights, level, allowed)
            )


_PIECE = st.tuples(st.integers(1, 9), st.integers(1, 9))
_SMALL = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    st.tuples(_PIECE, _PIECE),
    st.integers(0, 40),
    st.integers(0, 1),
    _SMALL,
    _SMALL,
    st.lists(st.integers(1, 5), max_size=2),
    st.lists(_SMALL, max_size=1),
)
def test_column_floor_matches_the_walk(weights, level, var_index, u, m, hops, extra):
    # two-piece weights; kept sets of 0-3 monomials, some on the ray
    # from m, so the walk stops short; u = e_k gives the zero step
    step = tuple(c - (1 if k == var_index else 0) for k, c in enumerate(u))
    allowed = {m} | set(extra)
    for t in hops:
        p = tuple(a + t * b for a, b in zip(m, step))
        if min(p) >= 0:
            allowed.add(p)
    for kept in (set(), allowed):
        assert _column_floor(var_index, u, weights, level, kept) == (
            _walked_column_floor(var_index, u, weights, level, kept)
        )


def test_column_floor_of_the_zero_step():
    # u = e_k shifts nothing: a kept monomial lands on itself, and the
    # second order term lands on the level itself
    weights = ((3, 2), (2, 3))
    for allowed in (set(), {(2, 3)}, {(0, 4), (4, 0)}):
        assert _column_floor(0, (1, 0), weights, 12, allowed) == 12
        assert _walked_column_floor(0, (1, 0), weights, 12, allowed) == 12


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    st.dictionaries(
        st.sampled_from(
            [(a, b) for a in range(7) for b in range(9) if 3 <= a + b <= 9]
        ),
        _RATIONALS,
        min_size=2,
        max_size=5,
    ),
    st.tuples(_PIECE, _PIECE),
    st.integers(0, 30),
    st.integers(6, 16),
)
def test_column_plan_matches_the_scan(terms, weights, level, cut):
    # two-piece weights under the ordinary truncation, on principal
    # parts of any shape
    f0 = B(terms)
    truncation = ((1, 1), cut)
    table = _ColumnTable(f0, weights, level, set(), truncation)
    assert _planned(table) == _scanned_columns(f0, weights, level, truncation)


@pytest.mark.parametrize(
    "key, indices", [("J_3,p", (3, 1)), ("Z_1,p", (1, 1))]
)
def test_tower_column_table_matches_eager_elimination(monkeypatch, key, indices):
    # the image under x -> sqrt(2) * x of a tangent image of a corner
    # germ reaches absorb_above with a principal part over Q(sqrt 2),
    # so its column table runs on tower scalars; its shears and result
    # must equal the eager elimination's, term for term
    values = {name: 2 for name, _ in moduli_positions(key, indices)}
    f0 = instantiate(key, indices, values)
    g = substitute(f0, {"x": P("x+x^3")}, truncation=((1, 1), 30))
    g = substitute(g, {"x": B({(1, 0): _SQRT2})})
    r, calls = _absorb_calls(monkeypatch, g)
    assert r.name == display_name(key, indices)
    assert len(calls) == 1
    args, result, shears = calls[0]
    assert tower_of(*args[0].terms.values()) is not QQ
    assert tower_of(*wlayer(args[0], args[1], args[2]).terms.values()) is not QQ
    want, want_shears = _eager_absorb_above(*args)
    assert shears and shears == want_shears
    assert result == want


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
    assert not f2.coeff((1, 4))
    assert f2.coeff((3, 0)) == 1
    assert f2.coeff((0, 6))


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
    assert dict(r.parameters) == moduli


# -- even quartic reduction ------------------------------------------


def test_even_quartic_fixed_point():
    f = P("x^4+3*x^2*y^2+y^4")
    f2 = even_quartic_form(f, 11)
    assert (f2 - f).is_zero()


def _x9_normal_form_modulus(f2):
    """The a of f2, asserting f2 is exactly x^4 + a*x^2*y^2 + y^4."""
    a = f2.coeff((2, 2))
    assert f2 == B({(4, 0): 1, (2, 2): a, (0, 4): 1})
    return a


def test_even_quartic_general_jet():
    f = P("x^4+x^3*y+y^4")
    f2 = even_quartic_form(f, 11)
    a = _x9_normal_form_modulus(f2)
    assert set(f2.terms) == {(4, 0), (2, 2), (0, 4)}
    assert 7.89 < float(approximate(a, 8)) < 7.90
    assert milnor_number(f) == 9
    assert milnor_number(f2) == 9


def test_even_quartic_missing_ends():
    f = P("x^3*y+x*y^3")
    assert brute_milnor(f) == 9
    f2 = even_quartic_form(f, 11)
    a = _x9_normal_form_modulus(f2)
    # the roots 0, oo, i, -i are harmonic, so J(a) = a*(72 - 2*a^2) = 0
    assert a * (72 - 2 * a * a) == 0
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


def _core_index_and_positions(mu):
    """The W# index i = mu - 15 and the catalog's moduli positions."""
    key, indices = double_core_family(mu)
    return indices[1], [e for _, e in moduli_positions(key, indices)]


def test_double_core_even_index():
    f = P("x^4+2*x^2*y^3+y^6+x*y^5")
    assert milnor_number(f) == 16
    a0, a1 = normalize_double_core(f, 16)
    assert _core_index_and_positions(16) == (1, [(1, 5), (1, 6)])
    assert a0 == 1
    assert not a1


def test_double_core_odd_index():
    # y^7 = y^4*(x^2+y^3) - x^2*y^4: the walk clears the core multiple
    # with y -> y - y^2/6 and leaves -1 on a0's x^2*y^4.  The shear's
    # second order term and its effect on y^7 leave
    # (1/6)*y^5*(x^2+y^3) + (1/12)*y^8 on the a1 layer, and
    # y^8 = y^5*(x^2+y^3) - x^2*y^5 puts -1/12 on a1's x^2*y^5
    f = P("x^4+2*x^2*y^3+y^6+y^7+y^8")
    assert milnor_number(f) == 17
    a0, a1 = normalize_double_core(f, 17)
    assert _core_index_and_positions(17) == (2, [(2, 4), (2, 5)])
    assert a0 == -1
    assert a1 == Fraction(-1, 12)


def test_double_core_catalog_gauge_round_trips():
    nf = B({(2, 0): 1, (0, 3): 1}) ** 2
    nf = nf + SparsePoly.monomial(("x", "y"), (2, 4), Fraction(-2))
    nf = nf + SparsePoly.monomial(("x", "y"), (2, 5), Fraction(1))
    a0, a1 = normalize_double_core(nf, 17)
    assert _core_index_and_positions(17)[1] == [(2, 4), (2, 5)]
    assert a0 == -2
    assert a1 == 1


def test_double_core_flow_is_canonical():
    f = P("x^4+2*x^2*y^3+y^6+x*y^5+y^7")
    assert milnor_number(f) == 16
    a0, a1 = normalize_double_core(f, 16)
    assert a0 == 1
    _, (m0, m1) = _core_index_and_positions(16)
    nf = B({(2, 0): 1, (0, 3): 1}) ** 2
    nf = nf + SparsePoly.monomial(("x", "y"), m0, a0)
    nf = nf + SparsePoly.monomial(("x", "y"), m1, a1)
    assert normalize_double_core(nf, 16) == (a0, a1)


def test_double_core_coordinate_invariance():
    from arnoldnf.poly import substitute

    f = P("x^4+2*x^2*y^3+y^6+x*y^5+y^7")
    image = P("x+y^3")
    g = substitute(f, {"x": image})
    assert milnor_number(g) == 16
    assert normalize_double_core(g, 16) == normalize_double_core(f, 16)


def test_double_core_rescales_the_square():
    f = P("x^4+4*x^2*y^3+4*y^6+y^7")
    assert milnor_number(f) == 17
    a0, _ = normalize_double_core(f, 17)
    assert _core_index_and_positions(17)[0] == 2
    assert a0 ** 6 == Fraction(1, 4 ** 7)
    assert abs(float(approximate(a0, 8)) + 4.0 ** (-7.0 / 6.0)) < 1e-6


def test_double_core_rejects_non_square_jet():
    f = P("x^4+x^2*y^3+y^6+x*y^5")
    with pytest.raises(PipelineError):
        normalize_double_core(f, 16)


@pytest.mark.parametrize(
    "text, mu, message",
    [
        # x*y^5 sits on layer 13, below the a0 layer 14 that mu = 17
        # fixes, and is no multiple of the core
        ("x^4+2*x^2*y^3+y^6+x*y^5", 17, "tail term (1, 5) is out of reach"),
        # mu = 16 puts a0 on x*y^5, which is empty; x*y^6 is a1's
        ("x^4+2*x^2*y^3+y^6+x*y^6", 16, "leading modulus vanished"),
    ],
)
def test_double_core_refuses_inconsistent_mu(text, mu, message):
    with pytest.raises(PipelineError, match=re.escape(message)):
        normalize_double_core(P(text), mu)
