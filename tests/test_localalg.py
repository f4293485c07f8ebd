import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from arnoldnf import localalg, poly
from arnoldnf.localalg import (
    LocalOrder,
    _basis,
    _mora,
    jacobian_leading_exponents,
    layer_decompose,
    linear_solve,
    milnor_number,
)
from arnoldnf.poly import SparsePoly, diff, parse_poly, poly_order, substitute
from arnoldnf.scalars import QQ, adjoin_root, tower_of
from harness_samples import harness_germs
from milnor_oracle import brute_milnor, brute_milnor_top


def P(text):
    return parse_poly(text, ("x", "y"))


def engine_dicts(polys, order):
    """Code-keyed engine input for nonzero polynomials: coprime integers
    when every coefficient is rational, the coefficients as they are
    otherwise."""
    rational = all(tower_of(*f.terms.values()) is QQ for f in polys)
    return [
        localalg._encoded(localalg._integers(f.terms)[0] if rational else f.terms, order)
        for f in polys
    ]


def test_local_order_leading():
    order = LocalOrder((3, 2))
    f = P("4*x^3+4*x*y^3+y^5")
    assert order.leading(f.terms)[0] == (3, 0)
    g = P("6*x^2*y^2+6*y^5+5*x*y^4")
    assert order.leading(g.terms)[0] == (2, 2)
    assert LocalOrder((1, 1)).leading(P("1+x+y").terms)[0] == (0, 0)


_EXPONENT = st.one_of(st.integers(0, 12), st.integers(0, localalg._BASE // 4))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from([(1, 1), (3, 2)]),
    st.lists(st.tuples(_EXPONENT, _EXPONENT), min_size=1, max_size=8, unique=True),
    st.integers(0, 60),
)
def test_monomial_codes(weight, exps, cap):
    order = LocalOrder(weight)
    codes = [order.code(e) for e in exps]
    # decoding gives the exponents back
    assert [order.exps(k) for k in codes] == exps
    # the least code leads, ties going to the higher power of x
    assert order.exps(min(codes)) == order.leading(dict.fromkeys(exps, 1))[0]
    # adding codes multiplies monomials
    (a, b), (c, d) = exps[0], exps[-1]
    assert codes[0] + codes[-1] == order.code((a + c, b + d))
    # a code is at most cap * B exactly when its weighted degree is at
    # most the cap: the total degree under weight (1, 1)
    cut = [k <= cap * localalg._BASE for k in codes]
    assert cut == [weight[0] * a + weight[1] * b <= cap for a, b in exps]
    if weight == (1, 1):
        assert cut == [a + b <= cap for a, b in exps]


def test_monomial_codes_break_ties_toward_x():
    order = LocalOrder((3, 2))
    # x^2 and y^3 share weighted degree 6; x^2 leads
    assert order.exps(min(order.code((0, 3)), order.code((2, 0)))) == (2, 0)
    order = LocalOrder((1, 1))
    assert order.exps(min(map(order.code, [(0, 4), (1, 3), (3, 1), (2, 2)]))) == (3, 1)


def test_exponents_past_the_code_base_raise():
    order = LocalOrder((1, 1))
    base = localalg._BASE
    with pytest.raises(ValueError, match="engine's limit"):
        engine_dicts([P(f"x^{base}+y")], order)
    with pytest.raises(ValueError, match="engine's limit"):
        milnor_number(P(f"x^3+x*y^{base + 1}"))
    # below B on entry, but a record keeps weighted degrees below B/2, so
    # that shifting it by another record's leading monomial cannot alias
    gens = engine_dicts([P(f"x*y+x^{base // 2}"), P("y")], order)
    with pytest.raises(ValueError, match="engine's limit"):
        _basis(gens, order)
    # far enough below B/2, large exponents complete as usual
    gens = engine_dicts([P(f"x+y^{base // 4}"), P("y^2")], order)
    assert sorted(r[0] for r in _basis(gens, order)) == [(0, 2), (1, 0)]


def test_rational_partials_are_coprime_integers_without_diff(monkeypatch):
    f = P("1/2*x^3+x^2*y^3-2/3*y^11+3/5*y^12")
    order = LocalOrder((1, 1))
    expected = []
    for var in (0, 1):
        qs = dict(diff(f, var).terms)
        scale = 1
        for q in qs.values():
            scale = scale * q.denominator // gcd(scale, q.denominator)
        ints = {e: int(q * scale) for e, q in qs.items()}
        g = gcd(*ints.values())
        expected.append({e: c // g for e, c in ints.items()})

    def no_diff(*args, **kwargs):
        raise AssertionError("poly.diff called")

    monkeypatch.setattr(poly, "diff", no_diff)
    monkeypatch.setattr(localalg, "diff", no_diff)
    parts = localalg._partials(f, order)
    assert [{order.exps(k): c for k, c in d.items()} for d in parts] == expected
    for d in parts:
        assert all(type(c) is int for c in d.values())
        assert gcd(*d.values()) == 1
    records = _basis(parts, order, 19)
    assert records and all(type(c) is int for r in records for c in r[2].values())
    assert milnor_number(f) == brute_milnor(f)


def test_tower_partials_stay_tower_scalars():
    f = P(J33)
    g = substitute(f, _SQRT2_X)
    order = LocalOrder((1, 1))
    records = _basis(localalg._partials(g, order), order, 19)
    coefficients = [c for r in records for c in r[2].values()]
    assert coefficients and all(type(c) is not int for c in coefficients)
    assert any(tower_of(c) is not QQ for c in coefficients)
    assert milnor_number(g, with_top=True) == brute_milnor_top(f, cap=20) == (19, 13)


def test_no_s_polynomial_past_the_cap(monkeypatch):
    # every term of x^s * f lies past the lcm of the leading monomials,
    # so a pair whose lcm passes the cap in force forms no S-polynomial
    caps = []  # the cap in force, as it enters _basis or leaves a cut
    formed = []  # (lcm total degree, cap in force) per S-polynomial
    basis, cut, s_poly = localalg._basis, localalg._cut_at_corner, localalg._s_poly

    def recording_basis(gens, order, cap=None):
        caps.append(cap)
        return basis(gens, order, cap)

    def recording_cut(G, pairs, cap, order):
        out = cut(G, pairs, cap, order)
        caps.append(out[2])
        return out

    def recording_s_poly(rf, rg, *args):
        (a, b), (c, d) = rf[0], rg[0]
        formed.append((max(a, c) + max(b, d), caps[-1]))
        return s_poly(rf, rg, *args)

    monkeypatch.setattr(localalg, "_basis", recording_basis)
    monkeypatch.setattr(localalg, "_cut_at_corner", recording_cut)
    monkeypatch.setattr(localalg, "_s_poly", recording_s_poly)
    assert milnor_number(P(J33), with_top=True) == (19, 13)
    assert formed and all(degree <= cap for degree, cap in formed)


def test_milnor_basics():
    assert milnor_number(P("x^3+y^4")) == 6
    assert milnor_number(P("x^2*y+y^3")) == 4
    assert milnor_number(P("x^2*y+y^4")) == 5
    assert milnor_number(P("x^2+y^2")) == 1
    assert milnor_number(P("x^2*y^2")) is None
    assert milnor_number(P("x^3")) is None
    # mu = 101 needs a cap past 100, which the Bezout cap of the degree gives
    assert milnor_number(P("x^2*y+y^100")) == 101


def test_milnor_brieskorn():
    for a in range(2, 6):
        for b in range(2, 6):
            f = P(f"x^{a}+y^{b}")
            assert milnor_number(f) == (a - 1) * (b - 1)


def test_milnor_quasihomogeneous_with_modulus():
    assert milnor_number(P("x^4+2*x^2*y^3+y^6+x*y^5")) == 16
    assert milnor_number(P("x^4+x^2*y^2+3*y^5")) == 10


BRUTE_FORCE_CASES = [
    "x^3+y^4",
    "x^2*y+y^5",
    "x^4+x^2*y^2+3*y^5",
    "x^4-2*x^3*y+x^2*y^2+y^5",
    "x^3+x^2*y^2+y^6",
    "x^4+2*x^2*y^3+y^6+x*y^5",
    "x^3+y^7+x*y^6",
    "x^5+3*x^2*y^2+y^5",
]


def test_milnor_matches_brute_force():
    for text in BRUTE_FORCE_CASES:
        f = P(text)
        assert milnor_number(f) == brute_milnor(f), text


def test_milnor_over_a_radical_tower():
    # x -> sqrt(2)*x, y -> cbrt(3)*y, over one tower of degree 6
    tower, r2 = adjoin_root(QQ, 2, 2)
    tower, r3 = adjoin_root(tower, 3, 3)
    images = {
        "x": SparsePoly.monomial(("x", "y"), (1, 0), r2),
        "y": SparsePoly.monomial(("x", "y"), (0, 1), r3),
    }
    for text in BRUTE_FORCE_CASES:
        f = P(text)
        g = substitute(f, images)
        assert tower_of(*g.terms.values()) is not QQ, text
        assert milnor_number(g) == milnor_number(f), text


J32 = "x^3+x^2*y^3+3/2*y^11+1/2*y^12"
J33 = "x^3+x^2*y^3-y^12+3/2*y^13"


def test_milnor_and_top_match_the_oracle():
    # which rung reads t depends on the acceptance rule, so t is checked
    # against linear algebra that shares no code with the completion
    for text in BRUTE_FORCE_CASES + [J32, J33]:
        f = P(text)
        assert milnor_number(f, with_top=True) == brute_milnor_top(f, cap=20), text
    assert brute_milnor_top(P(J32), cap=20) == (18, 12)
    assert brute_milnor_top(P(J33), cap=20) == (19, 13)


_SQRT2_X = {
    "x": SparsePoly.monomial(("x", "y"), (1, 0), adjoin_root(QQ, 2, 2)[1]),
    "y": P("y"),
}


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    st.dictionaries(
        st.sampled_from([(a, k - a) for k in range(2, 6) for a in range(k + 1)]),
        st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)]),
        min_size=1,
        max_size=4,
    )
)
def test_milnor_and_top_of_random_germs(terms):
    f = SparsePoly(("x", "y"), {e: Fraction(c) for e, c in terms.items()})
    # a germ of degree 5 has mu <= 16 by Bezout, so t < 16 if isolated
    expected = brute_milnor_top(f, cap=20)
    assert milnor_number(f, with_top=True) == expected, f
    if expected is not None:
        assert milnor_number(substitute(f, _SQRT2_X), with_top=True) == expected, f


def test_last_rung_below_the_last_cap_certifies_at_top_cap_minus_one(monkeypatch):
    # J_3,2 has t = 12: the cap-13 rung holds m^13 in J + m^14, so the
    # ladder stops there without a cap-19 completion
    caps = []
    basis = localalg._basis

    def recording_basis(gens, order, cap=None):
        caps.append(cap)
        return basis(gens, order, cap)

    monkeypatch.setattr(localalg, "_basis", recording_basis)
    assert milnor_number(P(J32), with_top=True) == (18, 12)
    assert caps == [4, 6, 9, 13]
    # the last cap keeps t <= cap - 2, so that t + 2 stays within it
    assert milnor_number(P(J32), 13, with_top=True) is None
    assert milnor_number(P(J32), 14, with_top=True) == (18, 12)


def test_completion_is_cut_at_its_highest_corner(monkeypatch):
    # J_3,3 has t = 13, so its cap-19 completion goes on at cap 14 once
    # the leading exponents close the staircase two degrees below 19
    basis, mora = localalg._basis, localalg._mora
    completion = []  # the cap of each completion
    seen = []  # (staircase closed, cap) of each reduction at cap 19

    def recording_basis(gens, order, cap=None):
        completion.append(cap)
        return basis(gens, order, cap)

    def recording_mora(h, reducers, order, cap=None):
        les = [r[0] for r in reducers]
        # every monomial of degree 18 lies above a leading exponent
        closed = all(any(a <= i and b <= 18 - i for a, b in les) for i in range(19))
        if completion[-1] == 19:
            seen.append((closed, cap))
        return mora(h, reducers, order, cap)

    monkeypatch.setattr(localalg, "_basis", recording_basis)
    monkeypatch.setattr(localalg, "_mora", recording_mora)
    assert milnor_number(P(J33), with_top=True) == (19, 13)
    assert completion[-1] == 19
    after = [cap for closed, cap in seen if closed]
    assert after and max(after) <= 14
    assert any(not closed and cap == 19 for closed, cap in seen)


def _degenerate_cone_germs(seed, count):
    # lowest forms with a repeated linear factor, in a random frame,
    # plus a pure power and a few terms above the order
    rng = random.Random(seed)
    coeffs = [1, -1, 2, -2, 3, Fraction(1, 2)]
    patterns = [(3,), (2, 1), (4,), (3, 1), (2, 2), (2, 1, 1), (3, 2), (5,)]
    for _ in range(count):
        pattern = rng.choice(patterns)
        d = sum(pattern)
        cone = P("1")
        for m in pattern:
            line = P(f"x+({rng.choice(coeffs)})*y")
            cone = cone * line ** m
        tail = [
            f"({rng.choice(coeffs)})*x^{a}*y^{k - a}"
            for k in rng.sample(range(d + 1, 2 * d + 3), 2)
            for a in (rng.randint(0, k),)
        ]
        power = f"({rng.choice(coeffs)})*{rng.choice('xy')}^{rng.randint(d + 1, 2 * d + 2)}"
        yield cone + P("+".join(tail + [power]))


def test_staircase_top_reaches_twice_the_order():
    # milnor_number's first cap 2*d - 2, d = ord f, rests on t >= 2*d - 4
    # for the staircase top t: proved when the tangent cone is reduced,
    # checked here on the harness germs and on degenerate cones
    germs = [f for _, f in harness_germs()]
    germs += list(_degenerate_cone_germs(3, 60))
    checked = 0
    for f in germs:
        found = milnor_number(f, with_top=True)
        if found is None:
            continue
        assert found[1] >= 2 * poly_order(f, (1, 1)) - 4, f
        checked += 1
    assert checked >= 200


def test_leading_exponents():
    les = jacobian_leading_exponents(P("x^3+y^4"))
    assert les == [(0, 3), (2, 0)]
    les = jacobian_leading_exponents(P("x^2*y+y^3"))
    assert les == [(0, 3), (1, 1), (2, 0)]


def test_mora_nf_unit_case():
    order = LocalOrder((1, 1))
    x, *gens = engine_dicts([P("x"), P("x+x^2"), P("y")], order)
    basis = _basis(gens, order)
    # x + x^2 is a unit times x, so x itself must reduce to zero
    assert not _mora(x, basis, order)


def test_mora_nf_unit_case_over_a_tower():
    order = LocalOrder((1, 1))
    _, r2 = adjoin_root(QQ, 2, 2)
    unit_x = P("x") + SparsePoly.monomial(("x", "y"), (2, 0), r2)
    x, one_plus_x, *gens = engine_dicts([P("x"), P("1+x"), unit_x, P("y")], order)
    basis = _basis(gens, order)
    # x + sqrt(2)*x^2 is a unit times x, so x itself must reduce to zero
    assert not _mora(x, basis, order)
    assert _mora(one_plus_x, basis, order)


def test_linear_solve():
    one = Fraction
    rows = [[one(1), one(2)], [one(3), one(4)]]
    sol = linear_solve(rows, [one(5), one(11)])
    assert sol == [one(1), one(2)]
    rows = [[one(1), one(1)], [one(2), one(2)]]
    assert linear_solve(rows, [one(1), one(3)]) is None
    sol = linear_solve([[one(1), one(1)]], [one(4)])
    assert sol == [one(4), one(0)]


def test_layer_decompose_cross_shear():
    f0 = P("x^3+y^4")
    g = P("x*y^3")
    result = layer_decompose(g, f0, (4, 3), 13, [])
    assert result is not None
    v1, v2, coeffs = result
    assert v1.is_zero()
    assert v2 == P("1/4*x")
    assert coeffs == {}


def test_layer_decompose_with_modulus():
    f0 = P("x^3+y^7")
    g = P("2*x*y^5")
    result = layer_decompose(g, f0, (7, 3), 22, [(1, 5)])
    assert result is not None
    v1, v2, coeffs = result
    assert v1.is_zero() and v2.is_zero()
    assert coeffs[(1, 5)] == 2


def test_layer_decompose_unreachable():
    f0 = P("x^3+y^4")
    assert layer_decompose(P("x*y^2"), f0, (4, 3), 10, []) is None
