from fractions import Fraction

from arnoldnf.localalg import (
    LocalOrder,
    jacobian_leading_exponents,
    layer_decompose,
    linear_solve,
    milnor_number,
    mora_nf,
    standard_basis,
)
from arnoldnf.poly import SparsePoly, parse_poly, substitute
from arnoldnf.scalars import QQ, adjoin_root, from_rational
from milnor_oracle import brute_milnor


def P(text):
    return parse_poly(text, ("x", "y"))


def test_local_order_leading():
    order = LocalOrder((3, 2))
    f = P("4*x^3+4*x*y^3+y^5")
    assert order.leading(f.terms)[0] == (3, 0)
    g = P("6*x^2*y^2+6*y^5+5*x*y^4")
    assert order.leading(g.terms)[0] == (2, 2)
    assert LocalOrder((1, 1)).leading(P("1+x+y").terms)[0] == (0, 0)


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
        assert not all(c.is_rational() for c in g.terms.values()), text
        assert milnor_number(g) == milnor_number(f), text


def test_leading_exponents():
    les = jacobian_leading_exponents(P("x^3+y^4"))
    assert les == [(0, 3), (2, 0)]
    les = jacobian_leading_exponents(P("x^2*y+y^3"))
    assert les == [(0, 3), (1, 1), (2, 0)]


def test_mora_nf_unit_case():
    order = LocalOrder((1, 1))
    basis = standard_basis([P("x+x^2"), P("y")], order)
    # x + x^2 is a unit times x, so x itself must reduce to zero
    assert mora_nf(P("x"), basis, order).is_zero()


def test_mora_nf_unit_case_over_a_tower():
    order = LocalOrder((1, 1))
    _, r2 = adjoin_root(QQ, 2, 2)
    unit_x = P("x") + SparsePoly.monomial(("x", "y"), (2, 0), r2)
    basis = standard_basis([unit_x, P("y")], order)
    # x + sqrt(2)*x^2 is a unit times x, so x itself must reduce to zero
    assert mora_nf(P("x"), basis, order).is_zero()
    assert not mora_nf(P("1+x"), basis, order).is_zero()


def test_linear_solve():
    one = from_rational
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
