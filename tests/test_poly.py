from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arnoldnf.cli import main
from arnoldnf.errors import ParseError
from arnoldnf.poly import (
    SparsePoly,
    diff,
    mul_trunc,
    parse_poly,
    poly_order,
    poly_str,
    substitute,
    wjet,
    wlayer,
)
from arnoldnf.scalars import QQ, adjoin_root


def P(text, vars=("x", "y")):
    return parse_poly(text, vars)


def test_parse_and_print_round_trip():
    for text in [
        "x^3+y^4",
        "x^2*y+2*x*y^2-y^3",
        "1/2*x^4-3/5*x^2*y^2+y^5",
        "-x^3+x*y",
        "x^3-2*y^3",
    ]:
        f = P(text)
        assert P(poly_str(f)) == f


def test_parse_features():
    f = parse_poly("(x+y)^2 - x^2 - y^2", ("x", "y"))
    assert f == P("2*x*y")
    assert parse_poly("x**3", ("x", "y")) == P("x^3")
    assert parse_poly("-(x - y)", ("x", "y")) == P("y-x")
    # an Arabic-Indic digit is a decimal digit, which `int` reads
    assert P("x^\u0663+\u0663*y") == P("x^3+3*y")
    g = parse_poly("z^2+w^3")
    assert g.vars == ("w", "z")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x^3 + 2y", ("x", "y"))
    assert err.value.position == 7
    with pytest.raises(ParseError):
        parse_poly("x^-2", ("x", "y"))
    with pytest.raises(ParseError):
        parse_poly("x + q", ("x", "y"))
    with pytest.raises(ParseError):
        parse_poly("x +", ("x", "y"))
    with pytest.raises(ParseError):
        parse_poly("1/0", ("x", "y"))


# one-digit integers, variables, operators, and characters the parser
# must refuse: a superscript digit, an Arabic-Indic digit that `int`
# reads as 3, a letter outside the variable list and a symbol
_TOKENS = [*"0123456789", "x", "y", "q", *"+-*/^()", "**"]
_TOKENS += ["\u00b2", "\u0663", "\u03b1", "$"]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.lists(st.sampled_from(_TOKENS), max_size=10))
def test_any_token_string_parses_or_raises_parse_error(tokens):
    # spaces keep every integer, hence every exponent, to one digit
    text = " ".join(tokens)
    for vars in (None, ("x", "y")):
        try:
            f = parse_poly(text, vars)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)
        else:
            assert isinstance(f, SparsePoly)


@pytest.mark.parametrize(
    "text, position",
    [("x^\u00b2+y^3", 2), ("12\u00b20*x", 2), ("(" * 400 + "x" + ")" * 400, None)],
    ids=["superscript-exponent", "superscript-inside-integer", "deep-nesting"],
)
def test_unusable_text_ends_in_parse_error(text, position, capsys):
    with pytest.raises(ParseError) as err:
        parse_poly(text, ("x", "y"))
    if position is not None:
        assert err.value.position == position
    assert main([text]) == 1
    assert "parse error" in capsys.readouterr().err


def test_arithmetic():
    x = SparsePoly.variable(("x", "y"), "x")
    y = SparsePoly.variable(("x", "y"), "y")
    f = (x + y) ** 3
    assert f == P("x^3+3*x^2*y+3*x*y^2+y^3")
    assert f - f == SparsePoly.zero(("x", "y"))
    assert (f * Fraction(1, 3)).coeff((2, 1)) == 1
    assert (2 * x - x - x).is_zero()


def test_power_by_repeated_squaring(monkeypatch):
    # x^30 takes 4 squarings and 4 products, not 30 products
    calls = []
    mul = SparsePoly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(SparsePoly, "__mul__", counting_mul)
    assert P("x") ** 30 == SparsePoly.monomial(("x", "y"), (30, 0))
    assert len(calls) <= 10
    assert P("x+y") ** 0 == SparsePoly.constant(("x", "y"), 1)


def test_algebraic_coefficients():
    tower, r2 = adjoin_root(QQ, 2, 2)
    x = SparsePoly.variable(("x", "y"), "x")
    f = x * r2
    g = f * f
    assert g.coeff((2, 0)) == 2
    assert poly_str(f) == "(g1)*x"


def test_diff():
    f = P("x^4+2*x^2*y^3+y^6+x*y^5")
    assert diff(f, "x") == P("4*x^3+4*x*y^3+y^5")
    assert diff(f, "y") == P("6*x^2*y^2+6*y^5+5*x*y^4")


def test_weighted_jets():
    f = P("x^4+2*x^2*y^3+y^6+x*y^5")
    assert poly_order(f, (3, 2)) == 12
    assert wjet(f, (3, 2), 12) == P("x^4+2*x^2*y^3+y^6")
    assert wlayer(f, (3, 2), 13) == P("x*y^5")
    # piecewise grading takes the minimum over the pieces
    assert poly_order(P("x^3"), ((1, 2), (2, 1))) == 3
    assert poly_order(P("x^2*y^2"), ((1, 2), (2, 1))) == 6


def test_mul_trunc():
    f = P("x+y^2")
    g = P("x^2+y")
    full = f * g
    cut = mul_trunc(f, g, (1, 1), 2)
    assert cut == wjet(full, (1, 1), 2)


def test_substitute_exact():
    f = P("x^3+3*x^2*y+3*x*y^2+y^3+y^5")
    g = substitute(f, {"x": P("x-y")})
    assert g == P("x^3+y^5")


def test_substitute_truncated():
    f = P("x^2")
    img = P("x+y^3")
    out = substitute(f, {"x": img}, truncation=((1, 1), 3))
    assert out == P("x^2")
    out2 = substitute(f, {"x": img}, truncation=((1, 1), 4))
    assert out2 == P("x^2+2*x*y^3")


def test_substitute_rejects_constant_terms():
    f = P("x^2")
    with pytest.raises(ValueError):
        substitute(f, {"x": P("x+1")})


def test_substitute_changes_variables():
    f = parse_poly("u^2+v^3", ("u", "v"))
    out = substitute(
        f,
        {
            "u": P("x+y"),
            "v": P("y"),
        },
    )
    assert out == P("x^2+2*x*y+y^2+y^3")


def test_poly_str_ordering():
    f = P("y^7+1/2*x*y^5+x^3")
    assert poly_str(f) == "x^3+1/2*x*y^5+y^7"
    assert poly_str(P("-x^3+x*y")) == "x*y-x^3"
    assert poly_str(SparsePoly.zero(("x", "y"))) == "0"
