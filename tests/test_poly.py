import ast
import operator
from fractions import Fraction

import pytest
import sympy
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
from arnoldnf.scalars import QQ, adjoin_root, tower_of
from harness_samples import harness_germs


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
    # any name the tokenizer reads whole may be a variable
    h = parse_poly("_a^2+x1*b\u00b2", ("_a", "x1", "b\u00b2"))
    assert h.terms == P("x^2+y*z", ("x", "y", "z")).terms


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
    "vars, message",
    [
        (("x", "x"), "variable 'x' is repeated"),
        (("x", "y", "x"), "variable 'x' is repeated"),
        (("2x", "y"), "variable '2x' is not a name"),
        (("x", " y"), "variable ' y' is not a name"),
        (("x", "y+z"), "variable 'y+z' is not a name"),
        (("x", ""), "variable '' is not a name"),
        (("\u00b2x", "y"), "variable '\u00b2x' is not a name"),
    ],
)
def test_variable_list_holds_distinct_names(vars, message):
    # a name the tokenizer never reads as one name could never be
    # matched in the text, and a repeated name would give one variable
    # two exponent positions
    with pytest.raises(ValueError) as err:
        parse_poly("y^3", vars)
    assert not isinstance(err.value, ParseError)
    assert str(err.value) == message


_LEAF = st.one_of(
    st.sampled_from([("x", 1), ("y", 1)]),
    st.integers(0, 12).map(lambda n: (str(n), 0)),
    st.tuples(st.integers(0, 12), st.integers(1, 12)).map(
        lambda t: (f"{t[0]}/{t[1]}", 0)
    ),
)


@st.composite
def _expression(draw, depth=4):
    """(text, degree bound) of an expression tree in x and y.  A power
    raises a parenthesised sum to 0-6, and less where the degree would
    pass 12, so that every expansion stays small."""
    kind = draw(st.sampled_from(["leaf", "+", "-", "*", "*", "^", "^", "neg"]))
    if depth == 0 or kind == "leaf":
        return draw(_LEAF)
    a, da = draw(_expression(depth - 1))
    if kind == "neg":
        return f"-{a}", da
    b, db = draw(_expression(depth - 1))
    if kind == "^":
        d = max(da, db, 1)
        k = draw(st.sampled_from(range(min(6, 12 // d) + 1)))
        return f"({a}{draw(st.sampled_from('+-'))}{b})^{k}", d * k
    return f"{a}{kind}{b}", da + db if kind == "*" else max(da, db)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_expression())
def test_parse_arithmetic_matches_sympy_expand(expression):
    text, _ = expression
    got = dict(P(text).terms)
    x, y = sympy.symbols("x y")
    expanded = sympy.expand(sympy.sympify(text.replace("^", "**")))
    want = {
        e: Fraction(int(c.p), int(c.q))
        for e, c in sympy.Poly(expanded, x, y).as_dict().items()
    }
    assert got == want, text


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def _evaluate(node, vars):
    """An `_expression` tree, as Python's own parser reads its text,
    evaluated through SparsePoly's operators."""
    if isinstance(node, ast.Name):
        return SparsePoly.variable(vars, node.id)
    if isinstance(node, ast.Constant):
        return SparsePoly.constant(vars, node.value)
    if isinstance(node, ast.UnaryOp):
        return -_evaluate(node.operand, vars)
    left = _evaluate(node.left, vars)
    if isinstance(node.op, ast.Pow):
        return left ** node.right.value
    if isinstance(node.op, ast.Div):
        # "p/q" is one rational, which Python reads as "(... * p) / q"
        return left * Fraction(1, node.right.value)
    return _OPERATORS[type(node.op)](left, _evaluate(node.right, vars))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_expression())
def test_operators_match_the_parser_term_for_term(expression):
    # SparsePoly's +, -, unary -, * and ** run the parser's kernels: the
    # same terms, inserted in the same order
    text, _ = expression
    tree = ast.parse(text.replace("^", "**"), mode="eval").body
    got = _evaluate(tree, ("x", "y"))
    assert list(got.terms.items()) == list(P(text).terms.items()), text


def test_printed_harness_germs_parse_back():
    count = 0
    for key, f in harness_germs():
        if tower_of(*f.terms.values()) is QQ:
            assert parse_poly(poly_str(f), f.vars) == f, key
            count += 1
    assert count == 162


def test_parse_makes_one_scalar_per_term(monkeypatch):
    # the 26-term Z_1,0 tangent image of the benchmark's seed-1 one-face
    # corpus: the parser evaluates on rational terms, so it runs no
    # polynomial arithmetic and each coefficient comes out a Fraction
    text = (
        "x^3*y+4*x^3*y^2-x^2*y^3+2*x^2*y^4-16*x^3*y^4+8*x^2*y^5+x*y^6+y^7"
        "-16*x^3*y^5-16*x^2*y^6-10*x*y^7-14*y^8-16*x^2*y^7+36*x*y^8+84*y^9"
        "+32*x^2*y^8-40*x*y^9-280*y^10-80*x*y^10+560*y^11+288*x*y^11"
        "-672*y^12-320*x*y^12+448*y^13+128*x*y^13-128*y^14"
    )
    calls = []

    def counting(name, inner):
        def wrapper(*args):
            calls.append(name)
            return inner(*args)

        return wrapper

    for name in ("__mul__", "__pow__", "__add__"):
        monkeypatch.setattr(
            SparsePoly, name, counting(name, getattr(SparsePoly, name))
        )
    f = parse_poly(text)
    assert len(f.terms) == 26
    assert all(type(c) is Fraction for c in f.terms.values())
    assert calls == []


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
    _, r2 = adjoin_root(QQ, 2, 2)
    xyz = ("x", "y", "z")
    cases = [
        (P("x+y^2"), P("x^2+y"), (1, 1), 2),
        # an empty operand over zero variables, where the weight is ()
        (SparsePoly((), {}), SparsePoly.constant((), 3), (), 0),
        (SparsePoly.constant((), 3), SparsePoly((), {}), (), 0),
        (P("2+x-x^3", ("x",)), P("x^2+1/3*x^5", ("x",)), (2,), 9),
        (P("x*y+z^2-3*x^3", xyz), P("1+y*z-x^2*z+1/2*y^3", xyz), (1, 2, 3), 8),
        (P("x^2+y^3") * r2, P("x-y^2") + P("x*y") * (1 + r2), (2, 1), 5),
    ]
    for a, b, w, bound in cases:
        assert mul_trunc(a, b, w, bound) == wjet(a * b, w, bound)


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
