import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from arnoldnf import newton
from arnoldnf.newton import (
    cubic_root,
    face_compose,
    face_decompose,
    face_jet,
    face_nondegenerate,
    face_span_points,
    newton_polygon,
    quadratic_roots,
    rational_roots,
    repeated_factor,
    two_face_grading,
    uni_divmod,
    uni_eval,
    uni_gcd,
    uni_make,
    uni_monic,
    uni_squarefree,
    uni_yun,
)
from arnoldnf.poly import SparsePoly, parse_poly
from arnoldnf.scalars import QQ, adjoin_root


T = sp.Symbol("t")


def P(text):
    return parse_poly(text, ("x", "y"))


def uni_of(expr):
    """Coefficient list, lowest first, of a univariate sympy polynomial."""
    coeffs = sp.Poly(expr, T).all_coeffs()[::-1]
    return uni_make([Fraction(int(c.p), int(c.q)) for c in coeffs])


def sympy_of(f):
    return sum(sp.Rational(c) * T**k for k, c in enumerate(f))


def test_uni_divmod_and_gcd():
    f = uni_make([-1, 0, 1])
    g = uni_make([1, 1])
    q, r = uni_divmod(f, g)
    assert q == uni_make([-1, 1]) and r == []
    assert uni_gcd(f, g) == uni_make([1, 1])
    assert uni_gcd(uni_make([1, 2, 1]), uni_make([1, 1])) == uni_make([1, 1])


def test_uni_yun():
    blocks = uni_yun(uni_make([-1, -1, 1, 1]))
    assert [(uni_monic(b), m) for b, m in blocks] == [
        (uni_make([-1, 1]), 1),
        (uni_make([1, 1]), 2),
    ]
    rebuilt = sp.Mul(*(sympy_of(b) ** m for b, m in blocks))
    assert uni_of(rebuilt) == uni_make([-1, -1, 1, 1])
    assert uni_squarefree(uni_make([-1, 0, 1]))
    assert not uni_squarefree(uni_make([1, 2, 1]))


def uni_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return uni_make(out)


def field_yun(f):
    """The Yun loop on the field kernels, whatever the coefficients."""
    return newton._yun(uni_monic(uni_make(f)), uni_gcd, uni_divmod)


def sympy_sqf(f):
    """sympy's squarefree decomposition as (monic block, multiplicity)."""
    _, factors = sp.sqf_list(sympy_of(f), T)
    return sorted(((uni_monic(uni_of(b)), m) for b, m in factors), key=lambda p: p[1])


_SMALL = st.integers(-6, 6)
_LEAD = _SMALL.filter(bool)
_FACTOR = st.one_of(
    st.tuples(_SMALL, _LEAD).map(list),
    st.tuples(_SMALL, _SMALL, _LEAD).map(list),
)
_CONTENT = st.fractions(-9, 9, max_denominator=12).filter(bool)


@st.composite
def _products(draw):
    """c * (product of integer linear and quadratic factors raised to
    powers 1-4), x^k factors among them when a constant term is 0."""
    f = [1]
    powers = st.lists(st.tuples(_FACTOR, st.integers(1, 4)), min_size=1, max_size=3)
    for factor, power in draw(powers):
        for _ in range(power):
            f = uni_mul(f, factor)
    content = draw(_CONTENT)
    return [content * c for c in f]


@st.composite
def _near_pure_powers(draw):
    """c * (t - r)^m with one coefficient below the top moved, which the
    closed-form pure power test must refuse."""
    r = draw(st.fractions(-5, 5, max_denominator=6))
    m = draw(st.integers(2, 6))
    f = [Fraction(1)]
    for _ in range(m):
        f = uni_mul(f, [-r, 1])
    k = draw(st.integers(0, m - 2))
    f[k] += draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    content = draw(_CONTENT)
    return [content * c for c in f]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.one_of(_products(), _near_pure_powers()))
def test_integer_yun_matches_sympy_and_the_field_loop(f):
    f = uni_make(f)
    want = sympy_sqf(f)
    got = uni_yun(f)
    assert got == want
    assert got == field_yun(f)
    assert uni_squarefree(f) == all(m == 1 for _, m in want)


def test_pure_power_in_closed_form():
    r = Fraction(-7, 3)
    f = [Fraction(5, 2)]
    for _ in range(5):
        f = uni_mul(f, [-r, 1])
    assert uni_yun(f) == [([-r, 1], 5)]
    assert uni_yun(uni_make([0, 0, 0, 4])) == [(uni_make([0, 1]), 3)]
    f[2] += 1
    assert newton._pure_power(newton.uni_integers(f)[0]) is None
    assert uni_yun(f) == sympy_sqf(f)


def test_prs_gcd_is_primitive():
    f = [c * 6 for c in uni_mul(uni_mul([1, 2], [1, 2]), [-3, 0, 5])]
    g = [c * 4 for c in uni_mul([1, 2], [7, 1])]
    assert newton.uni_prs_gcd(f, g) == [1, 2]
    assert newton.uni_prs_gcd(f, []) == uni_mul(uni_mul([1, 2], [1, 2]), [-3, 0, 5])
    assert newton.uni_prs_gcd([], []) == []
    assert newton.uni_integers(uni_make([Fraction(-3, 4), Fraction(3, 2)])) == (
        [-1, 2],
        Fraction(3, 4),
    )


def test_yun_over_radical_towers():
    # the field kernels still run for lists over a tower
    _, s = adjoin_root(QQ, 2, Fraction(2))
    line = [-s, Fraction(1)]
    f = uni_mul(uni_mul(line, line), [1, 1])
    assert uni_yun(f) == [(uni_make([1, 1]), 1), (line, 2)]
    assert not uni_squarefree(f)
    assert uni_squarefree(uni_mul(line, [s, 1]))
    _, c = adjoin_root(QQ, 3, Fraction(2))
    line = [-c, Fraction(1)]
    rest = [c * c, c, Fraction(1)]  # (t^3 - 2) / (t - c), no root in Q(c)
    f = uni_mul(uni_mul(uni_mul(line, line), line), rest)
    assert uni_yun(f) == [(rest, 1), (line, 3)]
    assert uni_yun(uni_mul(f, rest)) == [(rest, 2), (line, 3)]
    assert not uni_squarefree(f)
    assert uni_squarefree(uni_mul(line, rest))


def test_rational_roots():
    assert rational_roots(uni_make([-6, 11, -6, 1])) == [1, 2, 3]
    assert rational_roots(uni_make([0, -1, 0, 1])) == [-1, 0, 1]
    assert rational_roots(uni_make([2, 0, 1])) == []
    assert rational_roots(uni_make([Fraction(1, 2), 1])) == [Fraction(-1, 2)]
    assert rational_roots(uni_make([0, 0, 1])) == [0]


def test_rational_roots_with_large_coefficients():
    # the integer constant term is near 3*10**36, far beyond a search over
    # its divisors by trial division
    r = Fraction(10 ** 12 + 39, 999983)
    s = Fraction(-(10 ** 12 + 61), 7)
    f = uni_of((T - sp.Rational(r)) ** 2 * (T - sp.Rational(s)) * (T**2 + 3))
    assert rational_roots(f) == [s, r]


def test_quadratic_roots():
    tower, roots = quadratic_roots(QQ, Fraction(1), Fraction(-3), Fraction(2))
    assert tower.height == 0
    assert roots == [Fraction(2), Fraction(1)]
    tower, roots = quadratic_roots(QQ, Fraction(1), Fraction(0), Fraction(-2))
    assert tower.degree == 2
    for r in roots:
        assert r * r == 2
    assert roots[0] + roots[1] == 0


def test_cubic_root_rational():
    tower, r = cubic_root(QQ, uni_make([-6, 11, -6, 1]))
    assert tower.height == 0 and r == 1


def test_cubic_root_radical():
    tower, r = cubic_root(QQ, uni_make([-2, 0, 0, 1]))
    assert r ** 3 == 2
    tower, r = cubic_root(QQ, uni_make([-1, 1, 0, 1]))
    assert r ** 3 + r - 1 == 0
    tower, r = cubic_root(QQ, uni_make([-2, 0, 0, 3]))
    assert r ** 3 == Fraction(2, 3)


def test_cubic_root_degenerate_branches():
    # over Q(sqrt 2), where no rational root is looked for
    tower, r2 = adjoin_root(QQ, 2, Fraction(2))
    # (z - sqrt 2)^3: p = q = 0, the root is minus the shift
    assert cubic_root(tower, [-2 * r2, 6, -3 * r2, 1]) == (tower, r2)
    # (z - sqrt 2)^2 (z + 2 sqrt 2) = z^3 - 6z + 4 sqrt 2: zero radicand
    cubic = uni_make([4 * r2, -6, 0, 1])
    got, root = cubic_root(tower, cubic)
    assert got == tower and not uni_eval(cubic, root)
    # z^3 -+ sqrt 2: a cube root of sqrt 2 adds a level, to degree 6; for
    # z^3 + sqrt 2 the first choice of u^3 is zero and the other is taken
    for sign in (1, -1):
        got, root = cubic_root(tower, [-sign * r2, 0, 0, 1])
        assert (got.height, got.degree) == (2, 6)
        assert root**3 == sign * r2


def test_polygon_two_faces():
    f = P("x^4-2*x^3*y+x^2*y^2+y^5")
    poly = newton_polygon(f)
    assert poly.vertices == [(0, 5), (2, 2), (4, 0)]
    f1, f2 = poly.faces
    assert f1.weight == (3, 2) and f1.degree == 10
    assert f2.weight == (1, 1) and f2.degree == 4


def test_polygon_single_face():
    f = P("x^3+y^7+x*y^6")
    poly = newton_polygon(f)
    assert poly.vertices == [(0, 7), (3, 0)]
    face = poly.faces[0]
    assert face.weight == (7, 3) and face.degree == 21
    assert face_jet(f, face) == P("x^3+y^7")


def test_face_span():
    f = P("x^2*y+y^4")
    face = newton_polygon(f).faces[0]
    assert face.weight == (3, 2)
    assert face_span_points(face) == [(0, 4), (2, 1)]


def test_two_face_grading():
    f = P("x^4-2*x^3*y+x^2*y^2+y^5")
    f1, f2 = newton_polygon(f).faces
    weights, degree, span = two_face_grading(f1, f2)
    assert degree == 20
    assert weights == ((6, 4), (5, 5))
    assert span == [(0, 5), (2, 2), (3, 1), (4, 0)]


def _reference_chain(points):
    # the quadratic Pareto filter, then the convex chain over what it keeps
    pts = sorted(set(points))
    minimal = [
        p
        for p in pts
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
    ]
    chain = []
    for p in minimal:
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def _random_support(rng):
    # a small grid makes repeated x and dominated points common; a
    # lattice segment adds collinear points on and above the boundary
    n = rng.randint(1, 10)
    points = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(n)]
    if rng.random() < 0.5:
        (i0, j0), (i1, j1) = (0, rng.randint(2, 12)), (rng.randint(2, 12), 0)
        g = math.gcd(i1 - i0, j0 - j1)
        step = ((i1 - i0) // g, (j1 - j0) // g)
        shift = rng.randint(0, 2)
        points += [(i0 + k * step[0], j0 + k * step[1] + shift) for k in range(g + 1)]
    return points


def test_polygon_vertices_match_the_pareto_reference():
    rng = random.Random(1604)
    for _ in range(400):
        points = _random_support(rng)
        f = SparsePoly.build(("x", "y"), {e: 1 for e in points})
        assert newton_polygon(f).vertices == _reference_chain(points), points


def _reference_span(w1, w2, common):
    pts = set()
    for w_on, w_other in ((w1, w2), (w2, w1)):
        for i in range(common // w_on[0] + 1):
            rest = common - w_on[0] * i
            if rest % w_on[1] == 0:
                j = rest // w_on[1]
                if w_other[0] * i + w_other[1] * j >= common:
                    pts.add((i, j))
    return sorted(pts)


def test_two_face_span_matches_the_line_enumeration():
    rng = random.Random(4774)
    checked = 0
    for _ in range(400):
        points = _random_support(rng)
        f = SparsePoly.build(("x", "y"), {e: 1 for e in points})
        faces = newton_polygon(f).faces
        for f1, f2 in zip(faces, faces[1:]):
            (w1, w2), common, span = two_face_grading(f1, f2)
            assert span == _reference_span(w1, w2, common)
            checked += 1
    assert checked > 50


def test_face_decompose_and_compose():
    f = P("x^4+2*x^2*y^3+y^6+x*y^5")
    face = newton_polygon(f).faces[0]
    jet = face_jet(f, face)
    assert jet == P("x^4+2*x^2*y^3+y^6")
    a, b, h = face_decompose(jet, face)
    assert (a, b) == (0, 0)
    assert h == uni_make([1, 2, 1])
    assert face_compose(("x", "y"), a, b, h, face) == jet
    assert not face_nondegenerate(jet, face)
    assert face_nondegenerate(P("x^4+3*x^2*y^3+y^6"), face)


def test_repeated_factor():
    f = P("x^4+2*x^2*y^3+y^6")
    face = newton_polygon(f).faces[0]
    factor, mult = repeated_factor(f, face)
    assert mult == 2
    assert factor == P("x^2+y^3")
    g = P("x^2*y^2+y^5")
    face2 = newton_polygon(g).faces[0]
    factor2, mult2 = repeated_factor(face_jet(g, face2), face2)
    assert (factor2, mult2) == (P("y"), 2)
