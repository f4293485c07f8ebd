import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from arnoldnf.classify import classify
from arnoldnf.errors import PipelineError
from arnoldnf.poly import SparsePoly, parse_poly
from arnoldnf.scalars import (
    QQ,
    AlgebraicScalar,
    FieldTower,
    adjoin_root,
    approximate,
    format_scalar,
    integer_nth_root,
    rational_nth_root,
    scalar_payload,
    tower_of,
)
from harness_samples import harness_germs


def test_integer_nth_root():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(1, 5) == 1
    assert integer_nth_root(64, 3) == 4
    assert integer_nth_root(63, 3) is None
    assert integer_nth_root(10 ** 60, 5) == 10 ** 12


def test_rational_nth_root():
    assert rational_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_nth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert rational_nth_root(Fraction(-4), 2) is None
    assert rational_nth_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rational_nth_root(Fraction(5), 2) is None


def test_rational_arithmetic():
    a = Fraction(3, 4)
    b = Fraction(2)
    assert a + b == Fraction(11, 4)
    assert a * b == Fraction(3, 2)
    assert a / b == Fraction(3, 8)
    assert a - 1 == Fraction(-1, 4)
    assert 1 - a == Fraction(1, 4)
    assert a ** -2 == Fraction(16, 9)
    assert a == Fraction(3, 4)
    assert a
    assert not a - a


def test_cube_root_inverse():
    tower, c = adjoin_root(QQ, 3, 2)
    assert tower.degree == 3
    assert c ** 3 == 2
    inv = c.inverted()
    # 1/2^(1/3) equals 2^(2/3)/2
    assert inv == c * c / 2
    assert inv.coords == (Fraction(0), Fraction(0), Fraction(1, 2))
    assert (c * inv) == 1


def test_adjoin_perfect_power_stays_rational():
    tower, r = adjoin_root(QQ, 2, 4)
    assert tower is QQ or tower.height == 0
    assert type(r) is Fraction and r == 2


def test_adjoin_seventh_root_of_half():
    tower, b = adjoin_root(QQ, 7, Fraction(1, 2))
    assert tower.degree == 7
    assert b ** 7 == Fraction(1, 2)
    fifth = b ** 5
    assert isinstance(fifth, AlgebraicScalar)
    assert fifth ** 7 == Fraction(1, 32)


def test_adjoin_fourth_root_of_four_splits():
    tower, r = adjoin_root(QQ, 4, 4)
    # 4^(1/4) is sqrt(2), one quadratic step only
    assert tower.degree == 2
    assert tower.levels[0][0] == 2
    assert r ** 4 == 4
    assert r ** 2 == 2


def test_adjoin_reuses_existing_radical():
    tower, q = adjoin_root(QQ, 4, 2)
    assert tower.degree == 4
    same_tower, s = adjoin_root(tower, 2, 2)
    assert same_tower == tower
    assert s == q * q
    assert s ** 2 == 2


def test_adjoin_minus_four_uses_gaussian_unit():
    tower, r = adjoin_root(QQ, 4, -4)
    assert tower.degree == 2
    n, rad = tower.levels[0]
    assert n == 2 and type(rad) is Fraction and rad == -1
    assert r ** 4 == -4
    i_unit = tower.generator(0)
    assert r == i_unit + 1


def test_adjoin_zero_rejected():
    with pytest.raises(ValueError):
        adjoin_root(QQ, 3, 0)


def test_field_axioms_random():
    tower, c = adjoin_root(QQ, 3, 2)
    tower, s = adjoin_root(tower, 2, c + 1)
    assert s * s == c + 1
    rng = random.Random(20240814)

    def rand_scalar():
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
        return AlgebraicScalar.make(tower, coords)

    for _ in range(25):
        a, b, c2 = rand_scalar(), rand_scalar(), rand_scalar()
        assert a * (b + c2) == a * b + a * c2
        assert (a + b) * c2 == a * c2 + b * c2
        assert a + b == b + a
        assert not a - a
        if b:
            assert (a * b) / b == a
            assert b * b.inverted() == 1


def test_cross_tower_promotion():
    t1, c = adjoin_root(QQ, 3, 2)
    t2, s = adjoin_root(t1, 2, c + 1)
    mixed = c + s
    assert mixed - s == c
    assert (mixed * mixed) == c * c + 2 * c * s + c + 1
    t3, other = adjoin_root(QQ, 2, 3)
    with pytest.raises(ValueError):
        _ = c + other


def test_defective_tower_detected_on_inversion():
    # Forcing a redundant quadratic step by hand: x^2 - 4 splits, so the
    # "extension" has zero divisors and (g - 2) cannot be inverted.
    bad = FieldTower(((2, Fraction(4)),))
    g = bad.generator(0)
    assert bool(g - 2)
    with pytest.raises(PipelineError):
        (g - 2).inverted()
    with pytest.raises(ZeroDivisionError):
        1 / (g - g)
    with pytest.raises(ZeroDivisionError):
        AlgebraicScalar(bad, (Fraction(0), Fraction(0))).inverted()


def test_defective_tower_detected_at_height_two():
    # the split step on top of a genuine one: g2 - 2 is a zero divisor
    # of the top level
    _, r2 = adjoin_root(QQ, 2, 2)
    top = r2.tower.extended(2, Fraction(4))
    g2 = top.generator(1)
    with pytest.raises(PipelineError):
        (g2 - 2).inverted()
    with pytest.raises(PipelineError):
        ((g2 - 2) * (r2 + 1)).inverted()
    # the split step below a genuine one: the top-level elimination meets
    # the zero divisor g1 - 2 as its pivot, and inverting that fails one
    # level down
    low = FieldTower(((2, Fraction(4)), (2, Fraction(3))))
    g1, g2 = low.generator(0), low.generator(1)
    with pytest.raises(PipelineError):
        ((g1 - 2) * g2).inverted()
    assert ((g1 + 1) * g2).inverted() * (g1 + 1) * g2 == 1
    with pytest.raises(ZeroDivisionError):
        AlgebraicScalar(low, (Fraction(0),) * 4).inverted()


def test_approximate_rational():
    assert approximate(Fraction(5, 6), 4) == "0.8333"
    assert approximate(Fraction(-5, 6), 4) == "-0.8333"
    assert approximate(Fraction(1, 2), 3) == "0.500"
    assert approximate(Fraction(0), 5) == "0.00000"
    assert approximate(Fraction(7, 2), 0) == "3"


def test_approximate_algebraic():
    _, r2 = adjoin_root(QQ, 2, 2)
    assert approximate(r2, 5) == "1.41421"
    tower, b = adjoin_root(QQ, 7, Fraction(1, 2))
    # b^5 is 2^(-5/7) = 0.6095068...
    assert approximate(b ** 5, 5) == "0.60950"


def test_approximate_complex():
    tower, i_unit = adjoin_root(QQ, 2, -1)
    assert approximate(i_unit, 5) == "0.00000+1.00000*i"
    assert approximate(1 - i_unit, 3) == "1.000-1.000*i"
    assert approximate(i_unit * i_unit, 4) == "-1.0000"
    # components on a cut point.  The Newton point of (2i)^(1/2) lands
    # on 1 + i itself, where the root-distance bound is 0
    _, root_2i = adjoin_root(tower, 2, 2 * i_unit)
    assert approximate(root_2i, 3) == "1.000+1.000*i"
    assert approximate(root_2i, 8) == "1.00000000+1.00000000*i"
    assert approximate(root_2i, 20) == "1.{0}+1.{0}*i".format("0" * 20)
    assert approximate(root_2i - 1, 3) == "0.000+1.000*i"
    # ((-3)^(1/6))^3 = sqrt(3)*i: a real part near 0 truncates to 0
    _, sixth = adjoin_root(QQ, 6, -3)
    assert approximate(sixth ** 3, 6) == "0.000000+1.732050*i"
    # (-4)^(1/4) = 1 + i, adjoined as a level of its own, is enclosed as
    # 4^(1/4)*exp(i*pi/4): its rectangles keep holding the cut points, and
    # past the top scale it prints them
    g = FieldTower(((4, Fraction(-4)),)).generator(0)
    assert approximate(g, 8) == "1.00000000+1.00000000*i"
    assert approximate(-g, 3) == "-1.000-1.000*i"
    assert approximate(g * g, 3) == "0.000+2.000*i"
    assert approximate(g - 1, 0) == "0+1*i"


def test_approximate_thousand_digits_of_a_degree_24_modulus():
    # the E_14 modulus a of a seed-2 `towers` germ lives over
    # ((-1/3)^(1/8), (1/3)^(1/3)), degree 24
    r = classify(parse_poly("3*x^3-x*y^6-3*y^8", ("x", "y")))
    a = dict(r.parameters)["a"]
    assert tower_of(a).degree == 24
    start = time.perf_counter()
    text = approximate(a, 1000)
    assert time.perf_counter() - start < 0.5
    assert text.startswith("0.2150817903413082113646088683")
    assert text.endswith("3869199939579346733570029838*i")


_INDICES = (2, 3, 4, 6)
_RATIONALS = st.fractions(-12, 12, max_denominator=5).filter(bool)


@st.composite
def _tower_values(draw):
    """A tower of height 1-3 over rational radicands of both signs, one
    level (above the first) with the radicand a + b*g over the generator
    g below, and a sparse element over it; with the sympy expression of
    that element, real roots for odd indices of negative reals."""
    height = draw(st.integers(1, 3))
    nested = draw(st.integers(1, height - 1)) if height > 1 else None
    levels, gens, real = [], [], []
    degree = 1
    for i in range(height):
        n = draw(st.sampled_from(_INDICES))
        if i == nested:
            a, b = draw(_RATIONALS), draw(_RATIONALS)
            coords = [Fraction(0)] * degree
            coords[0] = a
            coords[degree // levels[-1][0]] = b
            rad = AlgebraicScalar(FieldTower(levels), tuple(coords))
            expr = sympy.Rational(a) + sympy.Rational(b) * gens[-1]
            is_real = real[-1]
        else:
            rad = draw(_RATIONALS)
            expr = sympy.Rational(rad)
            is_real = True
        negative = is_real and sympy.N(expr, 50) < 0
        if negative and n % 2:
            gens.append(sympy.real_root(expr, n))
        else:
            gens.append(sympy.root(expr, n))
        real.append(is_real and not (negative and n % 2 == 0))
        levels.append((n, rad))
        degree *= n
    tower = FieldTower(levels)
    coords = [Fraction(0)] * degree
    for _ in range(draw(st.integers(1, 3))):
        coords[draw(st.integers(0, degree - 1))] = draw(_RATIONALS)
    value = AlgebraicScalar.make(tower, coords)
    expr = sympy.Integer(0)
    for idx, c in enumerate(coords):
        if c:
            term = sympy.Rational(c)
            for g, e in zip(gens, tower.exps_of(idx)):
                term *= g ** e
            expr += term
    return value, expr


def _reference_part(x, digits):
    """The truncation of x at `digits` places, and whether x lies within
    10^-(digits+20) of a nonzero cut point."""
    s = abs(sympy.Rational(x)) * 10 ** digits
    t = int(sympy.floor(s))
    eps = sympy.Rational(1, 10 ** 20)
    near = (t >= 1 and s - t < eps) or t + 1 - s < eps
    return (-t if x < 0 else t), near


def _reference_text(t, digits):
    sign = "-" if t < 0 else ""
    t = abs(t)
    if digits == 0:
        return f"{sign}{t}"
    return f"{sign}{t // 10 ** digits}.{t % 10 ** digits:0{digits}d}"


def test_approximate_matches_sympy_on_random_towers():
    skipped, compared = [], []

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(_tower_values(), st.integers(0, 60))
    def check(drawn, digits):
        value, expr = drawn
        # sympy evaluates perfect powers, so a rational value is exact
        # here and its cut points are the program's to settle
        exact = expr.is_Rational
        re_x, im_x = expr.as_real_imag() if exact else sympy.N(expr, digits + 30).as_real_imag()
        re_t, re_near = _reference_part(re_x, digits)
        im_t, im_near = _reference_part(im_x, digits)
        if not exact and (re_near or im_near):
            skipped.append(value)
            return
        want = _reference_text(re_t, digits)
        if im_t:
            op = "+" if im_t > 0 else "-"
            want += f"{op}{_reference_text(abs(im_t), digits)}*i"
        assert approximate(value, digits) == want
        compared.append(value)

    check()
    assert len(skipped) <= len(compared) // 10, (len(skipped), len(compared))


def test_format_and_payload():
    tower, c = adjoin_root(QQ, 3, 2)
    value = c * Fraction(1, 2) + 3
    assert format_scalar(value) == "3+1/2*g1"
    payload = scalar_payload(value, digits=4)
    assert payload["tower"] == [
        {
            "index": 3,
            "radicand": {"tower": [], "coeffs": ["2"], "approx": "2.0000"},
        }
    ]
    assert payload["coeffs"] == ["3", "1/2", "0"]
    assert payload["approx"] == "3.6299"


def test_zero_and_trim():
    tower, c = adjoin_root(QQ, 3, 2)
    z = c - c
    assert type(z) is Fraction and not z
    back = (c ** 3) * Fraction(1, 2)
    assert type(back) is Fraction and back == 1


def test_values_landing_in_q_are_fractions():
    # a scalar over Q would equal 2 without hashing like 2
    _, r2 = adjoin_root(QQ, 2, 2)
    for value, want in ((r2 * r2, 2), (r2 ** -2 * 2, 1)):
        assert type(value) is Fraction
        assert value == want and hash(value) == hash(want)
        assert value in {want}


def test_rational_coefficients_stay_plain_fractions(monkeypatch):
    # one scalar protocol: a rational is a Fraction, never a scalar over
    # Q and never a float, and only a value that needs a radical is an
    # AlgebraicScalar; x^3-2/3*x*y^4+y^6 has its J_10 modulus in Q(sqrt 2)
    heights = []
    floats = []
    scalar_init = AlgebraicScalar.__init__
    poly_init = SparsePoly.__init__

    def recording_scalar(self, tower, coords):
        heights.append(tower.height)
        scalar_init(self, tower, coords)

    def recording_poly(self, vars, terms):
        floats.extend(c for c in terms.values() if isinstance(c, float))
        poly_init(self, vars, terms)

    monkeypatch.setattr(AlgebraicScalar, "__init__", recording_scalar)
    monkeypatch.setattr(SparsePoly, "__init__", recording_poly)
    for _, f in harness_germs():
        classify(f)
    built = len(heights)
    r = classify(parse_poly("x^3-2/3*x*y^4+y^6", ("x", "y")))
    assert r.name == "J_10"
    assert len(heights) > built
    assert 0 not in heights
    assert floats == []


# -- level-wise arithmetic against the dense basis reference ----------


def _lifted(value, tower):
    """A rational or a scalar written over a tower it lives in, as a
    scalar even over Q."""
    if isinstance(value, AlgebraicScalar):
        return value.promoted(tower)
    return AlgebraicScalar(tower, (Fraction(value),) + (Fraction(0),) * (tower.degree - 1))


def _reference_product(a, b):
    """The product by exponent tuples: multiply every pair of terms, then
    fold g_i**n_i onto its radicand level by level, top level first."""
    tower = tower_of(a, b)
    terms = {}
    for ea, ca in _lifted(a, tower).iter_terms():
        for eb, cb in _lifted(b, tower).iter_terms():
            e = tuple(x + y for x, y in zip(ea, eb))
            terms[e] = terms.get(e, 0) + ca * cb
    for lev in range(tower.height - 1, -1, -1):
        n, rad = tower.levels[lev]
        folded = {}
        for exps, c in terms.items():
            k, rem = divmod(exps[lev], n)
            if not k:
                folded[exps] = folded.get(exps, 0) + c
                continue
            power = _reference_power(rad, k)
            for pexps, pc in _lifted(power, tower_of(power)).iter_terms():
                e = list(exps)
                e[lev] = rem
                for j, pe in enumerate(pexps):
                    e[j] += pe
                folded[tuple(e)] = folded.get(tuple(e), 0) + c * pc
        terms = folded
    coords = [Fraction(0)] * tower.degree
    for exps, c in terms.items():
        coords[sum(e * s for e, s in zip(exps, tower.strides))] += c
    return AlgebraicScalar.make(tower, coords)


def _reference_power(a, k):
    result = Fraction(1)
    for _ in range(k):
        result = _reference_product(result, a)
    return result


def _reference_inverse(a):
    """Solve a*x = 1 as a dense d x d system over Q, whose columns are
    the products of a with the basis monomials."""
    tower = tower_of(a)
    d = tower.degree
    cols = []
    for j in range(d):
        basis = AlgebraicScalar.make(tower, [Fraction(i == j) for i in range(d)])
        cols.append(_lifted(_reference_product(a, basis), tower).coords)
    m = [[cols[j][i] for j in range(d)] + [Fraction(i == 0)] for i in range(d)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(d):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return AlgebraicScalar.make(tower, [m[i][d] for i in range(d)])


def _towers():
    sqrt2 = adjoin_root(QQ, 2, 2)[0]
    t = adjoin_root(QQ, 4, 2)[0]
    x9 = adjoin_root(t, 4, Fraction(1, 3))[0]
    _, r2 = adjoin_root(QQ, 2, 2)
    nested = adjoin_root(r2.tower, 2, r2 + 1)[0]
    gauss, rho = adjoin_root(QQ, 4, -4 * Fraction(3, 2) ** 4)
    over_i = adjoin_root(gauss, 3, rho + 2)[0]
    t = adjoin_root(QQ, 2, 3)[0]
    t = adjoin_root(t, 4, 5)[0]
    t, s = adjoin_root(t, 2, t.generator(0) + 2)
    big = adjoin_root(t, 2, s - 1)[0]
    return {
        "sqrt2": sqrt2,
        "x9": x9,
        "nested": nested,
        "gauss": gauss,
        "over_i": over_i,
        "deg32": big,
    }


TOWERS = _towers()


def test_reference_towers_have_the_intended_shape():
    assert [t.degree for t in TOWERS.values()] == [2, 16, 4, 2, 6, 32]
    assert TOWERS["gauss"].levels[0][1] == -1
    assert isinstance(TOWERS["nested"].levels[1][1], AlgebraicScalar)
    assert isinstance(TOWERS["over_i"].levels[1][1], AlgebraicScalar)


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_levelwise_product_and_inverse_match_dense_reference(name):
    tower = TOWERS[name]
    rng = random.Random(f"scalars:{name}")
    samples = 6 if tower.degree < 32 else 2

    def element(over):
        coords = [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.6 else 0
            for _ in range(over.degree)
        ]
        coords[rng.randrange(over.degree)] = Fraction(rng.randint(1, 5))
        return AlgebraicScalar.make(over, coords)

    for _ in range(samples):
        a, b = element(tower), element(tower)
        low = element(tower.prefix(rng.randrange(tower.height)))
        assert _lifted(a * b, tower).coords == _lifted(_reference_product(a, b), tower).coords
        assert a * b == _reference_product(a, b)
        assert a * low == _reference_product(a, low)
        assert low * a == a * low
        inv = 1 / a
        assert inv == _reference_inverse(a)
        assert a * inv == 1
        assert (a * low) / low == a
