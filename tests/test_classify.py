import random
import signal
from fractions import Fraction

import pytest

from arnoldnf.catalog import instantiate
from arnoldnf.classify import classify
from arnoldnf.cli import _PALETTE
from arnoldnf.errors import Rejection
from arnoldnf.poly import SparsePoly, parse_poly, substitute
from arnoldnf.scalars import approximate, format_scalar, format_tower
from arnoldnf.transform import apply_linear
from milnor_oracle import brute_milnor


def P(text, vars=("x", "y")):
    return parse_poly(text, vars)


def params_of(result):
    return {name: value for name, value in result.parameters}


def rational_params(result):
    values = dict(result.parameters)
    assert all(type(v) is Fraction for v in values.values())
    return values


# -- input validation ------------------------------------------------


def test_zero_polynomial_raises():
    with pytest.raises(ValueError):
        classify(P("0"))


def test_constant_part_raises():
    with pytest.raises(ValueError):
        classify(P("1 + x^2"))


def test_linear_part_raises():
    with pytest.raises(ValueError):
        classify(P("x + y^2"))


# -- corank zero and one ---------------------------------------------


def test_nondegenerate_quadratic_is_a1():
    r = classify(P("x^2 + y^2"))
    assert r.name == "A_1"
    assert r.key == "A_k"
    assert r.indices == (1,)
    assert r.mu == 1
    assert r.modality == 0
    assert r.parameters == []


def test_corank_one_reads_index_from_milnor_number():
    r = classify(P("x^2 + y^5"))
    assert r.name == "A_4"
    assert r.mu == 4
    assert r.parts == [(1, (5,))]


def test_three_variables_stabilize():
    r = classify(P("x^2 + y^2 + z^2", ("x", "y", "z")))
    assert r.name == "A_1"
    assert r.mu == 1


def test_suspension_of_e7():
    r = classify(P("z^2 + x^3 + x*y^3", ("x", "y", "z")))
    assert r.name == "E_7"
    assert r.mu == 7
    assert r.corank == 2


# -- simple corank two families --------------------------------------


def test_d_series():
    r = classify(P("x^2*y + x*y^3"))
    assert r.name == "D_6"
    assert r.key == "D_k"
    assert r.mu == 6
    assert r.modality == 0
    assert r.parts == [(1, (2, 1)), (1, (0, 5))]


def test_d_series_longer_tail():
    r = classify(P("x^2*y + x*y^4"))
    assert r.name == "D_8"
    assert r.mu == 8


def test_e7():
    r = classify(P("x^3 + x*y^3 + y^5"))
    assert r.name == "E_7"
    assert r.mu == 7
    assert r.parameters == []


def test_e8_with_swapped_variables():
    r = classify(P("x^5 + x^2*y^2 + y^3"))
    assert r.name == "E_8"
    assert r.mu == 8


# -- unimodal families -----------------------------------------------


def test_e12_modulus_is_a_seventh_root():
    r = classify(P("x^3 + 2*y^7 + x*y^5"))
    assert r.name == "E_12"
    assert r.mu == 12
    assert r.modality == 1
    a = params_of(r)["a"]
    p = a
    for _ in range(6):
        p = p * a
    assert type(p) is Fraction and p == Fraction(1, 32)
    assert approximate(a, 5) == "0.60950"


def test_e12_zero_modulus():
    r = classify(P("x^3 + y^7 + x*y^6"))
    assert r.name == "E_12"
    assert params_of(r)["a"] == 0


def test_e13_zero_modulus():
    r = classify(P("x^3 + x*y^5"))
    assert r.name == "E_13"
    assert r.mu == 13
    assert params_of(r)["a"] == 0


def test_z11_with_spectator_tail():
    r = classify(P("x^3*y + y^5 + x^5"))
    assert r.name == "Z_11"
    assert r.mu == 11
    assert params_of(r)["a"] == 0


def test_j10_modulus_lands_in_a_radical_tower():
    r = classify(P("x^3 + x^2*y^2 + x*y^4 + y^9"))
    assert r.name == "J_10"
    assert r.mu == 10
    a = params_of(r)["a"]
    assert format_scalar(a) == "1/2*g1*g2^2"
    assert format_tower(a.tower) == [
        "g1 = (-8)^(1/2)",
        "g2 = (-7/3-2/3*g1)^(1/6)",
    ]
    assert 4 * a * a * a + 27 != 0


def test_j_series_corner_with_rational_modulus():
    r = classify(P("x^3 + x^2*y^2 + x*y^5"))
    assert r.name == "J_12"
    assert r.key == "J_10+k"
    assert r.indices == (12,)
    assert rational_params(r) == {"a": Fraction(-1, 4)}


def test_y_series_from_skew_quartic():
    r = classify(P("x^2*y^2 - 2*x^3*y + x^4 + y^5"))
    assert r.name == "Y_5,5"
    assert r.key == "Y_r,s"
    assert r.indices == (5, 5)
    assert r.mu == 11
    assert rational_params(r) == {"a": Fraction(1)}


def test_y_series_asymmetric_arms():
    r = classify(P("x^2*y^2 + x^4*y + x^7 + y^5"))
    assert r.name == "Y_6,5"
    assert r.mu == 12
    a = params_of(r)["a"]
    assert format_scalar(a) == "g1^2"
    assert format_tower(a.tower) == ["g1 = (-4)^(1/6)"]


def test_y_series_long_arm():
    r = classify(P("x^5 + x^2*y^2 + 2*x*y^4 + y^6"))
    assert r.name == "Y_10,5"
    assert r.mu == 16
    assert rational_params(r) == {"a": Fraction(-1)}


# After the double line jet x^2*y^2 is straightened (the variables swap,
# so each germ below is read with x and y exchanged), the anchor is
# (2, 2) and the boundary walk trades an end vertex (k + 2, 1) for a
# pure power of x.  With y -> y - c*x^k the pieces x^2*y^2 + 2c*x^(k+2)*y
# complete to x^2*(y + c*x^k)^2 - c^2*x^(2k+2); the unit monomials then
# scale to one by x -> alpha*x, y -> y, leaving a = alpha^2.


def test_y_series_square_completion():
    # swapped: x^2*y^2 + x^4*y + x^9 + y^5; y -> y - x^2/2 leaves
    # -x^6/4 + x^2*y^2 + y^5, so alpha^6 = -4 and a^3 = -4
    f = P("x^2*y^2+x*y^4+y^9+x^5")
    r = classify(f)
    assert (r.name, r.mu) == ("Y_6,5", 12)
    assert brute_milnor(f) == 12
    assert "completed the square: y by -(1/2)*x^2" in r.trace
    assert params_of(r)["a"] ** 3 == -4


def test_y_series_square_completion_long_arms():
    # swapped: x^2*y^2 + x^5*y + x^9 + y^6; y -> y - x^3/2 leaves
    # -x^8/4 + x^2*y^2 + y^6, so alpha^8 = -4 and a^4 = -4
    f = P("x^2*y^2+x*y^5+x^6+y^9")
    r = classify(f)
    assert (r.name, r.mu) == ("Y_8,6", 15)
    assert brute_milnor(f) == 15
    assert "completed the square: y by -(1/2)*x^3" in r.trace
    assert params_of(r)["a"] ** 4 == -4


def test_y_series_exposed_x_end():
    # swapped: x^2*y^2 + x^5*y + y^5 has no pure power of x; the face
    # shift y -> y + x^3 exposes one, making the face jet
    # x^2*y^2 + 3*x^5*y + 2*x^8, and its square completion
    # y -> y - 3/2*x^3 leaves x^2*y^2 - x^8/4 + y^5, so alpha^8 = -4
    # and a^4 = -4
    f = P("x^2*y^2+x*y^5+x^5")
    r = classify(f)
    assert (r.name, r.mu) == ("Y_8,5", 14)
    assert brute_milnor(f) == 14
    assert "shifted y by 1 along the face" in r.trace
    assert params_of(r)["a"] ** 4 == -4


def test_y_series_sheared_double_line():
    # x^2*y^2 + 2*x*y^4 + y^6 = y^2*(x + y^2)^2; swapped, y -> y - x^2
    # shears the double line to x^2*y^2 and leaves y^5 - x^10 below it,
    # so alpha^10 = -1 and a^5 = -1
    f = P("x^2*y^2+2*x*y^4+y^6+x^5")
    r = classify(f)
    assert (r.name, r.mu) == ("Y_10,5", 16)
    assert brute_milnor(f) == 16
    assert "sheared y by -(1)*x^2" in r.trace
    assert params_of(r)["a"] ** 5 == -1


def test_j10_face_shift_with_equally_spaced_roots():
    # the face cubic t^3 + t has equally spaced roots; x -> x + y^2 gives
    # it a middle term, and x^3 + a*x^2*y^2 + y^6 has such a face cubic
    # exactly when q = 2*a^3/27 + 1 vanishes, so a^3 = -27/2
    f = P("x^3+x*y^4")
    r = classify(f)
    assert (r.name, r.mu) == ("J_10", 10)
    assert "shifted x by 1 along the face" in r.trace
    a = params_of(r)["a"]
    assert a ** 3 == Fraction(-27, 2)
    assert 2 * a ** 3 / 27 + 1 == 0


# -- bimodal families ------------------------------------------------


def test_j30_moduli_share_one_tower():
    r = classify(P("x^3 + x^2*y^3 + x*y^6 + y^10"))
    assert r.name == "J_3,0"
    assert r.mu == 16
    assert r.modality == 2
    values = params_of(r)
    assert format_scalar(values["b"]) == "1/2*g1*g2^3"
    assert format_scalar(values["c"]) == "28/27*g2^7+8/27*g1*g2^7"
    assert format_tower(values["b"].tower) == [
        "g1 = (-8)^(1/2)",
        "g2 = (-7/3-2/3*g1)^(1/9)",
    ]


def test_j31_catalog_instance():
    r = classify(P("x^3 + x^2*y^3 + y^10 + 2*y^11"))
    assert r.name == "J_3,1"
    assert r.mu == 17
    assert rational_params(r) == {"a0": Fraction(1), "a1": Fraction(2)}


def test_j31_tail_in_the_jacobian_ideal_changes_nothing():
    r = classify(P("x^3 + x^2*y^3 + y^10 + 2*y^11 + x^2*y^4"))
    assert r.name == "J_3,1"
    assert rational_params(r) == {"a0": Fraction(1), "a1": Fraction(-4, 3)}


def test_z10_moduli():
    r = classify(P("x^3*y + x*y^5"))
    assert r.name == "Z_1,0"
    assert r.mu == 15
    values = params_of(r)
    assert format_scalar(values["d"]) == "1/2*g1*g2^3*g3^2"
    assert values["c"] == 0


def test_w10_rational_moduli():
    r = classify(P("x^4 + x^2*y^3 + 2*x^2*y^5 + y^6 + x*y^5"))
    assert r.name == "W_1,0"
    assert r.mu == 15
    assert rational_params(r) == {"a0": Fraction(1), "a1": Fraction(-43, 72)}


def test_double_core_odd_member():
    r = classify(P("(x^2+y^3)^2 + x*y^5"))
    assert r.name == "W#_1,1"
    assert r.key == "W#_1,2q-1"
    assert r.indices == (1, 1)
    assert r.mu == 16
    assert rational_params(r) == {"a0": Fraction(1), "a1": Fraction(0)}


def test_double_core_even_member():
    r = classify(P("(x^2+y^3)^2 + y^7 + y^8"))
    assert r.name == "W#_1,2"
    assert r.key == "W#_1,2q"
    assert r.mu == 17
    assert rational_params(r) == {"a0": Fraction(-1), "a1": Fraction(-1, 12)}


# -- round trips through catalog instantiation -----------------------


def test_round_trip_e14():
    f = instantiate("E_14", (14,), {"a": Fraction(3)})
    r = classify(f)
    assert (r.key, r.indices) == ("E_14", (14,))
    assert rational_params(r) == {"a": Fraction(3)}


def test_round_trip_z1p():
    f = instantiate("Z_1,p", (1, 2), {"a0": Fraction(-2), "a1": Fraction(1, 3)})
    r = classify(f)
    assert (r.key, r.indices) == ("Z_1,p", (1, 2))
    assert r.mu == 17
    assert rational_params(r) == {"a0": Fraction(-2), "a1": Fraction(1, 3)}


def test_round_trip_double_core():
    f = instantiate(
        "W#_1,2q-1", (1, 3), {"a0": Fraction(5), "a1": Fraction(-1, 2)}
    )
    r = classify(f)
    assert (r.key, r.indices) == ("W#_1,2q-1", (1, 3))
    assert r.mu == 18
    assert rational_params(r) == {"a0": Fraction(5), "a1": Fraction(-1, 2)}


@pytest.mark.parametrize(
    "key, indices, a0, a1",
    [
        ("W#_1,2q-1", (1, 1), Fraction(3), Fraction(-1, 2)),
        ("W#_1,2q", (1, 2), Fraction(-2), Fraction(3, 2)),
        ("W#_1,2q-1", (1, 3), Fraction(1, 2), Fraction(2)),
    ],
)
def test_double_core_negative_cross_term(key, indices, a0, a1):
    # under y -> -y the cross term x^2*y^3 lands on -2, and the y scale
    # root is negated to send it back to 2
    f = instantiate(key, indices, {"a0": a0, "a1": a1})
    g = apply_linear(f, ((1, 0), (0, -1)))
    assert g.coeff((2, 3)) == -2
    r = classify(g)
    assert (r.key, r.indices) == (key, indices)
    assert rational_params(r) == {"a0": a0, "a1": a1}


@pytest.mark.parametrize("i", range(7, 25))
@pytest.mark.parametrize(
    "a0, a1", [(Fraction(3), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(2))]
)
def test_double_core_round_trips_at_large_index(i, a0, a1):
    # past the harness rows (i <= 6): an image cut at mu + 2, as the
    # harness cuts it, and the mirror y -> -y give back the index and
    # both moduli.  The walk undoes the x/2 of the y image only up to the
    # flow that fixes the core, so that image runs the flow at every i
    key = "W#_1,2q-1" if i % 2 else "W#_1,2q"
    f = instantiate(key, (1, i), {"a0": a0, "a1": a1})
    tangent = {"x": P("x+y^2-1/2*x*y"), "y": P("y+1/2*x+x^2")}
    images = [
        substitute(f, tangent, truncation=((1, 1), 17 + i)),
        apply_linear(f, ((1, 0), (0, -1))),
    ]
    for g in images:
        r = classify(g)
        assert (r.key, r.indices, r.mu) == (key, (1, i), 15 + i)
        assert rational_params(r) == {"a0": a0, "a1": a1}


@pytest.mark.parametrize(
    "text, name, values, towers",
    [
        (
            "2*x^4+8*x^2*y^3+8*y^6+x*y^5+3*x*y^6",
            "W#_1,1",
            ["1/4*g1^3", "3/8*g1"],
            [["g1 = (1/2)^(1/4)"]] * 2,
        ),
        (
            "5*x^4+10*x^2*y^3+5*y^6+x*y^7+x*y^8+x^3*y^3",
            "W#_1,3",
            ["-1/5*g1", "1/5*g1*g2"],
            [["g1 = (1/5)^(1/4)"], ["g1 = (1/5)^(1/4)", "g2 = (g1^2)^(1/3)"]],
        ),
    ],
)
def test_double_core_rescaling_through_radicals(text, name, values, towers):
    # the square is scaled onto (x^2+y^3)^2 by a fourth root for x and a
    # sixth root for y, adjoined in that order; the tower layout of the
    # moduli depends on it
    r = classify(P(text))
    assert r.name == name
    assert [format_scalar(v) for _, v in r.parameters] == values
    assert [format_tower(v.tower) for _, v in r.parameters] == towers


def test_round_trip_e19():
    f = instantiate("E_19", (19,), {"a0": Fraction(1, 2), "a1": Fraction(4)})
    r = classify(f)
    assert (r.key, r.indices) == ("E_19", (19,))
    assert rational_params(r) == {"a0": Fraction(1, 2), "a1": Fraction(4)}


def test_round_trip_x9k():
    f = instantiate("X_9+k", (11,), {"a": Fraction(7, 2)})
    r = classify(f)
    assert (r.key, r.indices) == ("X_9+k", (11,))
    assert r.mu == 11
    assert rational_params(r) == {"a": Fraction(7, 2)}


# -- invariance under coordinate changes -----------------------------


def test_linear_change_preserves_type_and_moduli():
    f = P("x^3 + x^2*y^2 + x*y^5")
    g = substitute(
        f,
        {"x": P("x + 2*y"), "y": P("y - x")},
        truncation=((1, 1), 14),
    )
    r = classify(g)
    assert r.name == "J_12"
    assert rational_params(r) == {"a": Fraction(-1, 4)}


def test_tangent_change_preserves_type_and_moduli():
    f = P("x^3 + x^2*y^3 + y^10 + 2*y^11")
    g = substitute(
        f,
        {"x": P("x + 1/2*x^2 - y^2"), "y": P("y + 1/3*x*y")},
        truncation=((1, 1), 19),
    )
    r = classify(g)
    assert r.name == "J_3,1"
    assert rational_params(r) == {"a0": Fraction(1), "a1": Fraction(2)}


# -- the X_9 modulus of a quartic jet that is not even ---------------


def _quartic_invariants(c):
    """I and J of c[0]*x^4 + c[1]*x^3*y + ... + c[4]*y^4, scaled so that
    x^4 + a*x^2*y^2 + y^4 has I = 12 + a^2 and J = a*(72 - 2*a^2)."""
    i = 12 * c[0] * c[4] - 3 * c[1] * c[3] + c[2] ** 2
    j = (
        72 * c[0] * c[2] * c[4]
        + 9 * c[1] * c[2] * c[3]
        - 27 * c[0] * c[3] ** 2
        - 27 * c[4] * c[1] ** 2
        - 2 * c[2] ** 3
    )
    return i, j


def _x9_modulus(g):
    """Classify g as X_9 and return its a, after checking exactly, in
    tower arithmetic, that x^4 + a*x^2*y^2 + y^4 has the j-invariant of
    the quartic jet of g: I^3 * J(a)^2 == J^2 * I(a)^3."""
    r = classify(g)
    assert (r.key, r.mu) == ("X_9", 9)
    ((name, a),) = r.parameters
    assert name == "a"
    i, j = _quartic_invariants([g.coeff((4 - k, k)) for k in range(5)])
    ia, ja = 12 + a * a, a * (72 - 2 * a * a)
    assert i ** 3 * ja ** 2 - j ** 2 * ia ** 3 == 0
    return a


_SMALL = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


def _x9_linear_samples():
    rng = random.Random(9)
    tail = P("x^2*y^3-1/2*x^5")
    for a in _PALETTE:
        if a * a == 4:
            continue
        while True:
            rows = [[rng.choice(_SMALL) for _ in range(2)] for _ in range(2)]
            if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
                break
        yield apply_linear(instantiate("X_9", (9,), {"a": a}) + tail, rows, 11)


def _x9_random_quartics(count):
    rng = random.Random(4)
    tail = P("x^3*y^2+y^6")
    while count:
        c = [rng.choice(_SMALL) for _ in range(5)]
        i, j = _quartic_invariants(c)
        if 4 * i ** 3 == j * j:
            continue  # a repeated root, or the zero form
        count -= 1
        terms = {(4 - k, k): c[k] for k in range(5)}
        yield SparsePoly.build(("x", "y"), terms) + tail


@pytest.mark.parametrize(
    "g", list(_x9_linear_samples()) + list(_x9_random_quartics(8))
)
def test_x9_modulus_of_a_general_quartic_jet(g):
    _x9_modulus(g)


def test_x9_modulus_pinned_for_even_jets_with_unit_ends():
    for a in _PALETTE:
        if a * a != 4:
            g = instantiate("X_9", (9,), {"a": a}) + P("x^3*y^2-x*y^5")
            assert _x9_modulus(g) == a


def test_x9_modulus_when_both_ends_vanish():
    # the x^4 end is exposed by a shear before the jet is read
    a = _x9_modulus(P("x^3*y+x*y^3"))
    assert a * (72 - 2 * a * a) == 0


def test_x9_modulus_of_an_even_jet_with_other_ends():
    assert _x9_modulus(P("2*x^4+3*x^2*y^2+5*y^4")) ** 2 == Fraction(9, 10)


def test_x9_modulus_when_i_vanishes():
    # I = 12*0*1 - 3*1*0 + 0 = 0, so I(a) = 12 + a^2 = 0
    assert _x9_modulus(P("y^4+x^3*y")) ** 2 == -12


# -- rejections ------------------------------------------------------


def test_corank_three_rejected():
    with pytest.raises(Rejection) as exc:
        classify(P("x^3 + y^3 + z^3", ("x", "y", "z")))
    assert exc.value.reason == "corank>2"


def test_non_isolated_rejected():
    with pytest.raises(Rejection) as exc:
        classify(P("x^2*y^2"))
    assert exc.value.reason == "non-isolated"


@pytest.mark.parametrize(
    "text, vars",
    [
        ("x^2*y^2+x^2*y^3", ("x", "y")),
        ("2*(x^2+3*y^3)^2", ("x", "y")),
        ("x^2*y*(x+3*y)", ("x", "y")),
        ("x^2+y^2*z^2", ("x", "y", "z")),
        ("x^2+(y^2+z^3)^2", ("x", "y", "z")),
    ],
)
def test_non_isolated_germs_rejected(text, vars):
    with pytest.raises(Rejection) as exc:
        classify(P(text, vars))
    assert exc.value.reason == "non-isolated"


def _partials_share_a_curve_through_origin(text):
    # test-only oracle: a common factor of the partials that vanishes at
    # the origin is a curve of critical points through it
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    f = sympy.sympify(text.replace("^", "**"))
    common = sympy.gcd(sympy.diff(f, x), sympy.diff(f, y))
    return common.subs({x: 0, y: 0}) == 0


@pytest.mark.parametrize(
    "text",
    [
        "y^2+y^3+x*y^3+1/2*x^3*y^6",
        "3/2*x^2+1/2*x^2*y^6-1/3*x^3*y+1/2*x^3*y^3",
        "-3*y^2-x*y^3+1/2*x^4*y^4+1/2*x^6*y^2",
        "x^2+x^2*y^3+3/2*x^3*y^5-3*x^4*y^4-x^6*y^2",
        "-3*x^2-x^2*y-1/3*x^3*y+3/2*x^3*y^3",
        "1/2*x^2-1/3*x^2*y^6-x^3*y^3-1/3*x^3*y^4-3*x^5*y",
        "3/2*x^2-x^3+3/2*x^3*y^4+x^3*y^5-3*x^6*y",
        "y^2-y^5+2*x^2*y^4+3/2*x^3*y^2-3*x^5*y^2",
        "1/2*y^2+1/2*y^3+2*y^4+x^2*y^2-3*x^2*y^5",
    ],
)
def test_non_isolated_corank_one_rejected_within_budget(text):
    # the Morse variable's partial vanishes on a curve through 0, so the
    # residual is zero at every bound; splitting term by term instead
    # ran one substitution per term up to the cutoff, for tens of seconds
    assert _partials_share_a_curve_through_origin(text)

    def out_of_time(*args):
        raise TimeoutError("splitting ran past its budget")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(4)
    try:
        with pytest.raises(Rejection) as exc:
            classify(P(text))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert exc.value.reason == "non-isolated"


def test_degenerate_quintic_jet_rejected():
    with pytest.raises(Rejection) as exc:
        classify(P("x^5 + y^5"))
    assert exc.value.reason == "modality>2"


def test_boundary_beyond_the_tables_rejected():
    with pytest.raises(Rejection) as exc:
        classify(P("x^4 + y^8"))
    assert exc.value.reason == "modality>2"


def test_z_series_beyond_the_tables_rejected():
    with pytest.raises(Rejection) as exc:
        classify(P("x^3*y + x*y^7"))
    assert exc.value.reason == "modality>2"


# -- long series -----------------------------------------------------


def test_d_series_with_mu_past_80():
    r = classify(P("x^2*y+y^80"))
    assert r.name == "D_81"
    assert r.mu == 81


@pytest.mark.parametrize("k, name, mu", [(78, "J_3,69", 85), (79, "J_3,70", 86)])
def test_j3p_series_with_mu_past_84(k, name, mu):
    r = classify(P(f"x^3+x^2*y^3+y^{k}"))
    assert r.name == name
    assert r.mu == mu
    assert rational_params(r) == {"a0": 1, "a1": 0}


# -- corner germs cut at their determinacy degree --------------------


def test_j31_tail_off_the_normal_form():
    # x -> x*(1+y)^(-1/3), y -> y*(1+y)^(2/9) takes x^3*(1+y) to x^3,
    # keeps x^2*y^3 up to terms the Jacobian ideal absorbs and sends
    # y^10 to y^10 + 20/9*y^11 + ...
    r = classify(P("x^3+x^2*y^3+y^10+x^3*y"))
    assert (r.name, r.mu) == ("J_3,1", 17)
    assert rational_params(r) == {"a0": Fraction(1), "a1": Fraction(20, 9)}


def test_y75_behind_a_double_line_jet():
    # x^2*y^2+2*x^4*y+x^6 = x^2*(y+x^2)^2, and y -> y - x^2 leaves
    # x^2*y^2 + y^5 + x^7 up to terms of the Jacobian ideal
    r = classify(P("x^2*y^2+2*x^4*y+x^6+y^5+x^7"))
    assert (r.name, r.mu) == ("Y_7,5", 13)
    assert rational_params(r) == {"a": Fraction(1)}


def test_j321_tail_off_the_normal_form():
    # y -> y*(1+y)^(-1/3) takes x^2*y^3*(1+y) to x^2*y^3 up to terms
    # the Jacobian ideal absorbs and sends y^30 to y^30 - 10*y^31 + ...
    r = classify(P("x^3+x^2*y^3+y^30+x^2*y^4"))
    assert (r.name, r.mu) == ("J_3,21", 37)
    assert rational_params(r) == {"a0": Fraction(1), "a1": Fraction(-10)}


# -- result bookkeeping ----------------------------------------------


def test_trace_records_the_reduction():
    r = classify(P("x^3 + x^2*y^2 + x*y^5"))
    assert all(isinstance(line, str) and line for line in r.trace)
    assert any("Milnor number 12" in line for line in r.trace)
    assert r.trace[-1] == "matched J_12"


def test_parts_are_sorted_support():
    r = classify(P("x^3 + x*y^3 + y^5"))
    assert r.parts == [(1, (3, 0)), (1, (1, 3))]
