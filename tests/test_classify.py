from fractions import Fraction

import pytest

from arnoldnf.catalog import instantiate
from arnoldnf.classify import classify
from arnoldnf.errors import Rejection
from arnoldnf.poly import parse_poly, substitute
from arnoldnf.scalars import approximate, format_scalar, format_tower


def P(text, vars=("x", "y")):
    return parse_poly(text, vars)


def params_of(result):
    return {name: value for name, value in result.parameters}


def rational_params(result):
    return {name: value.as_fraction() for name, value in result.parameters}


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
    assert p.as_fraction() == Fraction(1, 32)
    assert approximate(a, 5) == "0.60950"


def test_e12_zero_modulus():
    r = classify(P("x^3 + y^7 + x*y^6"))
    assert r.name == "E_12"
    assert params_of(r)["a"].is_zero()


def test_e13_zero_modulus():
    r = classify(P("x^3 + x*y^5"))
    assert r.name == "E_13"
    assert r.mu == 13
    assert params_of(r)["a"].is_zero()


def test_z11_with_spectator_tail():
    r = classify(P("x^3*y + y^5 + x^5"))
    assert r.name == "Z_11"
    assert r.mu == 11
    assert params_of(r)["a"].is_zero()


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
    assert not (4 * a * a * a + 27).is_zero()


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
    assert values["c"].is_zero()


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


# -- result bookkeeping ----------------------------------------------


def test_trace_records_the_reduction():
    r = classify(P("x^3 + x^2*y^2 + x*y^5"))
    assert all(isinstance(line, str) and line for line in r.trace)
    assert any("Milnor number 12" in line for line in r.trace)
    assert r.trace[-1] == "matched J_12"


def test_parts_are_sorted_support():
    r = classify(P("x^3 + x*y^3 + y^5"))
    assert r.parts == [(1, (3, 0)), (1, (1, 3))]
