"""Reference values for the catalog's plans.

The rows below are literal copies of the per-shape data the catalog
stated by hand before it was folded into one table.  The plans derive
`dprime` and `middle` from the table and the face; a wrong value there
could still round trip (a `dprime` that is too large only does extra
work), so the plans are pinned to these literals field by field.
"""

import pytest

from arnoldnf.catalog import (
    FAMILIES,
    FAMILY,
    corner_plan,
    double_core_family,
    moduli_positions,
    single_face_plan,
    x9_plan,
)
from arnoldnf.newton import newton_polygon, two_face_grading
from arnoldnf.poly import parse_poly

# (x end, y end): key, indices, mu, modality, dprime, middle, moduli
SINGLE = {
    ((3, 0), (0, 4)): ("E_6", (6,), 6, 0, 12, None, []),
    ((3, 0), (1, 3)): ("E_7", (7,), 7, 0, 9, None, []),
    ((3, 0), (0, 5)): ("E_8", (8,), 8, 0, 15, None, []),
    ((3, 0), (0, 6)): (
        "J_10", (10,), 10, 1, 6, ((3, 0), (2, 2), (1, 4), 2), [("a", (2, 2))]
    ),
    ((3, 0), (0, 7)): ("E_12", (12,), 12, 1, 22, None, [("a", (1, 5))]),
    ((3, 0), (1, 5)): ("E_13", (13,), 13, 1, 16, None, [("a", (0, 8))]),
    ((3, 0), (0, 8)): ("E_14", (14,), 14, 1, 26, None, [("a", (1, 6))]),
    ((3, 0), (0, 9)): (
        "J_3,0",
        (3, 0),
        16,
        2,
        10,
        ((3, 0), (2, 3), (1, 6), 3),
        [("b", (2, 3)), ("c", (1, 7))],
    ),
    ((3, 0), (0, 10)): (
        "E_18", (18,), 18, 2, 34, None, [("a0", (1, 7)), ("a1", (1, 8))]
    ),
    ((3, 0), (1, 7)): (
        "E_19", (19,), 19, 2, 24, None, [("a0", (0, 11)), ("a1", (0, 12))]
    ),
    ((3, 0), (0, 11)): (
        "E_20", (20,), 20, 2, 38, None, [("a0", (1, 8)), ("a1", (1, 9))]
    ),
    ((3, 1), (0, 5)): ("Z_11", (11,), 11, 1, 16, None, [("a", (1, 4))]),
    ((3, 1), (1, 4)): ("Z_12", (12,), 12, 1, 12, None, [("a", (2, 3))]),
    ((3, 1), (0, 6)): ("Z_13", (13,), 13, 1, 20, None, [("a", (1, 5))]),
    ((3, 1), (0, 7)): (
        "Z_1,0",
        (1, 0),
        15,
        2,
        8,
        ((3, 1), (2, 3), (1, 5), 2),
        [("d", (2, 3)), ("c", (1, 6))],
    ),
    ((3, 1), (0, 8)): (
        "Z_17", (17,), 17, 2, 28, None, [("a0", (1, 6)), ("a1", (1, 7))]
    ),
    ((3, 1), (1, 6)): (
        "Z_18", (18,), 18, 2, 20, None, [("a0", (0, 9)), ("a1", (0, 10))]
    ),
    ((3, 1), (0, 9)): (
        "Z_19", (19,), 19, 2, 32, None, [("a0", (1, 7)), ("a1", (1, 8))]
    ),
    ((4, 0), (0, 5)): ("W_12", (12,), 12, 1, 22, None, [("a", (2, 3))]),
    ((4, 0), (1, 4)): ("W_13", (13,), 13, 1, 18, None, [("a", (0, 6))]),
    ((4, 0), (0, 6)): (
        "W_1,0", (1, 0), 15, 2, 14, None, [("a0", (2, 3)), ("a1", (2, 4))]
    ),
    ((4, 0), (1, 5)): (
        "W_17", (17,), 17, 2, 24, None, [("a0", (0, 7)), ("a1", (0, 8))]
    ),
    ((4, 0), (0, 7)): (
        "W_18", (18,), 18, 2, 34, None, [("a0", (2, 4)), ("a1", (2, 5))]
    ),
}

# one member per corner family: germ, then key, indices, mu, modality,
# dprime, units, moduli
CORNERS = [
    ("x^3+x^2*y^2+y^7", "J_10+k", (11,), 11, 1, 42, [(3, 0), (2, 2)],
     [("a", (0, 7))]),
    ("x^4+x^2*y^2+y^5", "X_9+k", (10,), 10, 1, 20, [(4, 0), (2, 2)],
     [("a", (0, 5))]),
    ("x^5+x^2*y^2+y^5", "Y_r,s", (5, 5), 11, 1, 10, [(5, 0), (0, 5)],
     [("a", (2, 2))]),
    (
        "x^3+x^2*y^3+y^10",
        "J_3,p",
        (3, 1),
        17,
        2,
        198,
        [(3, 0), (2, 3)],
        [("a0", (0, 10)), ("a1", (0, 11))],
    ),
    (
        "x^4+x^2*y^3+y^7",
        "W_1,p",
        (1, 1),
        16,
        2,
        96,
        [(4, 0), (2, 3)],
        [("a0", (0, 7)), ("a1", (0, 8))],
    ),
    (
        "x^3*y+x^2*y^3+y^8",
        "Z_1,p",
        (1, 1),
        16,
        2,
        126,
        [(3, 1), (2, 3)],
        [("a0", (0, 8)), ("a1", (0, 9))],
    ),
]


def _fields(plan):
    return (
        plan.key,
        plan.indices,
        plan.mu,
        FAMILY[plan.key].modality,
        plan.dprime,
        plan.middle,
        plan.units,
        plan.moduli,
    )


@pytest.mark.parametrize("shape", list(SINGLE), ids=[v[0] for v in SINGLE.values()])
def test_single_face_plan_matches_reference(shape):
    xend, yend = shape
    key, indices, mu, modality, dprime, middle, moduli = SINGLE[shape]
    want = (key, indices, mu, modality, dprime, middle, [xend, yend], moduli)
    assert _fields(single_face_plan(xend, yend)) == want


def test_single_face_plan_d_series_and_unknown_faces():
    plan = single_face_plan((2, 1), (0, 5))
    assert _fields(plan) == ("D_k", (6,), 6, 0, 5, None, [(2, 1), (0, 5)], [])
    assert _fields(single_face_plan((2, 1), (0, 3)))[5] is None
    assert single_face_plan((4, 0), (0, 4)) is None
    assert single_face_plan((5, 0), (0, 5)) is None


@pytest.mark.parametrize("row", CORNERS, ids=[r[1] for r in CORNERS])
def test_corner_plan_matches_reference(row):
    text, key, indices, mu, modality, dprime, units, moduli = row
    yface, xface = newton_polygon(parse_poly(text, ("x", "y"))).faces
    weights, level, _ = two_face_grading(yface, xface)
    plan = corner_plan(xface.b, xface.a, yface.a[1], weights, level)
    assert _fields(plan) == (key, indices, mu, modality, dprime, None, units, moduli)


def test_x9_plan_matches_reference():
    plan = x9_plan()
    assert _fields(plan) == (
        "X_9", (9,), 9, 1, 4, None, [(4, 0), (0, 4)], [("a", (2, 2))]
    )
    assert plan.weights == ((1, 1),) and plan.level == 4


def test_double_core_family_both_parities():
    assert double_core_family(16) == ("W#_1,2q-1", (1, 1))
    assert double_core_family(17) == ("W#_1,2q", (1, 2))
    assert moduli_positions("W#_1,2q-1", (1, 1)) == [
        ("a0", (1, 5)),
        ("a1", (1, 6)),
    ]
    assert moduli_positions("W#_1,2q", (1, 2)) == [("a0", (2, 4)), ("a1", (2, 5))]



def test_every_plan_has_two_units_over_x_and_y():
    # rescale_to_unit only handles two unit monomials in x and y; A_k
    # and the double core families finish without a plan
    plans = [single_face_plan(xend, yend) for xend, yend in SINGLE]
    plans += [single_face_plan((2, 1), (0, m)) for m in range(3, 40)]
    plans.append(x9_plan())
    for xend in [(3, 0), (3, 1), (4, 0), (5, 0), (6, 0), (7, 0)]:
        for corner in [(2, 2), (2, 3)]:
            for m in range(4, 40):
                plans.append(corner_plan(xend, corner, m, ((1, 1),), 0))
    plans = [plan for plan in plans if plan is not None]
    planned = {
        fam.key
        for fam in FAMILIES
        if fam.key != "A_k" and fam.units(*fam.samples[0]) is not None
    }
    assert {plan.key for plan in plans} == planned
    for plan in plans:
        assert len(plan.units) == 2, plan.key
        assert all(len(e) == 2 for e in plan.units), plan.key
