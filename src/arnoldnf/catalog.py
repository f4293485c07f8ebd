"""The catalog of normal forms for corank two germs, stated once.

`FAMILIES` lists every family the classifier returns, in the order the
round trip harness samples them.  A row gives the family key, its
modality and the index tuples the harness samples, and, as functions
of the indices, the Milnor number, the unit monomials and the named
moduli positions.  It also carries the one arithmetic restriction on
the first modulus that cuts out the open stratum (Arnold, Gusein-Zade
and Varchenko, *Singularities of Differentiable Maps* I).

The recognizers below map what the boundary walk found (a Newton
face, a corner, a quartic jet with four distinct lines, a perfect
square core) to a family key, its indices and the grading of the
reduction.  A `Plan` reads everything else from the row, and so do
`classify.Result`, the normal form display, `instantiate` and the
harness.
"""

from fractions import Fraction

from .errors import PipelineError
from .newton import Face, face_span_points
from .poly import SparsePoly, term_sort_key, weight_value


# first modulus restrictions: each maps the value to a quantity that
# vanishes exactly off the open stratum


def _cubic_gap(a):
    return 4 * a ** 3 + 27


def _square_gap(a):
    return a * a - 4


def _nonzero(a):
    return a


class Family:
    """One catalog row.

    `mu`, `units` and `moduli` take the indices as arguments; `units`
    gives None for the double core families, whose normal form leads
    with the square of the core (x^2+y^3)^2 instead of unit monomials.
    `restriction`, when set, must not vanish at the first modulus.
    """

    __slots__ = (
        "key", "modality", "samples", "mu", "units", "moduli", "restriction"
    )

    def __init__(self, key, modality, samples, mu, units, moduli, restriction=None):
        self.key = key
        self.modality = modality
        self.samples = samples
        self.mu = mu
        self.units = units
        self.moduli = moduli
        self.restriction = restriction


def _fixed(key, modality, indices, mu, units, moduli=(), restriction=None):
    """Row of a family without free indices."""
    return Family(
        key,
        modality,
        [indices],
        lambda *_: mu,
        lambda *_: list(units),
        lambda *_: list(moduli),
        restriction,
    )


# key, modality, harness indices, then as functions of the indices the
# Milnor number, units and moduli positions, and the first restriction
FAMILIES = [
    Family("A_k", 0, [(1,), (2,), (3,)], lambda k: k,
           lambda k: [(k + 1,)], lambda k: []),
    Family("D_k", 0, [(4,), (5,), (6,)], lambda k: k,
           lambda k: [(2, 1), (0, k - 1)], lambda k: []),
    _fixed("E_6", 0, (6,), 6, [(3, 0), (0, 4)]),
    _fixed("E_7", 0, (7,), 7, [(3, 0), (1, 3)]),
    _fixed("E_8", 0, (8,), 8, [(3, 0), (0, 5)]),
    _fixed("X_9", 1, (9,), 9, [(4, 0), (0, 4)], [("a", (2, 2))], _square_gap),
    _fixed("J_10", 1, (10,), 10, [(3, 0), (0, 6)], [("a", (2, 2))], _cubic_gap),
    _fixed("E_12", 1, (12,), 12, [(3, 0), (0, 7)], [("a", (1, 5))]),
    _fixed("E_13", 1, (13,), 13, [(3, 0), (1, 5)], [("a", (0, 8))]),
    _fixed("E_14", 1, (14,), 14, [(3, 0), (0, 8)], [("a", (1, 6))]),
    _fixed("Z_11", 1, (11,), 11, [(3, 1), (0, 5)], [("a", (1, 4))]),
    _fixed("Z_12", 1, (12,), 12, [(3, 1), (1, 4)], [("a", (2, 3))]),
    _fixed("Z_13", 1, (13,), 13, [(3, 1), (0, 6)], [("a", (1, 5))]),
    _fixed("W_12", 1, (12,), 12, [(4, 0), (0, 5)], [("a", (2, 3))]),
    _fixed("W_13", 1, (13,), 13, [(4, 0), (1, 4)], [("a", (0, 6))]),
    Family("J_10+k", 1, [(11,), (12,), (13,)], lambda n: n,
           lambda n: [(3, 0), (2, 2)], lambda n: [("a", (0, n - 4))], _nonzero),
    Family("X_9+k", 1, [(10,), (11,), (12,)], lambda n: n,
           lambda n: [(4, 0), (2, 2)], lambda n: [("a", (0, n - 5))], _nonzero),
    Family("Y_r,s", 1, [(5, 5), (6, 5), (6, 6)], lambda r, s: r + s + 1,
           lambda r, s: [(r, 0), (0, s)], lambda r, s: [("a", (2, 2))], _nonzero),
    _fixed("J_3,0", 2, (3, 0), 16, [(3, 0), (0, 9)],
           [("b", (2, 3)), ("c", (1, 7))], _cubic_gap),
    _fixed("Z_1,0", 2, (1, 0), 15, [(3, 1), (0, 7)],
           [("d", (2, 3)), ("c", (1, 6))], _cubic_gap),
    _fixed("W_1,0", 2, (1, 0), 15, [(4, 0), (0, 6)],
           [("a0", (2, 3)), ("a1", (2, 4))], _square_gap),
    Family("J_3,p", 2, [(3, 1), (3, 2), (3, 3)], lambda _, p: 16 + p,
           lambda _, p: [(3, 0), (2, 3)],
           lambda _, p: [("a0", (0, 9 + p)), ("a1", (0, 10 + p))], _nonzero),
    Family("Z_1,p", 2, [(1, 1), (1, 2), (1, 3)], lambda _, p: 15 + p,
           lambda _, p: [(3, 1), (2, 3)],
           lambda _, p: [("a0", (0, 7 + p)), ("a1", (0, 8 + p))], _nonzero),
    Family("W_1,p", 2, [(1, 1), (1, 2), (1, 3)], lambda _, p: 15 + p,
           lambda _, p: [(4, 0), (2, 3)],
           lambda _, p: [("a0", (0, 6 + p)), ("a1", (0, 7 + p))], _nonzero),
    # W#_1,i with i = 2q-1 or 2q; the units give way to the core square
    Family("W#_1,2q-1", 2, [(1, 1), (1, 3), (1, 5)], lambda _, i: 15 + i,
           lambda _, i: None,
           lambda _, i: [("a0", (1, 4 + (i + 1) // 2)), ("a1", (1, 5 + (i + 1) // 2))],
           _nonzero),
    Family("W#_1,2q", 2, [(1, 2), (1, 4), (1, 6)], lambda _, i: 15 + i,
           lambda _, i: None,
           lambda _, i: [("a0", (2, 3 + i // 2)), ("a1", (2, 4 + i // 2))], _nonzero),
    _fixed("E_18", 2, (18,), 18, [(3, 0), (0, 10)], [("a0", (1, 7)), ("a1", (1, 8))]),
    _fixed("E_19", 2, (19,), 19, [(3, 0), (1, 7)], [("a0", (0, 11)), ("a1", (0, 12))]),
    _fixed("E_20", 2, (20,), 20, [(3, 0), (0, 11)], [("a0", (1, 8)), ("a1", (1, 9))]),
    _fixed("Z_17", 2, (17,), 17, [(3, 1), (0, 8)], [("a0", (1, 6)), ("a1", (1, 7))]),
    _fixed("Z_18", 2, (18,), 18, [(3, 1), (1, 6)], [("a0", (0, 9)), ("a1", (0, 10))]),
    _fixed("Z_19", 2, (19,), 19, [(3, 1), (0, 9)], [("a0", (1, 7)), ("a1", (1, 8))]),
    _fixed("W_17", 2, (17,), 17, [(4, 0), (1, 5)], [("a0", (0, 7)), ("a1", (0, 8))]),
    _fixed("W_18", 2, (18,), 18, [(4, 0), (0, 7)], [("a0", (2, 4)), ("a1", (2, 5))]),
]

FAMILY = {fam.key: fam for fam in FAMILIES}

# face ends -> (key, indices) for the families without free indices whose
# two units span one Newton face; X_9 is recognized by its quartic jet
_FACES = {
    tuple(fam.units(*indices)): (fam.key, indices)
    for fam in FAMILIES
    if len(fam.samples) == 1 and fam.key != "X_9"
    for indices in fam.samples
}


class Plan:
    """Reduction data for one matched family: the row's data at the
    indices, plus the grading the recognizer found.

    `dprime` is the top layer the single weight ladder normalizes: the
    principal level, or the weight of the heaviest modulus above it.
    `middle` = (square exps, keep exps, kill exps, shift power) when the
    face has an interior point that must be shifted away first.
    """

    __slots__ = (
        "key",
        "indices",
        "mu",
        "weights",
        "level",
        "dprime",
        "middle",
        "units",
        "moduli",
        "restriction",
    )

    def __init__(self, key, indices, weights, level, middle=None):
        fam = FAMILY[key]
        self.key = key
        self.indices = indices
        self.mu = fam.mu(*indices)
        self.weights = weights
        self.level = level
        self.middle = middle
        self.units = fam.units(*indices)
        self.moduli = fam.moduli(*indices)
        self.restriction = fam.restriction
        self.dprime = max(
            [level] + [weight_value(weights, e) for _, e in self.moduli]
        )


def single_face_plan(xend, yend):
    """Plan for a germ whose boundary is one face from xend to yend,
    or None when the shape is not in the table."""
    if xend == (2, 1) and yend[0] == 0 and yend[1] >= 3:
        found = ("D_k", (yend[1] + 1,))
    else:
        found = _FACES.get((xend, yend))
        if found is None:
            return None
    face = Face(yend, xend)
    wx, wy = face.weight
    # a face with four lattice points (J_10, J_3,0, Z_1,0) has a point
    # next to its x end that a shift x -> x + r*y^(wx/wy) clears
    points = [p for p in face_span_points(face) if p[0] <= xend[0]]
    middle = None
    if len(points) == 4:
        middle = (points[3], points[2], points[1], wx // wy)
    return Plan(*found, (face.weight,), face.degree, middle)


def x9_plan():
    return Plan("X_9", (9,), ((1, 1),), 4)


def corner_plan(xend, corner, m, weights, level):
    """Plan for a boundary with a recognized corner, the x side ending
    at xend and the y side at (0, m).  `weights` and `level` carry the
    common grading of the two faces at the corner."""
    found = None
    if corner == (2, 2):
        if xend == (3, 0) and m >= 7:
            found = ("J_10+k", (m + 4,))
        elif xend == (4, 0) and m >= 5:
            found = ("X_9+k", (m + 5,))
        elif xend[1] == 0 and xend[0] >= 5 and m >= 5:
            found = ("Y_r,s", (xend[0], m))
    elif corner == (2, 3):
        if xend == (3, 0) and m >= 10:
            found = ("J_3,p", (3, m - 9))
        elif xend == (4, 0) and m >= 7:
            found = ("W_1,p", (1, m - 6))
        elif xend == (3, 1) and m >= 8:
            found = ("Z_1,p", (1, m - 7))
    if found is None:
        return None
    return Plan(*found, weights, level)


def double_core_family(mu):
    """Family key and indices for the double core germs, by parity."""
    if mu < 16:
        raise PipelineError("double core invariants out of range")
    i = mu - 15
    return ("W#_1,2q-1" if i % 2 else "W#_1,2q"), (1, i)


def display_name(key, indices):
    """Resolved subscript name, e.g. J_12 or Z_1,3."""
    head = key.split("_")[0]
    return head + "_" + ",".join(str(i) for i in indices)


def moduli_positions(key, indices):
    return FAMILY[key].moduli(*indices)


def normal_form_parts(key, indices):
    """Ordered (label, exps) pairs of the normal form, label 1 meaning
    a plain unit monomial.  For the double core families the square of
    the core is carried as a separate leading marker."""
    fam = FAMILY[key]
    units = fam.units(*indices)
    moduli = fam.moduli(*indices)
    if units is None:
        return [("core", None)] + moduli
    parts = [(1, e) for e in units] + moduli
    parts.sort(key=lambda item: term_sort_key(item[1]))
    return parts


def instantiate(key, indices, values):
    """Normal form germ over the rationals for given parameter values.

    Used by the harness and the round trip tests; every value must be
    a Fraction (or int)."""
    vars = ("x",) if key == "A_k" else ("x", "y")
    f = SparsePoly.zero(vars)
    for label, exps in normal_form_parts(key, indices):
        if label == "core":
            f = f + SparsePoly.build(vars, {(2, 0): 1, (0, 3): 1}) ** 2
        elif label == 1:
            f = f + SparsePoly.monomial(vars, exps, Fraction(1))
        else:
            c = Fraction(values[label])
            if c:
                f = f + SparsePoly.monomial(vars, exps, c)
    return f
