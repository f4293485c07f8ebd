"""Seeded inputs for the benchmark workloads, built with sympy.

Every input is a polynomial string made here from a table of normal
forms written out independently of the classifier: the program's own
`instantiate`, `substitute` and `apply_linear` shape none of them.  Each
operation carries what a correct answer must satisfy, known by
construction: the family name, the Milnor number, and either the exact
moduli, a rational invariant of the moduli, or a rejection reason.

The seed picks coefficients only.  Which families appear, and the shape
of each coordinate change, are fixed per workload, so that two seeds
give corpora of similar cost.
"""

import random
from fractions import Fraction

import sympy as sp

from invariants import monomial_power_invariant, quartic_ratio

x, y, z, w = sp.symbols("x y z w")
XY = (x, y)

# family -> (Milnor number, normal form, moduli in order); moduli are
# sympy symbols of the same name in the form.
FAMILIES = {}


def _family(name, mu, form, moduli=()):
    FAMILIES[name] = (mu, sp.sympify(form), tuple(moduli))


for _k in (1, 2, 3):
    _family(f"A_{_k}", _k, f"x**{_k + 1} + y**2")
for _k in (4, 5, 6):
    _family(f"D_{_k}", _k, f"x**2*y + y**{_k - 1}")
_family("E_6", 6, "x**3 + y**4")
_family("E_7", 7, "x**3 + x*y**3")
_family("E_8", 8, "x**3 + y**5")
_family("X_9", 9, "x**4 + a*x**2*y**2 + y**4", "a")
_family("J_10", 10, "x**3 + a*x**2*y**2 + y**6", "a")
_family("E_12", 12, "x**3 + y**7 + a*x*y**5", "a")
_family("E_13", 13, "x**3 + x*y**5 + a*y**8", "a")
_family("E_14", 14, "x**3 + y**8 + a*x*y**6", "a")
_family("Z_11", 11, "x**3*y + y**5 + a*x*y**4", "a")
_family("Z_12", 12, "x**3*y + x*y**4 + a*x**2*y**3", "a")
_family("Z_13", 13, "x**3*y + y**6 + a*x*y**5", "a")
_family("W_12", 12, "x**4 + y**5 + a*x**2*y**3", "a")
_family("W_13", 13, "x**4 + x*y**4 + a*y**6", "a")
_family("J_3,0", 16, "x**3 + b*x**2*y**3 + y**9 + c*x*y**7", ("b", "c"))
_family("Z_1,0", 15, "x**3*y + d*x**2*y**3 + c*x*y**6 + y**7", ("d", "c"))
_family("W_1,0", 15, "x**4 + a0*x**2*y**3 + a1*x**2*y**4 + y**6", ("a0", "a1"))
_family("E_18", 18, "x**3 + y**10 + a0*x*y**7 + a1*x*y**8", ("a0", "a1"))
_family("E_19", 19, "x**3 + x*y**7 + a0*y**11 + a1*y**12", ("a0", "a1"))
_family("E_20", 20, "x**3 + y**11 + a0*x*y**8 + a1*x*y**9", ("a0", "a1"))
_family("Z_17", 17, "x**3*y + y**8 + a0*x*y**6 + a1*x*y**7", ("a0", "a1"))
_family("Z_18", 18, "x**3*y + x*y**6 + a0*y**9 + a1*y**10", ("a0", "a1"))
_family("Z_19", 19, "x**3*y + y**9 + a0*x*y**7 + a1*x*y**8", ("a0", "a1"))
_family("W_17", 17, "x**4 + x*y**5 + a0*y**7 + a1*y**8", ("a0", "a1"))
_family("W_18", 18, "x**4 + y**7 + a0*x**2*y**4 + a1*x**2*y**5", ("a0", "a1"))
for _q in (1, 2):
    _family(
        f"W#_1,{2 * _q - 1}",
        14 + 2 * _q,
        f"(x**2 + y**3)**2 + a0*x*y**{4 + _q} + a1*x*y**{5 + _q}",
        ("a0", "a1"),
    )
    _family(
        f"W#_1,{2 * _q}",
        15 + 2 * _q,
        f"(x**2 + y**3)**2 + a0*x**2*y**{3 + _q} + a1*x**2*y**{4 + _q}",
        ("a0", "a1"),
    )
for _k in (1, 2, 3):
    _family(f"J_{10 + _k}", 10 + _k, f"x**3 + x**2*y**2 + a*y**{6 + _k}", "a")
    _family(f"X_{9 + _k}", 9 + _k, f"x**4 + x**2*y**2 + a*y**{4 + _k}", "a")
for _r, _s in ((5, 5), (6, 5), (6, 6)):
    _family(f"Y_{_r},{_s}", _r + _s + 1, f"x**{_r} + a*x**2*y**2 + y**{_s}", "a")
for _p in (1, 2, 3):
    _family(
        f"J_3,{_p}",
        16 + _p,
        f"x**3 + x**2*y**3 + a0*y**{9 + _p} + a1*y**{10 + _p}",
        ("a0", "a1"),
    )
    _family(
        f"Z_1,{_p}",
        15 + _p,
        f"x**3*y + x**2*y**3 + a0*y**{7 + _p} + a1*y**{8 + _p}",
        ("a0", "a1"),
    )
    _family(
        f"W_1,{_p}",
        15 + _p,
        f"x**4 + x**2*y**3 + a0*y**{6 + _p} + a1*y**{7 + _p}",
        ("a0", "a1"),
    )

# the open stratum of each family, as a condition on its first modulus
_CUBIC_DISC = lambda v: 4 * v ** 3 + 27 != 0
_SQUARE_GAP = lambda v: v * v != 4
_FIRST_OK = {
    "X_9": _SQUARE_GAP,
    "W_1,0": _SQUARE_GAP,
    "J_10": _CUBIC_DISC,
    "J_3,0": _CUBIC_DISC,
    "Z_1,0": _CUBIC_DISC,
}

PALETTE = [Fraction(v) for v in ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "3/2")]
SMALL = [Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2")]
SIGNS = [Fraction(1), Fraction(-1)]
# coefficients of the coordinate changes: no halves, whose powers blow up
# the coefficient heights and with them the cost of one seed against
# another
UNITS = [Fraction(v) for v in ("1", "-1", "2", "-2")]

ONE_FACE = [
    "A_1", "A_2", "A_3", "D_4", "D_5", "D_6", "E_6", "E_7", "E_8",
    "X_9", "J_10", "E_12", "E_13", "E_14", "Z_11", "Z_12", "Z_13",
    "W_12", "W_13", "J_3,0", "Z_1,0", "W_1,0", "E_18", "E_19", "E_20",
    "Z_17", "Z_18", "Z_19", "W_17", "W_18",
    "W#_1,1", "W#_1,2", "W#_1,3", "W#_1,4",
]
TWO_FACE = [
    "J_11", "J_12", "J_13", "X_10", "X_11", "X_12", "Y_5,5", "Y_6,5", "Y_6,6",
    "J_3,1", "J_3,2", "J_3,3", "Z_1,1", "Z_1,2", "Z_1,3", "W_1,1", "W_1,2", "W_1,3",
]


# -- strings ----------------------------------------------------------


def poly_string(expr, gens=XY):
    """Expanded polynomial as a string in the classifier's input grammar:
    terms by total degree, coefficients as integers or p/q."""
    poly = sp.Poly(sp.expand(expr), *gens)
    names = [str(g) for g in gens]
    terms = sorted(poly.terms(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0])))
    text = ""
    for exps, c in terms:
        c = sp.Rational(c)
        mono = "*".join(
            n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e
        )
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else f"{mag}")
        text += ("-" if c < 0 else "+") + body
    return text[1:] if text.startswith("+") else text


def _rat(q):
    return sp.Rational(q.numerator, q.denominator)


def _choose(rng, pool):
    return pool[rng.randrange(len(pool))]


# -- catalog samples --------------------------------------------------


def _moduli_values(name, rng):
    _, _, moduli = FAMILIES[name]
    values = {}
    for i, m in enumerate(moduli):
        pool = PALETTE
        if i == 0 and name in _FIRST_OK:
            pool = [v for v in pool if _FIRST_OK[name](v)]
        values[m] = _choose(rng, pool)
    return values


def _normal_form(name, values):
    _, form, _ = FAMILIES[name]
    return form.subs({sp.Symbol(m): _rat(v) for m, v in values.items()})


def _linear(f, rng):
    """Image under x -> p*x + q*y, y -> r*y with seeded p, q, r."""
    p, q, r = (_rat(_choose(rng, UNITS)) for _ in range(3))
    return f.subs({x: p * x + q * y, y: r * y}, simultaneous=True)


def _tangent(f, rng, shape, pool=UNITS):
    """Image under a tangent to identity change of a fixed shape whose
    coefficients the seed picks from `pool`; `shape` maps each variable
    to the monomials added to it."""
    images = {}
    for var, monos in shape.items():
        images[var] = var + sum(_rat(_choose(rng, pool)) * m for m in monos)
    return f.subs(images, simultaneous=True)


def _catalog(names, rng, tangent_shape):
    ops = []
    for name in names:
        mu, _, moduli = FAMILIES[name]
        values = _moduli_values(name, rng)
        f = _normal_form(name, values)
        exact = {m: str(values[m]) for m in moduli}
        base = {"type": name, "mu": mu}
        ops.append(_op(name, "normal", f, dict(base, params=exact), oracle=True))
        ops.append(_op(name, "linear", _linear(f, rng), dict(base)))
        ops.append(
            _op(name, "tangent", _tangent(f, rng, tangent_shape), dict(base, params=exact))
        )
    return ops


def _op(family, kind, expr, expect, gens=XY, oracle=False, known_fault=None):
    op = {
        "id": f"{family}/{kind}",
        "poly": expr if isinstance(expr, str) else poly_string(expr, gens),
        "expect": expect,
    }
    if oracle:
        op["oracle_mu"] = True
    if known_fault:
        op["known_fault"] = known_fault
    return op


def one_face(rng):
    return _catalog(ONE_FACE, rng, {x: [x * y], y: [y ** 2]})


def two_face(rng):
    return _catalog(TWO_FACE, rng, {x: [x ** 3]})


# -- germs over radical towers ----------------------------------------

def _face_cubic(rng):
    """Coefficients (b, c, d) of t^3 + b*t^2 + c*t + d with distinct roots
    whose critical points are irrational (4*b^2 - 12*c not a square)."""
    while True:
        b, c, d = (_rat(_choose(rng, PALETTE)) for _ in range(3))
        disc = 4 * b * b - 12 * c
        if disc >= 0 and sp.sqrt(disc).is_rational:
            continue
        t = sp.Symbol("t")
        if sp.discriminant(t ** 3 + b * t ** 2 + c * t + d, t) == 0:
            continue
        return b, c, d


_UNIT_FAMILIES = [
    ("E_12", ((3, 0), (0, 7)), (1, 5)),
    ("Z_11", ((3, 1), (0, 5)), (1, 4)),
    ("W_12", ((4, 0), (0, 5)), (2, 3)),
    ("E_13", ((3, 0), (1, 5)), (0, 8)),
    ("E_14", ((3, 0), (0, 8)), (1, 6)),
]
_NON_POWERS = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-3)]
_X9_FIELDS = [(2, 3), (3, 5), (5, 2), (6, 7), (7, 3)]
TOWER_REPEATS = 5


def towers(rng):
    ops = []
    shape = {x: [x * y]}

    def both(family, f, expect):
        ops.append(_op(family, "as-is", f, expect, oracle=True))
        ops.append(_op(family, "tangent", _tangent(f, rng, shape, SIGNS), expect))

    for rep in range(TOWER_REPEATS):
        # X_9: a quartic that splits into two irreducible rational
        # quadratics over two fixed quadratic fields; the seed moves the
        # coefficients, not the fields, so the tower shape stays put
        d1, d2 = _X9_FIELDS[rep]
        b = _rat(_choose(rng, SIGNS))
        c = (b * b - d2) / 4
        quartic = sp.expand((x ** 2 - d1 * y ** 2) * (x ** 2 + b * x * y + c * y ** 2))
        coeffs = [quartic.coeff(x, 4 - i).coeff(y, i) for i in range(5)]
        both(
            f"X_9#{rep}",
            quartic + _rat(_choose(rng, SMALL)) * x ** 2 * y ** 3,
            {"type": "X_9", "mu": 9, "invariants": [quartic_ratio("a", "x9", coeffs)]},
        )

        # J_10 and J_3,0: the face cubic has irrational critical points,
        # so clearing the face middle works over a quadratic field
        for family, mu, step, extra in (("J_10", 10, 2, y ** 7), ("J_3,0", 16, 3, 0)):
            b, c, d = _face_cubic(rng)
            Y = y ** step
            f = x ** 3 + b * x ** 2 * Y + c * x * Y ** 2 + d * Y ** 3 + extra
            invs = [quartic_ratio(FAMILIES[family][2][0], "face", [0, 1, b, c, d])]
            if family == "J_3,0":
                # a weighted homogeneous germ keeps the tail modulus at zero
                invs.append({"kind": "zero", "param": "c"})
            both(f"{family}#{rep}", f, {"type": family, "mu": mu, "invariants": invs})

        # units that are not powers: the rescaling adjoins roots of rationals
        family, units, pos = _UNIT_FAMILIES[rep % len(_UNIT_FAMILIES)]
        cu = [_rat(_choose(rng, _NON_POWERS)) for _ in units]
        e = _rat(_choose(rng, PALETTE))
        f = sum(c * x ** i * y ** j for c, (i, j) in zip(cu, units)) + e * x ** pos[0] * y ** pos[1]
        both(
            f"{family}#{rep}",
            f,
            {
                "type": family,
                "mu": FAMILIES[family][0],
                "invariants": [monomial_power_invariant("a", units, pos, cu, e)],
            },
        )

    # Y_r,s with a jet made of two conjugate double lines; x^5 has a
    # coefficient that is not a fifth power, so the modulus leaves Q
    d = 3
    e5 = 2 * _rat(_choose(rng, SIGNS))
    f = (x ** 2 - d * y ** 2) ** 2 + e5 * x ** 5 + y ** 6
    both("Y_5,5", f, {"type": "Y_5,5", "mu": 11, "invariants": [_y_invariant(f, d)]})
    return ops


def _y_invariant(f, d):
    """a^5 for a Y_5,5 germ whose 4-jet is (x^2 - d*y^2)^2: in the
    coordinates u = x - sqrt(d)*y, v = x + sqrt(d)*y the principal part
    is e*u^2*v^2 + cu*u^5 + cv*v^5, and rescaling u and v to unit ends
    gives a^5 = e^5 / (cu*cv)^2."""
    u, v = sp.symbols("u v")
    s = sp.sqrt(d)
    g = sp.expand(f.subs({x: (u + v) / 2, y: (v - u) / (2 * s)}, simultaneous=True))
    poly = sp.Poly(g, u, v)
    cu, cv, e = (sp.nsimplify(poly.coeff_monomial(m)) for m in (u ** 5, v ** 5, u ** 2 * v ** 2))
    value = sp.nsimplify(sp.radsimp(e ** 5 / (cu * cv) ** 2))
    if not value.is_Rational:
        raise ValueError(f"Y invariant is not rational: {value}")
    return {"kind": "power", "param": "a", "power": 5, "value": str(value)}


# -- edges of the covered range ---------------------------------------

# inputs of the two known faults: milnor_number stops at a fixed
# staircase cap, so these isolated germs are rejected as non-isolated
KNOWN_FAULTS = [
    ("D_81", "x^2*y+y^80", {"type": "D_81", "mu": 81}),
    ("J_3,70", "x^3+x^2*y^3+y^79", {"type": "J_3,70", "mu": 86, "params": {"a0": "1", "a1": "0"}}),
]


def edge(rng):
    ops = []
    c = lambda: _rat(_choose(rng, SMALL))
    xyz = (x, y, z)
    wxyz = (w, x, y, z)
    for rep in range(2):
        # rejections, one group per reason; the certificates are checked
        # at set-up
        for kind, f in (
            ("square", c() * (x ** 2 + c() * y ** 3) ** 2),
            ("cross", c() * x ** 2 * y ** 2 + c() * x ** 2 * y ** 3),
            ("line", x ** 2 * y * (x + c() * y)),
        ):
            ops.append(_op(f"non-isolated#{rep}", kind, f, {"reject": "non-isolated"}))
        for kind, f in (
            ("J_4,0", x ** 3 + c() * y ** 12),
            ("Z_2,0", x ** 3 * y + c() * y ** 10),
            ("order-5", x ** 5 + c() * y ** 5 + c() * x ** 2 * y ** 3),
        ):
            ops.append(_op(f"modality>2#{rep}", kind, f, {"reject": "modality>2"}))
        for kind, f, gens in (
            ("3-vars", x ** 3 + y ** 3 + c() * z ** 3 + c() * x * y * z, xyz),
            ("4-vars", w ** 2 + x ** 3 + c() * y ** 3 + z ** 3 + c() * x * y * z, wxyz),
        ):
            ops.append(_op(f"corank>2#{rep}", kind, f, {"reject": "corank>2"}, gens=gens))
        # corank at most one in three and four variables: the cross terms
        # have degree high enough that completing the squares keeps the
        # pure power of z first
        for family, f, gens in (
            ("A_4", x ** 2 + c() * y ** 2 + z ** 5 + c() * x * z ** 3 + c() * y * z ** 4 + c() * x * y * z, xyz),
            ("A_6", w ** 2 + x ** 2 + c() * y ** 2 + z ** 7 + c() * w * z ** 4 + c() * x * y * z + c() * y * z ** 5, wxyz),
            ("A_1", w ** 2 + x ** 2 + y ** 2 + c() * z ** 2 + c() * w * x * y * z, wxyz),
        ):
            ops.append(_op(family, f"{len(gens)}-vars#{rep}", f, {"type": family, "mu": int(family[2:])}, gens=gens))

    # long series up to where the Milnor certificate still lands; the
    # unit coefficients are odd powers of -1, so no rescaling adjoins a
    # root and the seed leaves the cost alone
    sign = lambda: _choose(rng, (1, -1))
    for k in (20, 40, 60, 80):
        ops.append(_op(f"D_{k}", "normal", x ** 2 * y + sign() * y ** (k - 1), {"type": f"D_{k}", "mu": k}))
    for p in (10, 30, 50, 68):
        a0 = sign()
        ops.append(
            _op(
                f"J_3,{p}",
                "normal",
                x ** 3 + x ** 2 * y ** 3 + a0 * y ** (9 + p),
                {"type": f"J_3,{p}", "mu": 16 + p, "params": {"a0": str(a0), "a1": "0"}},
            )
        )
    for k in (20, 40, 60, 79):
        expect = {"type": f"A_{k}", "mu": k}
        ops.append(_op(f"A_{k}", "normal", c() * x ** 2 + c() * y ** (k + 1), expect))
        # the quadratic part sits on a bent line: square completion runs
        ops.append(_op(f"A_{k}", "bent", (x + c() * y ** 2) ** 2 + c() * y ** (k + 1), expect))
    for family, text, expect in KNOWN_FAULTS:
        ops.append(_op(family, "known-fault", text, expect, known_fault="staircase cap"))
    return ops


WORKLOADS = {
    "one-face": one_face,
    "two-face": two_face,
    "towers": towers,
    "edge": edge,
}


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)
