"""Newton polygon analysis for plane curve germs.

The polygon of a two variable polynomial is the lower left convex chain
of its exponent support.  Each face carries a primitive integer weight
vector under which the face monomials are the terms of lowest weighted
degree.  Restricting to one face and factoring out the axis powers
leaves a univariate polynomial; its squarefree structure decides whether
the face is degenerate and, if so, which repeated factor to straighten.

Univariate polynomials over a radical tower are handled here as
ascending coefficient lists, a rational coefficient a Fraction and any
other an `AlgebraicScalar`; `uni_make` turns ints into Fractions.  A
rational list is factored as one primitive integer list, dividing only
by primitive gcds, so every quotient is integral by Gauss's lemma; a
list over a tower keeps the field kernels `uni_gcd` and `uni_divmod`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PipelineError
from .poly import SparsePoly, weight_value, wlayer
from .scalars import QQ, adjoin_root, tower_of

_ZERO = Fraction(0)

# -- univariate polynomials over a tower -----------------------------


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def uni_make(coeffs):
    """The list without its zero top coefficients, each int made a
    Fraction."""
    return _trim([Fraction(c) if type(c) is int else c for c in coeffs])


def uni_degree(f):
    return len(f) - 1


def uni_diff(f):
    return _trim([c * k for k, c in enumerate(f)][1:])


def uni_eval(f, value):
    acc = _ZERO
    for c in reversed(f):
        acc = acc * value + c
    return acc


def uni_sub(f, g):
    out = list(f) + [0] * (len(g) - len(f))
    for k, c in enumerate(g):
        out[k] = out[k] - c
    return _trim(out)


def uni_monic(f):
    if not f or f[-1] == 1:
        return f
    return [c / f[-1] for c in f]


def uni_divmod(f, g):
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    rem, n, inverse = list(f), len(g) - 1, 1 / g[-1]
    quot = [_ZERO] * max(len(f) - n, 0)
    for shift in reversed(range(len(quot))):
        factor = quot[shift] = rem[shift + n] * inverse
        for k in range(n):
            rem[shift + k] = rem[shift + k] - factor * g[k]
    return uni_make(quot), uni_make(rem[:n])


def uni_gcd(f, g):
    a, b = uni_make(f), uni_make(g)
    while b:
        _, r = uni_divmod(a, b)
        a, b = b, r
    return uni_monic(a)


def uni_integers(f):
    """(u, q) for a rational list f: u the primitive integer list, with
    positive content q, such that f = q * u."""
    scale = math.lcm(*(c.denominator for c in f))
    ints = [c.numerator * (scale // c.denominator) for c in f]
    g = math.gcd(*ints) or 1
    return [c // g for c in ints], Fraction(g, scale)


def uni_prs_gcd(f, g):
    """The gcd of two rational lists as a primitive integer list with a
    positive leading coefficient ([] for two zeros), by the primitive
    remainder sequence (Collins 1967; Brown and Traub 1971): each
    pseudo-remainder is cut to its primitive part before the next."""
    a, b = uni_integers(f)[0], uni_integers(g)[0]
    if len(a) < len(b):
        a, b = b, a
    while b:
        scale = b[-1] ** (len(a) - len(b) + 1)
        a, b = b, uni_integers(_integer_divmod([c * scale for c in a], b)[1])[0]
    return a if not a or a[-1] > 0 else [-c for c in a]


def _integer_divmod(f, g):
    """(q, r) with f = q*g + r for integer lists whose division is
    exact over Z at every step: g primitive and dividing f over Q, by
    Gauss's lemma, or f a pseudo-dividend of g."""
    rem, n = list(f), len(g) - 1
    quot = [0] * max(len(f) - n, 0)
    for shift in reversed(range(len(quot))):
        q, r = divmod(rem[shift + n], g[-1])
        if r:
            raise PipelineError("an integer division is not exact")
        quot[shift] = q
        for k in range(n):
            rem[shift + k] -= q * g[k]
    return quot, _trim(rem[:n])


def _pure_power(u):
    """[(t + s, m)] when the integer list u of degree m is c*(t + s)^m,
    s = u[m-1] / (m*u[m]), checked on each u[k] = c*C(m, k)*s^(m-k)."""
    m = len(u) - 1
    s = Fraction(u[m - 1], m * u[m])
    p, q = s.numerator, s.denominator
    for k in range(m - 1):
        if u[k] * q ** (m - k) != u[m] * math.comb(m, k) * p ** (m - k):
            return None
    return [([s, Fraction(1)], m)]


def uni_squarefree(f):
    f = uni_make(f)
    if tower_of(*f) is QQ:
        return uni_degree(uni_prs_gcd(f, uni_diff(f))) <= 0
    return uni_degree(uni_gcd(f, uni_diff(f))) <= 0


def uni_yun(f):
    """Squarefree decomposition (Yun 1976): list of (monic block,
    multiplicity), multiplicities increasing, product of block**mult
    recovering f up to a constant.

    A rational list runs as its primitive integer list: a pure power is
    read off in closed form, any other runs the Yun loop on integers,
    exact since every divisor is a primitive gcd (Gauss's lemma).  A
    list over a tower runs monic on the field kernels."""
    f = uni_make(f)
    if uni_degree(f) <= 0:
        return []
    if tower_of(*f) is not QQ:
        return _yun(uni_monic(f), uni_gcd, uni_divmod)
    u = uni_integers(f)[0]
    return _pure_power(u) or _yun(u, uni_prs_gcd, _integer_divmod)


def _yun(f, gcd, divide):
    """The Yun loop on f of positive degree, on a gcd and a division."""
    fp = uni_diff(f)
    a = gcd(f, fp)
    b = divide(f, a)[0]
    d = uni_sub(divide(fp, a)[0], uni_diff(b))
    out = []
    i = 1
    while uni_degree(b) > 0:
        p = gcd(b, d)
        if uni_degree(p) > 0:
            out.append((uni_monic(uni_make(p)), i))
        b = divide(b, p)[0]
        d = uni_sub(divide(d, p)[0], uni_diff(b))
        i += 1
    return out


# -- rational root search --------------------------------------------


def _sign_at(q, y):
    acc = 0
    for c in reversed(q):
        acc = acc * y + c
    return (acc > 0) - (acc < 0)


def _root_floors(q):
    """Integers k such that every integer root of the integer polynomial
    q (ascending coefficients), and every real root where q changes
    sign, lies in some [k, k + 1].  Fujiwara's bound |root| <= 2 * max
    |q[i] / q[n]|**(1 / (n - i)) bounds the search; marks k, k + 1 for
    the k of q' cut it into pieces on which q is monotone, and bisection
    finds the root each piece longer than 1 may hold."""
    if len(q) < 2:
        return set()
    n, top = len(q) - 1, abs(q[-1]).bit_length()
    e = max((abs(c).bit_length() - top + k) // k for k, c in zip(range(n, 0, -1), q))
    bound = 2 ** (1 + max(e, 0)) + 1
    marks = {-bound, bound}
    for k in _root_floors([i * c for i, c in enumerate(q)][1:]):
        marks.update((k, k + 1))
    marks = sorted(m for m in marks if abs(m) <= bound)
    signs = [_sign_at(q, m) for m in marks]
    out = {m for m, s in zip(marks, signs) if not s}
    for lo, hi, s, t in zip(marks, marks[1:], signs, signs[1:]):
        if hi - lo > 1 and s * t >= 0:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _sign_at(q, mid) == s else (lo, mid)
        out.add(lo)
    return out


def rational_roots(coeffs):
    """All rational roots of a polynomial with rational coefficients.

    Scaled to integer coefficients with leading coefficient L, a root a/b
    in lowest terms has b | L, so L*a/b is an integer root of the monic
    Q(y) = L**(n-1) * P(y/L), found among the root floors of Q."""
    coeffs = uni_make(coeffs)
    if tower_of(*coeffs) is not QQ:
        raise ValueError("rational root search needs rational coefficients")
    if len(coeffs) <= 1:
        return []
    ints = uni_integers(coeffs)[0]
    n, lead = len(ints) - 1, ints[-1]
    q = [c * lead ** (n - 1 - k) for k, c in enumerate(ints[:-1])] + [1]
    ys = {y for k in _root_floors(q) for y in (k, k + 1) if not _sign_at(q, y)}
    return sorted(Fraction(y, lead) for y in ys)


# -- radical roots of low degree polynomials -------------------------


def quadratic_roots(tower, a, b, c):
    """Both roots of a*z**2 + b*z + c over a radical extension.

    Returns (tower2, [root1, root2]); the tower grows only when the
    discriminant is not a square in it.
    """
    disc = b * b - 4 * a * c
    if not disc:
        r = -b / (2 * a)
        return tower, [r, r]
    tower2, s = adjoin_root(tower, 2, disc)
    r1 = (-b + s) / (2 * a)
    r2 = (-b - s) / (2 * a)
    return tower2, [r1, r2]


def cubic_root(tower, coeffs):
    """One exact root of a cubic, preferring rational roots.

    `coeffs` lists the coefficients of c0 + c1 z + c2 z**2 + c3 z**3 with
    c3 nonzero.  Returns (tower2, root).
    """
    coeffs = uni_make(coeffs)
    if uni_degree(coeffs) != 3:
        raise ValueError("cubic_root expects degree exactly 3")
    monic = uni_monic(coeffs)
    if tower_of(*monic) is QQ:
        rats = rational_roots(monic)
        if rats:
            return tower, rats[0]
    c0, c1, c2, _ = monic
    shift = c2 / 3
    p = c1 - c2 * c2 / 3
    q = c0 - c1 * c2 / 3 + 2 * (c2 ** 3) / 27
    if not p and not q:
        return tower, -shift
    radicand = q * q / 4 + (p ** 3) / 27
    if not radicand:
        s = _ZERO
    else:
        tower, s = adjoin_root(tower, 2, radicand)
    ucube = q / (-2) + s
    if not ucube:
        ucube = q / (-2) - s
    tower, u = adjoin_root(tower, 3, ucube)
    root = u - p / (3 * u) - shift
    check = uni_eval(monic, root)
    if check:
        raise PipelineError("cubic root construction failed its own check")
    return tower, root


# -- polygon ---------------------------------------------------------


def _chain(points):
    """Lower left convex chain through the Pareto minimal points,
    ordered by increasing first coordinate.  In that order a point is
    Pareto minimal when it lies below the chain's last point, which has
    the lowest y seen so far."""
    chain = []
    for p in sorted(set(points)):
        if chain and p[1] >= chain[-1][1]:
            continue
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


class Face:
    """One compact face of a Newton polygon.

    `a` is the endpoint nearer the y axis (smaller first coordinate),
    `b` the one nearer the x axis.  `weight` is the primitive integer
    normal and `degree` the common weighted degree of the face points.
    """

    __slots__ = ("a", "b", "weight", "degree")

    def __init__(self, a, b):
        self.a = a
        self.b = b
        di = b[0] - a[0]
        dj = a[1] - b[1]
        g = math.gcd(di, dj)
        self.weight = (dj // g, di // g)
        self.degree = self.weight[0] * a[0] + self.weight[1] * a[1]

    def __repr__(self):
        return f"Face({self.a}-{self.b}, w={self.weight})"


class Polygon:
    __slots__ = ("vertices", "faces")

    def __init__(self, vertices):
        self.vertices = vertices
        self.faces = [
            Face(vertices[k], vertices[k + 1]) for k in range(len(vertices) - 1)
        ]

    def __repr__(self):
        return f"Polygon({self.vertices})"


def newton_polygon(f):
    """Polygon of a nonzero two variable polynomial; vertices run from
    the y axis side to the x axis side."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no Newton polygon")
    chain = _chain(list(f.terms))
    return Polygon(chain)


def face_jet(f, face):
    return wlayer(f, face.weight, face.degree)


def face_span_points(face):
    """All lattice points with nonnegative coordinates on the face line."""
    wx, wy = face.weight
    d = face.degree
    pts = []
    for i in range(d // wx + 1):
        rest = d - wx * i
        if rest % wy == 0:
            pts.append((i, rest // wy))
    return pts


def two_face_grading(face1, face2):
    """Common grading for two adjacent faces.

    Scales both weight vectors to share a degree and returns
    (weights, degree, span points), where the span points are the
    lattice points of weighted degree exactly `degree` under the
    piecewise minimum.
    """
    d1, d2 = face1.degree, face2.degree
    common = math.lcm(d1, d2)
    w1 = tuple(v * (common // d1) for v in face1.weight)
    w2 = tuple(v * (common // d2) for v in face2.weight)
    weights = (w1, w2)
    pts = {
        p
        for face in (face1, face2)
        for p in face_span_points(face)
        if weight_value(weights, p) == common
    }
    return weights, common, sorted(pts)


# -- face structure --------------------------------------------------


def face_decompose(g, face):
    """Write a face jet as x**a * y**b * H and dehomogenize H.

    Returns (a, b, h) where h is the univariate coefficient list of H
    along the face direction: H = sum h[k] x**(k*wy) y**((n-k)*wx).
    """
    if g.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    wx, wy = face.weight
    a = min(e[0] for e in g.terms)
    b = min(e[1] for e in g.terms)
    top = max(e[0] for e in g.terms)
    nu, rem = divmod(top - a, wy)
    if rem:
        raise PipelineError("face jet support is not aligned with the face")
    coeffs = [_ZERO] * (nu + 1)
    for (i, j), c in g.terms.items():
        k, rem = divmod(i - a, wy)
        if rem or j != b + (nu - k) * wx:
            raise PipelineError("face jet support is not aligned with the face")
        coeffs[k] = c
    return a, b, uni_make(coeffs)


def face_compose(vars, a, b, h, face):
    """Inverse of `face_decompose` for a coefficient list of length n+1."""
    wx, wy = face.weight
    nu = len(h) - 1
    terms = {}
    for k, c in enumerate(h):
        if c:
            terms[(a + k * wy, b + (nu - k) * wx)] = c
    return SparsePoly(tuple(vars), terms)


def face_nondegenerate(g, face):
    """True when the face jet has no repeated factor besides axis powers."""
    _, _, h = face_decompose(g, face)
    return uni_squarefree(h)


def repeated_factor(g, face):
    """The product of all factors of maximal multiplicity in a face jet.

    Returns (factor, multiplicity); multiplicity 1 means the jet is
    squarefree and the factor is not meaningful.
    """
    a, b, h = face_decompose(g, face)
    vars = g.vars
    candidates = []
    if a:
        candidates.append((SparsePoly.variable(vars, vars[0]), a))
    if b:
        candidates.append((SparsePoly.variable(vars, vars[1]), b))
    for block, mult in uni_yun(h):
        piece = face_compose(vars, 0, 0, block, face)
        candidates.append((piece, mult))
    if not candidates:
        return SparsePoly.constant(vars, 1), 1
    best = max(m for _, m in candidates)
    product = SparsePoly.constant(vars, 1)
    for p, m in candidates:
        if m == best:
            product = product * p
    return product, best
