"""Local algebra at the origin: standard bases, Milnor numbers, and
graded decompositions against a Jacobian ideal.

Computations run in the localization of the polynomial ring at the
origin, using a weighted order in which the constant monomial is the
largest.  Division therefore follows the ecart strategy: a reduction
step may enlarge the reducer set with the current remainder, which is
what makes the loop terminate for these orders.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd, lcm

from .errors import PipelineError
from .poly import SparsePoly, as_weights, diff, poly_order, weight_value, wjet, wlayer
from .scalars import from_rational


class LocalOrder:
    """Weighted local order on two variable monomials.

    Lower weighted degree means a larger monomial, so 1 beats every
    variable; ties prefer the higher power of the first variable.
    """

    __slots__ = ("weight",)

    def __init__(self, weight=(1, 1)):
        self.weight = tuple(weight)

    def key(self, exps):
        wx, wy = self.weight
        return (-(wx * exps[0] + wy * exps[1]), exps[0])

    def wdeg(self, exps):
        return self.weight[0] * exps[0] + self.weight[1] * exps[1]

    def leading(self, f):
        return max(f.terms.items(), key=lambda item: self.key(item[0]))

    def ecart(self, f):
        le, _ = self.leading(f)
        top = max(self.wdeg(e) for e in f.terms)
        return top - self.wdeg(le)


def mono_mul(f, exps, coeff):
    return SparsePoly(
        f.vars,
        {
            tuple(a + b for a, b in zip(e, exps)): c * coeff
            for e, c in f.terms.items()
        },
    )


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _primitive(f):
    """Rescale a rational polynomial to coprime integer coefficients.

    Division chains multiply denominators relentlessly; since every
    consumer here only cares about the ideal an element generates, the
    content can be stripped after each step.  Polynomials with scalars
    off the rational ground field are returned unchanged.
    """
    if f.is_zero():
        return f
    nums = []
    dens = []
    for c in f.terms.values():
        if not c.is_rational():
            return f
        q = c.as_fraction()
        nums.append(q.numerator)
        dens.append(q.denominator)
    scale = Fraction(lcm(*dens), gcd(*nums))
    if scale == 1:
        return f
    return mono_mul(f, (0, 0), from_rational(scale))


# -- integer fast path -----------------------------------------------
#
# Reductions over the rationals run on plain integer dicts with cross
# multiplied, division free steps; the content is stripped as it
# appears.  Only the ideal matters to every caller, so the scaling
# freedom costs nothing.


def _int_terms(f):
    """Coprime integer coefficient dict of a rational polynomial;
    None when a scalar leaves the rational field."""
    fractions = {}
    dens = []
    for e, c in f.terms.items():
        if not c.is_rational():
            return None
        q = c.as_fraction()
        fractions[e] = q
        dens.append(q.denominator)
    scale = lcm(*dens)
    ints = {e: int(q * scale) for e, q in fractions.items()}
    g = gcd(*ints.values())
    if g > 1:
        ints = {e: c // g for e, c in ints.items()}
    return ints


def _int_strip(d):
    g = gcd(*d.values())
    if g > 1:
        return {e: c // g for e, c in d.items()}
    return d


def _int_poly(vars, d):
    return SparsePoly(vars, {e: from_rational(Fraction(c)) for e, c in d.items()})


def _int_leading(d, order):
    e = max(d, key=order.key)
    return e, d[e]


def _int_ecart(d, order):
    le = max(d, key=order.key)
    return max(order.wdeg(e) for e in d) - order.wdeg(le)


def _int_mora(h, basis, order, cap=None):
    """Weak normal form of an integer dict; with a cap, terms of total
    degree above it are dropped after every step."""
    used = list(basis)
    if h:
        h = _int_strip(h)
    while h:
        le, lc = _int_leading(h, order)
        divs = [t for t in used if _divides(_int_leading(t, order)[0], le)]
        if not divs:
            return h
        reducer = min(divs, key=lambda t: _int_ecart(t, order))
        if _int_ecart(reducer, order) > _int_ecart(h, order):
            used.append(h)
        re, rc = _int_leading(reducer, order)
        shift = tuple(a - b for a, b in zip(le, re))
        g = gcd(lc, rc)
        a, b = rc // g, lc // g
        new = {e: a * c for e, c in h.items()}
        for e, c in reducer.items():
            k = tuple(x + y for x, y in zip(e, shift))
            v = new.get(k, 0) - b * c
            if v:
                new[k] = v
            else:
                new.pop(k, None)
        new = _capped(new, cap)
        h = _int_strip(new) if new else new
    return h


def _int_s_poly(f, g, order):
    ef, cf = _int_leading(f, order)
    eg, cg = _int_leading(g, order)
    lcm_e = tuple(max(a, b) for a, b in zip(ef, eg))
    d = gcd(cf, cg)
    a, b = cg // d, cf // d
    sf = tuple(l - x for l, x in zip(lcm_e, ef))
    sg = tuple(l - x for l, x in zip(lcm_e, eg))
    out = {}
    for e, c in f.items():
        k = tuple(x + s for x, s in zip(e, sf))
        out[k] = out.get(k, 0) + a * c
    for e, c in g.items():
        k = tuple(x + s for x, s in zip(e, sg))
        v = out.get(k, 0) - b * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _int_basis(gens, order, cap=None):
    """Standard basis of integer dicts, by pairs in arrival order."""
    G = []
    for d in gens:
        d = _capped(d, cap)
        if d:
            G.append(_int_strip(d))
    pairs = deque((i, j) for i in range(len(G)) for j in range(i + 1, len(G)))
    while pairs:
        i, j = pairs.popleft()
        s = _capped(_int_s_poly(G[i], G[j], order), cap)
        h = _int_mora(s, G, order, cap) if s else s
        if h:
            G.append(h)
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    return G


# -- capped completion -----------------------------------------------
#
# Dense input makes the full completion swell without bound, so the
# Milnor count runs modulo all monomials beyond a degree cap.  Tails
# past the cap are dropped everywhere; the result is a standard basis
# of the ideal enlarged by those monomials.  When the staircase then
# closes strictly below the cap the enlargement was invisible and the
# count is exact, otherwise the cap was too small.


def _capped(d, cap):
    if cap is None:
        return d
    return {e: c for e, c in d.items() if sum(e) <= cap}


def _capped_milnor(int_gens, order, cap):
    """Exact Milnor count below the cap, or None when inconclusive."""
    G = _int_basis(int_gens, order, cap)
    les = sorted({_int_leading(d, order)[0] for d in G})
    les = [e for e in les if not any(o != e and _divides(o, e) for o in les)]
    count = 0
    top = 0
    for a in range(cap + 1):
        for b in range(cap + 1 - a):
            if not any(_divides(o, (a, b)) for o in les):
                count += 1
                if a + b > top:
                    top = a + b
    if top > cap - 2:
        return None
    return count


def mora_nf(g, basis, order):
    """Weak normal form of g against a reducer list.

    The result is zero exactly when g lies in the ideal the basis
    generates locally, provided the basis is a standard basis.  The
    result is scaled arbitrarily; callers only use the ideal it spans.
    """
    if not g.is_zero():
        dg = _int_terms(g)
        if dg is not None:
            db = [_int_terms(b) for b in basis]
            if all(d is not None for d in db):
                return _int_poly(g.vars, _int_mora(dg, db, order))
    h = _primitive(g)
    used = list(basis)
    while not h.is_zero():
        le, lc = order.leading(h)
        divs = [t for t in used if _divides(order.leading(t)[0], le)]
        if not divs:
            return h
        reducer = min(divs, key=order.ecart)
        if order.ecart(reducer) > order.ecart(h):
            used.append(h)
        re, rc = order.leading(reducer)
        shift = tuple(a - b for a, b in zip(le, re))
        h = _primitive(h - mono_mul(reducer, shift, lc / rc))
    return h


def _s_poly(f, g, order):
    ef, cf = order.leading(f)
    eg, cg = order.leading(g)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    part_f = mono_mul(f, tuple(l - a for l, a in zip(lcm, ef)), 1 / cf)
    part_g = mono_mul(g, tuple(l - a for l, a in zip(lcm, eg)), 1 / cg)
    return part_f - part_g


def standard_basis(gens, order):
    """Standard basis of the local ideal the generators span."""
    live = [g for g in gens if not g.is_zero()]
    ints = [_int_terms(g) for g in live]
    if all(d is not None for d in ints):
        return [_int_poly(live[0].vars, d) for d in _int_basis(ints, order)]
    G = [_primitive(g) for g in live]
    pairs = deque((i, j) for i in range(len(G)) for j in range(i + 1, len(G)))
    while pairs:
        i, j = pairs.popleft()
        h = mora_nf(_s_poly(G[i], G[j], order), G, order)
        if not h.is_zero():
            G.append(h)
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    return G


def leading_exponents(basis, order):
    """Pareto minimal leading exponents of a standard basis."""
    les = sorted({order.leading(g)[0] for g in basis})
    return [
        e
        for e in les
        if not any(o != e and _divides(o, e) for o in les)
    ]


def staircase_count(les):
    """Number of monomials outside the staircase; None when infinite."""
    if not les:
        return None
    if not any(j == 0 for _, j in les) or not any(i == 0 for i, _ in les):
        return None
    total = 0
    i = 0
    while True:
        height = min(j for a, j in les if a <= i)
        if height == 0:
            return total
        total += height
        i += 1


def milnor_number(f):
    """Milnor number of a two variable germ; None when not isolated."""
    fx, fy = diff(f, 0), diff(f, 1)
    if fx.is_zero() and fy.is_zero():
        return None
    order = LocalOrder((1, 1))
    gens = [g for g in (fx, fy) if not g.is_zero()]
    ints = [_int_terms(g) for g in gens]
    if all(d is not None for d in ints):
        for cap in (16, 24, 36, 54, 80):
            count = _capped_milnor(ints, order, cap)
            if count is not None:
                return count
        return None
    basis = standard_basis(gens, order)
    return staircase_count(leading_exponents(basis, order))


def jacobian_leading_exponents(f, weight=(1, 1)):
    """Minimal leading exponents of the Jacobian ideal of a germ."""
    order = LocalOrder(weight)
    basis = standard_basis([diff(f, 0), diff(f, 1)], order)
    return leading_exponents(basis, order)


# -- exact linear algebra --------------------------------------------


def linear_solve(rows, rhs):
    """One solution of A x = b over scalars, free variables set to zero;
    None when the system is inconsistent."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((k for k in range(r, m) if not aug[k][col].is_zero()), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [x / pv for x in aug[r]]
        for k in range(m):
            if k != r and not aug[k][col].is_zero():
                factor = aug[k][col]
                aug[k] = [x - factor * y for x, y in zip(aug[k], aug[r])]
        pivots.append(col)
        r += 1
    for k in range(r, m):
        if not aug[k][n].is_zero():
            return None
    solution = [from_rational(0)] * n
    for k, col in enumerate(pivots):
        solution[col] = aug[k][n]
    return solution


# -- graded decomposition against a Jacobian -------------------------


def _monomials_with_pdeg_at_most(weights, bound):
    min_wx = min(w[0] for w in weights)
    min_wy = min(w[1] for w in weights)
    out = []
    for a in range(bound // min_wx + 1):
        for b in range(bound // min_wy + 1):
            if 0 < weight_value(weights, (a, b)) <= bound:
                out.append((a, b))
    return sorted(out)


def layer_decompose(g, f0, weights, layer, extra_monomials):
    """Write a graded layer as shears of f0 plus the listed monomials.

    Solves  layer == [v1 * df0/dx + v2 * df0/dy]_layer + sum c_k m_k
    over the tower, choosing candidate shear monomials whose product
    with the partial touches nothing below the layer.  Returns
    (v1, v2, coeffs) with coeffs keyed by the extra monomials, or None
    when the layer is not reachable.
    """
    weights = as_weights(weights)
    vars = f0.vars
    columns = []
    tags = []
    for var_index in (0, 1):
        partial = diff(f0, var_index)
        if partial.is_zero():
            continue
        o = poly_order(partial, weights)
        target = layer - o
        if target < 1:
            continue
        for u in _monomials_with_pdeg_at_most(weights, target):
            if sum(u) == 1 and u[var_index] == 1:
                continue
            prod = mono_mul(partial, u, 1)
            if not wjet(prod, weights, layer - 1).is_zero():
                continue
            col = wlayer(prod, weights, layer)
            if col.is_zero():
                continue
            columns.append(col)
            tags.append(("shear", var_index, u))
    for m in extra_monomials:
        if weight_value(weights, m) != layer:
            raise PipelineError("extra monomial sits outside its layer")
        columns.append(SparsePoly.monomial(vars, m, 1))
        tags.append(("modulus", None, tuple(m)))

    support = sorted(set(g.terms) | {e for col in columns for e in col.terms})
    rows = [
        [col.coeff(e) for col in columns]
        for e in support
    ]
    rhs = [g.coeff(e) for e in support]
    solution = linear_solve(rows, rhs)
    if solution is None:
        return None
    v1 = SparsePoly.zero(vars)
    v2 = SparsePoly.zero(vars)
    coeffs = {tuple(m): from_rational(0) for m in extra_monomials}
    for value, (kind, var_index, data) in zip(solution, tags):
        if value.is_zero():
            continue
        if kind == "shear":
            mono = SparsePoly.monomial(vars, data, value)
            if var_index == 0:
                v1 = v1 + mono
            else:
                v2 = v2 + mono
        else:
            coeffs[data] = coeffs[data] + value
    return v1, v2, coeffs
