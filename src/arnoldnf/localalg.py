"""Local algebra at the origin: standard bases, Milnor numbers, and
graded decompositions against a Jacobian ideal.

Computations run in the localization of the polynomial ring at the
origin, using a weighted order in which the constant monomial is the
largest.  Division therefore follows the ecart strategy: a reduction
step may enlarge the reducer set with the current remainder, which is
what makes the loop terminate for these orders.

One engine does every reduction, on coefficient dicts that hold
coprime integers for rational input and tower scalars otherwise; its
steps cross multiply and never divide, since every caller only uses
the ideal an element spans.  Milnor numbers come from completions
modulo the monomials past a growing degree cap.  The last cap needs no
guess: an isolated germ of degree d has m^mu inside its Jacobian ideal
and mu <= (d-1)^2 by Bezout, so a cap of (d-1)^2 + 2 decides it.
"""

from __future__ import annotations

from collections import deque
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

    def leading(self, d):
        """Leading (exponent, coefficient) of a coefficient dict."""
        e = max(d, key=self.key)
        return e, d[e]


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


# -- the engine ------------------------------------------------------


def _coeff_dicts(polys):
    """Engine input for nonzero polynomials: coprime integer dicts when
    every coefficient is rational, tower scalar dicts otherwise."""
    if not all(c.is_rational() for f in polys for c in f.terms.values()):
        return [dict(f.terms) for f in polys]
    out = []
    for f in polys:
        qs = {e: c.as_fraction() for e, c in f.terms.items()}
        scale = lcm(*(q.denominator for q in qs.values()))
        out.append(_strip({e: int(q * scale) for e, q in qs.items()}))
    return out


def _poly(vars, d):
    return SparsePoly(
        vars, {e: from_rational(c) if type(c) is int else c for e, c in d.items()}
    )


def _strip(d):
    """Divide out the content of an integer dict; tower dicts pass."""
    if type(next(iter(d.values()))) is not int:
        return d
    g = gcd(*d.values())
    if g > 1:
        return {e: c // g for e, c in d.items()}
    return d


def _multipliers(lc, rc):
    """(a, b) with a * lc == b * rc, coprime for integers."""
    if type(lc) is int:
        g = gcd(lc, rc)
        return rc // g, lc // g
    return rc, lc


def _reducer(d, order):
    """(leading exponent, ecart, d); the ecart is how far the lowest
    term lies past the leading one in weighted degree."""
    le = max(d, key=order.key)
    return le, max(map(order.wdeg, d)) - order.wdeg(le), d


def _combine(h, a, g, shift, b):
    """a * h - b * x^shift * g, without zero coefficients."""
    new = {e: a * c for e, c in h.items()}
    for e, c in g.items():
        k = tuple(x + y for x, y in zip(e, shift))
        v = new.get(k, 0) - b * c
        if v:
            new[k] = v
        else:
            new.pop(k, None)
    return new


def _capped(d, cap):
    if cap is None:
        return d
    return {e: c for e, c in d.items() if sum(e) <= cap}


def _mora(h, basis, order, cap=None):
    """Weak normal form of a coefficient dict; with a cap, terms of
    total degree above it are dropped after every step."""
    used = [_reducer(t, order) for t in basis]
    if h:
        h = _strip(h)
    while h:
        current = le, ecart, _ = _reducer(h, order)
        divs = [r for r in used if _divides(r[0], le)]
        if not divs:
            return h
        re, reducer_ecart, reducer = min(divs, key=lambda r: r[1])
        if reducer_ecart > ecart:
            used.append(current)
        a, b = _multipliers(h[le], reducer[re])
        shift = tuple(x - y for x, y in zip(le, re))
        new = _capped(_combine(h, a, reducer, shift, b), cap)
        h = _strip(new) if new else new
    return h


def _s_poly(f, g, order):
    ef, cf = order.leading(f)
    eg, cg = order.leading(g)
    top = tuple(max(x, y) for x, y in zip(ef, eg))
    a, b = _multipliers(cf, cg)
    sf = tuple(t - x for t, x in zip(top, ef))
    sg = tuple(t - x for t, x in zip(top, eg))
    lifted = {tuple(x + s for x, s in zip(e, sf)): c for e, c in f.items()}
    return _combine(lifted, a, g, sg, b)


def _basis(gens, order, cap=None):
    """Standard basis of coefficient dicts, by pairs in arrival order.

    With a cap, every tail past it is dropped: the result is a standard
    basis of the ideal enlarged by all monomials of degree above the cap.
    """
    G = [_strip(d) for d in (_capped(d, cap) for d in gens) if d]
    pairs = deque((i, j) for i in range(len(G)) for j in range(i + 1, len(G)))
    while pairs:
        i, j = pairs.popleft()
        s = _capped(_s_poly(G[i], G[j], order), cap)
        h = _mora(s, G, order, cap) if s else s
        if h:
            G.append(h)
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    return G


def _staircase(les, cap):
    """(count, top degree) of the monomials outside the staircase that
    the leading exponents span together with every monomial of degree
    above the cap."""
    count = top = 0
    height = cap + 1
    for i in range(cap + 1):
        height = min([height, cap + 1 - i] + [j for a, j in les if a == i])
        if height == 0:
            break
        count += height
        top = max(top, i + height - 1)
    return count, top


# -- public entry points ---------------------------------------------


def mora_nf(g, basis, order):
    """Weak normal form of g against a reducer list.

    The result is zero exactly when g lies in the ideal the basis
    generates locally, provided the basis is a standard basis.  The
    result is scaled arbitrarily; callers only use the ideal it spans.
    """
    if g.is_zero():
        return g
    dg, *db = _coeff_dicts([g, *basis])
    return _poly(g.vars, _mora(dg, db, order))


def standard_basis(gens, order):
    """Standard basis of the local ideal the generators span."""
    live = [g for g in gens if not g.is_zero()]
    return [_poly(live[0].vars, d) for d in _basis(_coeff_dicts(live), order)]


def _partials(f):
    return _coeff_dicts([g for g in (diff(f, 0), diff(f, 1)) if not g.is_zero()])


def milnor_number(f, last_cap=None):
    """Milnor number of a two variable germ; None when not isolated.

    The Jacobian ideal J is completed modulo the monomials past a cap,
    on caps growing by half from 16 up to `last_cap`.  When the
    staircase closes at least two degrees below the cap, m^(cap-1) lies
    in J by Nakayama, the enlargement was invisible and the count is exact.
    The default last cap (d-1)^2 + 2 for f of degree d decides every
    germ: an isolated one has m^mu inside J and mu <= (d-1)^2 by
    Bezout, so its staircase ends below degree (d-1)^2.  A caller that
    accepts a count only when mu + 2 <= B loses nothing with last cap B:
    such a staircase ends at degree mu - 1 <= B - 3.
    """
    gens = _partials(f)
    if not gens:
        return None
    if last_cap is None:
        last_cap = (f.total_degree() - 1) ** 2 + 2
    order = LocalOrder((1, 1))
    cap = 16
    while True:
        cap = min(cap, last_cap)
        basis = _basis(gens, order, cap)
        count, top = _staircase([order.leading(d)[0] for d in basis], cap)
        if top <= cap - 2:
            return count
        if cap == last_cap:
            return None
        cap += cap // 2


def jacobian_leading_exponents(f, weight=(1, 1)):
    """Minimal leading exponents of the Jacobian ideal of a germ."""
    order = LocalOrder(weight)
    les = {order.leading(d)[0] for d in _basis(_partials(f), order)}
    return sorted(e for e in les if not any(o != e and _divides(o, e) for o in les))


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
