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
the ideal an element spans.  Each dict is keyed by one integer per
monomial (Bachmann and Schoenemann, ISSAC 1998): x^a y^b has the code
(w . (a, b)) * B - a under weight w, B a base above every exponent.
The codes of weighted degree W fill ((W-1)*B, W*B], a higher power of
x taking a lower code, so integer order is the reverse of the local
order: the leading term is min(d), a shift adds codes, and cap*B bounds
the codes of weighted degree cap.  Milnor numbers come from completions
modulo the monomials past a growing degree cap, certified by Nakayama's
lemma: once every monomial of degree k leads an element of J + m^(k+1),
m^k lies in the Jacobian ideal J.  So a completion whose leading
exponents close a staircase of top t <= cap - 2 goes on at cap t + 1,
as local standard basis engines stop at the highest corner (Greuel and
Pfister, A Singular Introduction to Commutative Algebra), and a rung
below the last cap certifies once its staircase top is at most cap - 1;
the last cap keeps t <= cap - 2.  The first cap is 2*ord - 2, the
lowest at which a germ with a reduced tangent cone can certify by both
rules.  The last cap needs no guess: an isolated germ of degree d has
m^mu inside J and mu <= (d-1)^2 by Bezout, so a cap of (d-1)^2 + 2
decides it.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .errors import PipelineError
from .newton import uni_integers
from .poly import SparsePoly, as_weights, diff, poly_order, weight_value, wjet, wlayer
from .scalars import QQ, tower_of

# the code base B: dicts enter with exponents below it and records keep
# weighted degrees below B/2, so no shift of a record reaches B
_BASE = 1 << 20
_NO_LIMIT = _BASE * _BASE


class LocalOrder:
    """Weighted local order on two variable monomials, and its codes.

    Lower weighted degree means a larger monomial, so 1 beats every
    variable; ties prefer the higher power of the first variable.
    """

    __slots__ = ("weight",)

    def __init__(self, weight=(1, 1)):
        self.weight = tuple(weight)

    def code(self, exps):
        return (self.weight[0] * exps[0] + self.weight[1] * exps[1]) * _BASE - exps[0]

    def exps(self, code):
        w = -(-code // _BASE)
        a = w * _BASE - code
        return a, (w - self.weight[0] * a) // self.weight[1]


# -- the engine ------------------------------------------------------


def _integers(terms):
    """(coprime integers, q) for nonzero Fraction coefficients: each
    coefficient is q times its integer."""
    ints, q = uni_integers(terms.values())
    return dict(zip(terms, ints)), q


def _encoded(terms, order):
    if max(map(max, terms)) >= _BASE:
        raise ValueError(f"an exponent reaches the engine's limit {_BASE}")
    return _strip({order.code(e): c for e, c in terms.items()})


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
    if type(lc) is int and type(rc) is int:
        g = gcd(lc, rc)
        return rc // g, lc // g
    return rc, lc


def _reducer(d, order):
    """(leading exponent, ecart, d, leading code min(d)); a code k has
    weighted degree ceil(k / B), so the ecart reads off min(d) and max(d)."""
    first, low = min(d), -(-max(d) // _BASE)
    if low >= _BASE // 2:
        raise ValueError(
            f"weighted degree {low} reaches the engine's limit {_BASE // 2}"
        )
    return order.exps(first), low - -(-first // _BASE), d, first


def _combine(f, a, sf, g, b, sg, limit):
    """a * x^sf * f - b * x^sg * g for code shifts sf and sg, without
    codes past the limit or zero coefficients."""
    room = limit - sf
    new = {k + sf: a * c for k, c in f.items() if k <= room}
    room = limit - sg
    for k, c in g.items():
        if k <= room:
            k += sg
            v = new[k] = new.get(k, 0) - b * c
            if not v:
                del new[k]
    return new


def _capped(d, limit):
    return {k: c for k, c in d.items() if k <= limit}


def _mora(h, basis, order, cap=None):
    """Weak normal form of a coefficient dict against basis records; with
    a cap, terms of weighted degree above it are dropped after every step."""
    limit = _NO_LIMIT if cap is None else cap * _BASE
    used = list(basis)
    while h:
        h = _strip(h)
        current = (a, b), ecart, _, lead = _reducer(h, order)
        divs = [r for r in used if r[0][0] <= a and r[0][1] <= b]
        if not divs:
            return h
        _, reducer_ecart, reducer, rlead = min(divs, key=itemgetter(1))
        if reducer_ecart > ecart:
            used.append(current)
        x, y = _multipliers(h[lead], reducer[rlead])
        h = _combine(h, x, 0, reducer, y, lead - rlead, limit)
    return h


def _s_poly(rf, rg, top, limit):
    """S-polynomial of two records whose leads have lcm code `top`, cut."""
    (_, _, f, kf), (_, _, g, kg) = rf, rg
    a, b = _multipliers(f[kf], g[kg])
    return _combine(f, a, top - kf, g, b, top - kg, limit)


def _basis(gens, order, cap=None):
    """`_reducer` records of a standard basis, by pairs in arrival order.

    With a cap, every tail past it is dropped: the result is a standard
    basis of the ideal enlarged by all monomials of weighted degree above
    the cap.  A pair whose leading monomials have their lcm past the cap
    forms no S-polynomial: every term of x^s * f has weighted degree at
    least that of x^s times the lead of f, the lcm, so the capped
    S-polynomial is empty.  Once the leading exponents found so far
    close a staircase whose top t is at most cap - 2, the completion is
    cut at its highest corner before its next reduction: every monomial
    of degree t + 1 leads an element, so m^(t+1) lies in the ideal plus
    m^(cap+1), inside m^(t+2), and by Nakayama in the ideal itself.  The
    enlargement past t + 1 then adds nothing, so the elements found are
    cut there and the rest runs at cap t + 1.  The cut is t + 1, not t,
    so that elements led in degree t + 1 survive.
    """
    limit = _NO_LIMIT if cap is None else cap * _BASE
    G = [_reducer(_strip(d), order) for d in (_capped(d, limit) for d in gens) if d]
    pairs = deque((i, j) for i in range(len(G)) for j in range(i + 1, len(G)))
    tested = 0  # elements of G at the last corner test
    while pairs:
        i, j = pairs.popleft()
        top = order.code(tuple(map(max, G[i][0], G[j][0])))
        if top > limit:
            continue
        s = _s_poly(G[i], G[j], top, limit)
        # test the corner before a reduction, if elements have arrived
        # since the last test
        if s and cap is not None and tested < len(G):
            G, pairs, cap = _cut_at_corner(G, pairs, cap, order)
            limit = cap * _BASE
            tested = len(G)
            s = _capped(s, limit)
        h = _mora(s, G, order, cap) if s else s
        if h:
            G.append(_reducer(h, order))
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    return G


def _cut_at_corner(G, pairs, cap, order):
    """(G, pairs, cap), cut at cap t + 1 when the leading exponents
    close a staircase of top t <= cap - 2, as they were otherwise."""
    les = [r[0] for r in G]
    # t is at least each axis power's degree less one: test the corner
    # only once both axes carry a power of degree below the cap
    if max(
        min((a for a, b in les if not b), default=cap),
        min((b for a, b in les if not a), default=cap),
    ) >= cap:
        return G, pairs, cap
    top = _staircase(les, cap)[1]
    if top > cap - 2:
        return G, pairs, cap
    cap = top + 1
    # an element survives the cut exactly when its leading exponent,
    # its lowest term, lies in degree cap or below; the cut changes its
    # ecart, so its record is made afresh
    kept = [k for k, r in enumerate(G) if r[3] <= cap * _BASE]
    index = {k: n for n, k in enumerate(kept)}
    G = [_reducer(_strip(_capped(G[k][2], cap * _BASE)), order) for k in kept]
    pairs = deque((index[i], index[j]) for i, j in pairs if i in index and j in index)
    return G, pairs, cap


def _staircase(les, cap):
    """(count, top degree) of the monomials outside the staircase that
    the leading exponents span together with every monomial of degree
    above the cap."""
    floors = {}
    for a, j in les:
        if j < floors.get(a, cap + 1):
            floors[a] = j
    count = top = 0
    height = cap + 1
    for i in range(cap + 1):
        height = min(height, cap + 1 - i, floors.get(i, height))
        if height == 0:
            break
        count += height
        top = max(top, i + height - 1)
    return count, top


# -- public entry points ---------------------------------------------


def _partial_terms(terms):
    """(dx, dy, q), the partials of a two variable term dict read off
    its terms: q times them are the true partials, on coprime integers
    for rational input; tower input keeps its scalars, with q None."""
    q = None
    if tower_of(*terms.values()) is QQ:
        terms, q = _integers(terms)
    dx = {(a - 1, b): a * c for (a, b), c in terms.items() if a}
    dy = {(a, b - 1): b * c for (a, b), c in terms.items() if b}
    return dx, dy, q


def _partials(f, order):
    """Engine dicts of the nonzero partials of f."""
    return [_encoded(d, order) for d in _partial_terms(f.terms)[:2] if d]


def milnor_number(f, last_cap=None, with_top=False):
    """Milnor number of a two variable germ; None when not isolated.

    The Jacobian ideal J is completed modulo the monomials past a cap,
    on caps growing by half from 2*d - 2, d the order of f, up to
    `last_cap`.  A rung is accepted by one of two rules, each a step of
    Nakayama's lemma, after which the enlargement was invisible and the
    count is exact:

    - below `last_cap`, when the staircase top t is at most cap - 1:
      every monomial of degree cap then leads an element, so m^cap lies
      in J + m^(cap+1) and hence in J;
    - at `last_cap`, only when t <= cap - 2: m^(t+1) lies in
      J + m^(t+2) and hence in J, and the determinacy degree t + 2
      read off below never passes `last_cap`.

    The first cap 2d - 2 is the lowest at which both rules can certify
    when the tangent cone is reduced.  J lies in m^(d-1), and the
    lowest forms g1, g2 of the partials then share no factor, so every
    syzygy of theirs has degree d - 1 or more.  Below degree 2d - 2 the
    leading forms of J are therefore those of (g1, g2), which fill only
    2d - 4 of the 2d - 3 monomials of degree 2d - 4: the staircase top
    t is at least 2d - 4, and the last-cap rule needs t <= cap - 2.
    Degenerate tangent cones kept t >= 2d - 4 on every germ tested.
    Correctness never rests on this bound: a cap that is too low only
    fails to certify, and the ladder climbs on.
    The default last cap (d-1)^2 + 2 for f of degree d decides every
    germ: an isolated one has m^mu inside J and mu <= (d-1)^2 by
    Bezout, so its staircase ends below degree (d-1)^2.  A caller that
    accepts a count only when mu + 2 <= B loses nothing with last cap B:
    such a staircase ends at degree mu - 1 <= B - 3.

    With `with_top` the result is (mu, t), t the top degree of the
    staircase, read off the same completion.  Every monomial of degree
    t + 1 leads an element of J, so m^(t+1) lies in J + m^(t+2) and, by
    Nakayama, in J.  Then m^(t+3) lies in m^2 * J, and f is
    (t+2)-determined by Mather's test (Greuel, Lossen and Shustin,
    Thm I.2.23).  Since t <= mu - 1 this degree never passes mu + 1.
    """
    order = LocalOrder((1, 1))
    gens = _partials(f, order)
    if not gens:
        return None
    if last_cap is None:
        last_cap = (f.total_degree() - 1) ** 2 + 2
    # at least 2, so that the cap grows by cap // 2
    cap = max(2 * poly_order(f, (1, 1)) - 2, 2)
    while True:
        cap = min(cap, last_cap)
        basis = _basis(gens, order, cap)
        count, top = _staircase([r[0] for r in basis], cap)
        # below the last cap t <= cap - 1 puts m^cap in J + m^(cap+1),
        # hence in J; the last cap keeps t <= cap - 2 for split_germ
        if top <= cap - (2 if cap == last_cap else 1):
            return (count, top) if with_top else count
        if cap == last_cap:
            return None
        cap += cap // 2


def jacobian_leading_exponents(f, weight=(1, 1)):
    """Minimal leading exponents of the Jacobian ideal of a germ."""
    order = LocalOrder(weight)
    les = {r[0] for r in _basis(_partials(f, order), order)}
    under = {e: [o for o in les if o[0] <= e[0] and o[1] <= e[1]] for e in les}
    return sorted(e for e in les if under[e] == [e])


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
        pivot = next((k for k in range(r, m) if aug[k][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [x / pv for x in aug[r]]
        for k in range(m):
            if k != r and aug[k][col]:
                factor = aug[k][col]
                aug[k] = [x - factor * y for x, y in zip(aug[k], aug[r])]
        pivots.append(col)
        r += 1
    for k in range(r, m):
        if aug[k][n]:
            return None
    solution = [Fraction(0)] * n
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
            prod = partial * SparsePoly.monomial(vars, u)
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
    coeffs = {tuple(m): Fraction(0) for m in extra_monomials}
    for value, (kind, var_index, data) in zip(solution, tags):
        if not value:
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
