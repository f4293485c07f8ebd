"""Exact steps that drive a germ toward its normal form.

`split_germ` restricts a germ to the critical graph of its Morse
variables (the splitting lemma), leaving a residual in at most two
variables.  Most other steps are substitutions that keep the germ right
equivalent to the input: linear changes that diagonalize a quadratic
part, straighten a lowest jet or set marked coefficients to one, all
run as elementary shears and scalings on one kernel (`_linear_pass`),
and Taylor shifts generated by the Jacobian that empty a graded layer
(`shear`).  `even_quartic_form` instead reads the X_9 normal form off
the quartic jet, to which such a germ is right equivalent.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, count
from math import comb, gcd
from operator import mul

from .catalog import double_core_family, moduli_positions
from .errors import PipelineError
from .localalg import (
    _NO_LIMIT,
    LocalOrder,
    _combine,
    _integers,
    _multipliers,
    _partial_terms,
    layer_decompose,
    milnor_number,
)
from .poly import (
    SparsePoly,
    _add_products,
    _by_weight,
    as_weights,
    diff,
    substitute,
    weight_value,
    wjet,
    wlayer,
)
from .newton import (
    cubic_root,
    quadratic_roots,
    uni_make,
    uni_yun,
)
from .scalars import QQ, adjoin_root, rational_nth_root, tower_of

# -- splitting off the nondegenerate quadratic part ------------------


class SplitResult:
    """What `split_germ` reads off a germ.

    `determinacy` is a degree k to which the residual is determined:
    every germ with the same k-jet is right equivalent to it, so a
    reduction may drop every term of ordinary degree above k.  For
    corank two it is t + 2, t the top degree of the staircase behind
    the Milnor count (Mather's test, see `milnor_number`); for corank
    one, x^(mu+1) is (mu+1)-determined, and a Morse germ 2-determined.
    Both `mu` and `determinacy` are None when the germ is not isolated.

    `residual` is exact through the truncation bound `split_germ`
    accepted, and that bound is at least `determinacy`: the residual
    shares its k-jet with the true one, hence is right equivalent to it.
    Terms above the bound were never computed.
    """

    __slots__ = ("corank", "rank", "residual", "mu", "determinacy")

    def __init__(self, corank, rank, residual, mu, determinacy=None):
        self.corank = corank
        self.rank = rank
        self.residual = residual
        self.mu = mu
        self.determinacy = determinacy


def _square_up(f):
    """Lagrange's reduction of f's quadratic part: (moves, diagonal).

    Run through `_move` in order, the moves leave f with quadratic part
    sum d_i * x_i^2 over its first len(diagonal) variables.  A linear
    change keeps every degree, so they are read off the degree-2 terms
    alone.  For each k in turn, a missing x_k^2 takes a later square by
    a swap; with only cross terms x_i*x_j (i < j) left, x_j -> x_j + x_i
    makes x_i^2 and a swap moves i to k.  Each cross term c*x_k*x_j then
    goes by x_k -> x_k - c/(2*d_k)*x_j.
    """
    n = len(f.vars)
    q = SparsePoly(f.vars, {e: c for e, c in f.terms.items() if sum(e) == 2})
    moves, diagonal = [], []

    def at(i, j):
        e = [0] * n
        e[i] += 1
        e[j] += 1
        return q.terms.get(tuple(e))

    def move(*m):
        nonlocal q
        moves.append(m)
        q = _move(q, *m)

    for k in range(n):
        if not at(k, k):
            pivot = next((j for j in range(k + 1, n) if at(j, j)), None)
            if pivot is None:
                pairs = [
                    (i, j) for i in range(k, n) for j in range(i + 1, n) if at(i, j)
                ]
                if not pairs:
                    break
                pivot, j = pairs[0]
                move(j, pivot, 1)
            if pivot != k:
                move(k, pivot, None)
        d = at(k, k)
        for j in range(k + 1, n):
            c = at(k, j)
            if c:
                move(k, j, -c / (2 * d))
        diagonal.append(d)
    return moves, diagonal


def _move(f, i, j, t):
    """f after x_i -> x_i + t*x_j, one `_linear_pass` on the coefficients
    as they are, or after swapping x_i and x_j, i < j, when t is None."""
    if t is None:
        terms = {
            e[:i] + e[j : j + 1] + e[i + 1 : j] + e[i : i + 1] + e[j + 1 :]: c
            for e, c in f.terms.items()
        }
    else:
        terms = {e: c for e, c in _linear_pass(f.terms, i, j, t, 1)[0].items() if c}
    return SparsePoly(f.vars, terms)


def _morse_split(g, diagonal, rank, names, bound, phi=None):
    """Residual of the splitting lemma through degree `bound`, and the
    critical graph it restricts to.

    The first `rank` variables z of g carry its quadratic part
    sum d_i * z_i^2, and the others, renamed to `names`, span the
    kernel.  The graph z = phi(x) on which every dg/dz_i vanishes is
    the fixed point of phi_i <- phi_i - (dg/dz_i)(phi, x) / (2 * d_i),
    iterated from zero or from the graph `phi` of a lower bound; each
    round gains at least one order.  Every dg/dz_i vanishes on the true
    graph, so an error of order k in phi moves g(phi, x) only in degrees
    2k and up: a graph exact through degree bound // 2 gives the
    residual g(phi, x) exactly through degree `bound` (the splitting
    lemma, Greuel, Lossen and Shustin, Thm I.2.47).
    """
    vars = g.vars
    images = {v: SparsePoly.variable(names, w) for v, w in zip(vars[rank:], names)}
    grads = [diff(g, i) for i in range(rank)]
    steps = [1 / (2 * d) for d in diagonal]
    if phi is None:
        phi = [SparsePoly.zero(names)] * rank
    trunc = ((1,) * len(names), bound // 2)
    while True:
        images.update(zip(vars, phi))
        slopes = [substitute(dg, images, truncation=trunc) for dg in grads]
        if all(s.is_zero() for s in slopes):
            break
        phi = [p - s * c for p, s, c in zip(phi, slopes, steps)]
    return substitute(g, images, truncation=((1,) * len(names), bound)), phi


def split_germ(f):
    """Split a germ into a sum of squares plus a residual in the kernel
    variables of its quadratic part.

    The quadratic part is diagonalized by elementary shears on
    `_linear_pass`, read off its quadratic terms alone (`_square_up`);
    f takes them only when a residual of corank one or two is left to
    split off.  The residual comes back over
    canonical variables ("x",) or ("x", "y") depending on the corank;
    for corank above two no residual is produced, and corank zero is A_1
    without splitting.  The residual is computed exactly through a
    truncation bound, and the first bound that holds its determinacy jet
    is accepted: a germ determined by its k-jet, k <= bound, is right
    equivalent to the true residual, which shares that jet.  For corank
    two the Milnor count capped at the bound certifies only staircase
    tops t <= bound - 2, so it runs once per isolated germ.  No
    certificate below a Bezout style cutoff means the singularity is not
    isolated.  A germ without quadratic part is its own residual, exact
    at every bound, so one Milnor count up to its Bezout cap decides it.
    """
    n = len(f.vars)
    moves, diagonal = _square_up(f)
    rank = len(diagonal)
    corank = n - rank
    if corank > 2:
        return SplitResult(corank, rank, None, None)
    if corank == 0:
        return SplitResult(0, rank, SparsePoly((), {}), 1, 2)
    names = ("x", "y")[:corank]
    if not rank:
        residual = SparsePoly(names, dict(f.terms))
        milnor = _residual_milnor(residual, corank, None) or (None, None)
        return SplitResult(corank, rank, residual, *milnor)
    g = f
    for move in moves:
        g = _move(g, *move)
    degree = max(f.total_degree(), 2)
    cutoff = (degree - 1) ** n + 3
    bound = max(2 * degree, 10)
    phi = None
    while True:
        residual, phi = _morse_split(g, diagonal, rank, names, bound, phi)
        milnor = _residual_milnor(residual, corank, bound)
        if milnor is not None:
            return SplitResult(corank, rank, residual, *milnor)
        if bound > cutoff:
            return SplitResult(corank, rank, residual, None)
        bound *= 2


def _residual_milnor(residual, corank, bound):
    """(mu, determinacy degree) of the residual; None when not isolated.

    The degree is at most `bound` whenever it is found: a corank one
    residual c*x^k + ... is cut at the bound, and the Milnor count capped
    there certifies only staircase tops t <= bound - 2.  Without a bound
    the count climbs to the Bezout cap of `milnor_number`."""
    if corank == 1:
        if residual.is_zero():
            return None
        k = min(e[0] for e in residual.terms)
        return k - 1, k
    milnor = milnor_number(residual, bound, with_top=True)
    if milnor is None:
        return None
    mu, top = milnor
    return mu, top + 2


# -- straightening the lowest jet ------------------------------------


def apply_linear(f, rows, bound=None):
    """Linear substitution sending old variable i to the combination
    rows[i] of the new variables; truncates at standard degree `bound`.

    A linear change keeps every degree, so the cut comes first.  The
    rows factor as P*L*D*U (`_factor_rows`), and f takes the factors in
    that order through `_linear_pass`: P as an exponent shuffle, L column
    by column, D termwise, U row by row from the bottom up.  Each nonzero
    entry t at (i, j) of the unit triangles L and U is one shear
    x_i -> x_i + t*x_j.  Rational input runs on integers with one
    `localalg._integers` scale, divided once at the end; tower input runs
    on its scalars.  The identity only truncates; singular rows raise
    ValueError.
    """
    n = len(f.vars)
    if bound is not None:
        f = wjet(f, (1,) * n, bound)
    if all(c == int(i == j) for i, row in enumerate(rows) for j, c in enumerate(row)):
        return f
    a, perm = _factor_rows(rows)
    passes = [(i, k, a[i][k]) for k in range(n) for i in range(k + 1, n) if a[i][k]]
    passes += [(k, k, a[k][k]) for k in range(n) if a[k][k] != 1]
    for k in reversed(range(n)):
        passes += [(k, j, a[k][j] / a[k][k]) for j in range(k + 1, n) if a[k][j]]
    rational = tower_of(*f.terms.values(), *(t for _, _, t in passes)) is QQ
    terms, scale = _integers(f.terms) if rational else (f.terms, Fraction(1))
    terms = {tuple(e[p] for p in perm): c for e, c in terms.items()}
    for i, j, t in passes:
        num, den = (t.numerator, t.denominator) if rational else (t, 1)
        terms, q = _linear_pass(terms, i, j, num, den)
        scale /= q
    out = {e: c * scale if rational else c for e, c in terms.items() if c}
    return SparsePoly(f.vars, out)


def _factor_rows(rows):
    """(a, perm) with rows[perm[k]] row k of L*D*U, by elimination with
    a pivot search: a holds L's multipliers below the diagonal and D*U on
    and above it.  A zero entry forms no multiplier, so a diagonal change
    divides nothing."""
    n = len(rows)
    a = [[Fraction(c) if type(c) is int else c for c in row] for row in rows]
    perm = list(range(n))
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            raise ValueError("singular linear change")
        a[k], a[p] = a[p], a[k]
        perm[k], perm[p] = perm[p], perm[k]
        for i in range(k + 1, n):
            if a[i][k]:
                m = a[i][k] = a[i][k] / a[k][k]
                for j in range(k + 1, n):
                    if a[k][j]:
                        a[i][j] = a[i][j] - m * a[k][j]
    return a, perm


def _linear_pass(terms, i, j, num, den):
    """x_i -> x_i + t*x_j, or x_i -> t*x_i when j is i, on a term dict,
    t = num/den: (the image times den^top, den^top), top the largest
    exponent of x_i; x_i^a yields x_i^(a-k)*x_j^k times C(a, k)*t^k."""
    top = max((e[i] for e in terms), default=0)
    dens = list(accumulate([den] * top, mul, initial=1))
    w = [p * q for p, q in zip(accumulate([num] * top, mul, initial=1), dens[::-1])]
    if i == j:
        return {e: w[e[i]] * c for e, c in terms.items()}, dens[-1]
    out = {}
    for e, c in terms.items():
        e = list(e)
        a = e[i]
        for k in range(a + 1):
            key = tuple(e)
            v = comb(a, k) * w[k] * c
            held = out.get(key)
            out[key] = v if held is None else held + v
            e[i] -= 1
            e[j] += 1
    return out, dens[-1]


def _binary_form_factors(jet, d):
    """Split a binary form of degree d into linear factors p*x + q*y
    as far as the current tower allows.

    Returns (linears, blocks): `linears` lists ((p, q), multiplicity)
    covering the y factor and every degree one squarefree block, while
    `blocks` keeps unsplit higher degree blocks as (coeffs, mult).  A
    rational form is factored as one primitive integer list, whose
    quotients by primitive gcds are exact by Gauss's lemma, a tower form
    on field kernels; blocks come back monic, multiplicities rising.
    """
    u = [Fraction(0)] * (d + 1)
    for (i, _), c in jet.terms.items():
        u[i] = c
    u = uni_make(u)
    ypower = d - (len(u) - 1)
    linears = []
    blocks = []
    if ypower:
        linears.append(((Fraction(0), Fraction(1)), ypower))
    for block, mult in uni_yun(u):
        if len(block) == 2:
            root = -block[0] / block[1]
            linears.append(((Fraction(1), -root), mult))
        else:
            blocks.append((block, mult))
    return linears, blocks


def _lines_of(jet, linears, blocks, m):
    """The linear factors of multiplicity m, split ones first; an
    unsplit block finds its roots only when they are asked for."""
    yield from (l for l, mult in linears if mult == m)
    for block, mult in blocks:
        if mult != m:
            continue
        tower = tower_of(*jet.terms.values())
        if len(block) == 3:
            _, roots = quadratic_roots(tower, block[2], block[1], block[0])
        else:
            roots = [cubic_root(tower, block)[1]]
        yield from ((Fraction(1), -r) for r in roots)


def _pair_to_axes(l1, l2):
    """Rows sending l1 to x and l2 to y; the forms must be independent."""
    p1, q1 = l1
    p2, q2 = l2
    det = p1 * q2 - q1 * p2
    if not det:
        raise PipelineError("dependent linear factors cannot frame axes")
    return [[q2 / det, -q1 / det], [-p2 / det, p1 / det]]


# a lowest jet by (degree, multiplicities of its linear factors): its
# kind, the multiplicity of the factor sent to x and of the one sent to
# y (None: the complement of the other), the variable whose shear then
# removes the middle term, and the support the jet lands on
_JETS = {
    (3, (3,)): ("cube", 3, None, None, {(3, 0)}),
    (3, (2, 1)): ("square-line", 2, 1, None, {(2, 1)}),
    (3, (1, 1, 1)): ("three-lines", None, 1, 0, {(2, 1), (0, 3)}),
    (4, (4,)): ("fourth-power", 4, None, None, {(4, 0)}),
    (4, (3, 1)): ("cube-line", 3, 1, None, {(3, 1)}),
    (4, (2, 2)): ("two-double-lines", 2, 2, None, {(2, 2)}),
    (4, (2, 1, 1)): ("double-plus-two", 2, None, 1, {(4, 0), (2, 2)}),
    (4, (1, 1, 1, 1)): ("four-distinct", None, None, None, None),
}


def straighten_jet(g, d, bound):
    """Linear change putting the degree d jet onto its catalog support.

    Returns (g2, kind), kind naming the factor pattern of the jet.  Its
    `_JETS` row picks the factors that frame the axes, the middle shear
    and the support, and one linear change does all of it.  A factor
    p*x + q*y framing one axis alone gets the complement (0, 1/p), or
    when p = 0, (1, 0) beside x and (-1/q, 0) beside y.  Four distinct
    roots leave the germ untouched.
    """
    jet = wlayer(g, (1, 1), d)
    linears, blocks = _binary_form_factors(jet, d)
    sig = [m for _, m in linears] + [m for b, m in blocks for _ in b[1:]]
    sig = tuple(sorted(sig, reverse=True))
    if (d, sig) not in _JETS:
        raise PipelineError(f"unrecognized jet factor pattern {sig}")
    kind, mx, my, middle, support = _JETS[d, sig]
    if support is None:
        return g, kind
    lines = {m: _lines_of(jet, linears, blocks, m) for m in (mx, my) if m}
    lx = next(lines[mx]) if mx else None
    ly = next(lines[my]) if my else None
    p, q = lx or ly
    zero, one = Fraction(0), Fraction(1)
    if lx is None:
        lx = (zero, 1 / p) if p else (-1 / q, zero)
    if ly is None:
        ly = (zero, 1 / p) if p else (one, zero)
    rows = _pair_to_axes(lx, ly)
    if middle is not None:
        # fold in the shear of the variable `middle` by c times the other
        c = _middle_coefficient(apply_linear(jet, rows), d, middle)
        for r in rows:
            r[1 - middle] = r[1 - middle] - c * r[middle]
    g2 = apply_linear(g, rows, bound)
    landed = set(wlayer(g2, (1, 1), d).terms)
    if landed != support:
        raise PipelineError(f"{kind} jet on {sorted(landed)}, not {sorted(support)}")
    return g2, kind


def _middle_coefficient(jet, d, var_index):
    """The c of the shear x -> x - c*y (var_index 0), or y -> y - c*x,
    removing the middle term of the jet y^(d-2)*(a0*x^2 + a1*x*y +
    a2*y^2), a0 nonzero, or of its mirror image: c = a1/(2*a0)."""

    def at(e):
        return e if var_index == 0 else e[::-1]

    a0 = jet.coeff(at((2, d - 2)))
    if not a0:
        raise PipelineError("expected a nonzero square coefficient")
    return jet.coeff(at((1, d - 1))) / (2 * a0)


# -- emptying one graded level ---------------------------------------


def clear_level(f, weights, level, allowed, bound):
    """One round of level preserving shears pushing a graded level
    toward the allowed monomials; `bound` truncates in standard degree.

    The shears are exact only to first order within the level, so the
    caller iterates until the stray support is gone.  Returns the
    transformed germ, or None when the level is not reachable at all.
    """
    weights = as_weights(weights)
    g = wlayer(f, weights, level)
    if all(e in allowed for e in g.terms):
        return f
    result = layer_decompose(g, g, weights, level, sorted(allowed))
    if result is None:
        return None
    v1, v2, _ = result
    if v1.is_zero() and v2.is_zero():
        return None
    return shear(f, v1, v2, ((1, 1), bound))


# -- the layer ladder ------------------------------------------------


def graded_ladder(f, weights, d, dprime, allowed_above):
    """Normalize every layer from d+1 up to dprime.

    `allowed_above` lists the monomials permitted to survive above the
    principal level d (the moduli positions of the target shape).  A
    single weight grades the local algebra: a shear built from the
    Jacobian of the level d part writes nothing below the layer it
    clears, so the layers can be emptied lowest first and everything
    above dprime cut, and the cut is faithful.  The layers run through
    the same exact absorption as `absorb_above`, truncated at weighted
    degree dprime.
    """
    return _absorb(f, weights, d, allowed_above, (weights, dprime))


def absorb_above(f, weights, level, allowed, bound):
    """Clear everything above the principal level onto the allowed
    monomials by exact absorption into the Jacobian ideal.

    Under a two piece weight the local algebra is not graded: reducing
    a term can leave residue on an allowed monomial of lower weighted
    degree, so the cut a single weight permits is not faithful here.
    The absorption is cut in ordinary degree instead, at k = bound - 1,
    the germ's determinacy degree: with m^(k+1) inside m^2 * J(f)
    (Mather's test, see `milnor_number`) every germ sharing the k-jet
    of f is right equivalent to it.  Each shear keeps the class of f,
    so it keeps the test, and its cut at k drops only terms of degree
    k + 1 and up, which the test makes irrelevant; the caller's own
    moves cut at bound = k + 1, one degree more than needed.  Whatever
    the ideal cannot reach flows onto the allowed monomials and stays
    put.  Every substitution is exact, so the surviving coefficients do
    not depend on how the shear was chosen, only on the equivalence
    class of the input.
    """
    return _absorb(f, weights, level, allowed, ((1, 1), bound - 1))


def _absorb(f, weights, level, allowed, truncation):
    """Remove the stray content above `level` one weight layer at a
    time, lowest first, by an exact shear assembled from monomial
    multiples of the partials of the principal part; every product and
    shear drops the terms beyond `truncation` = (truncation weight,
    bound)."""
    weights = as_weights(weights)
    f = wjet(f, *truncation)
    allowed = {tuple(e) for e in allowed}
    base = wjet(f, weights, level)
    table = None
    weight = {}  # exponent -> its weight, filled as exponents turn up
    for _ in range(300):
        low, stray = {}, {}
        for e, c in f.terms.items():
            w = weight.get(e)
            if w is None:
                w = weight[e] = weight_value(weights, e)
            if w <= level:
                low[e] = c
            elif e not in allowed:
                stray[e] = c
        # the shear of the round before must keep the principal part
        if table is not None and low != base.terms:
            raise PipelineError("tail absorption disturbed the principal part")
        if not stray:
            return f
        if table is None:
            table = _ColumnTable(
                wlayer(f, weights, level), weights, level, allowed, truncation
            )
        j = min(weight[e] for e in stray)
        layer = {e: c for e, c in stray.items() if weight[e] == j}
        v1, v2 = table.layer_shear(layer, j)
        if v1.is_zero() and v2.is_zero():
            raise PipelineError("tail absorption made no progress")
        f = shear(f, v1, v2, truncation)
    raise PipelineError("tail absorption did not settle")


def _column_floor(var_index, u, weights, level, allowed):
    """Lowest weight at which a shear built on the column u * df0/dx_k
    writes back onto the layer it clears or below: the column is safe
    for layer j when j lies below it.

    Two kinds of landing count.  The second order Taylor term of the
    principal part lands at level + 2 * shift, shift = w . (u - e_k)
    over the pieces of the weight; at that layer two columns clearing
    it feed it again with the square of their coefficients, round after
    round.  And substituting the column's monomial into a kept term m
    walks it along the lattice step u - e_k, for t = 1 .. m_k steps;
    every landing must either stay kept (residue on the kept support is
    the designed outcome) or sit strictly above the layer being
    cleared, so the stray set never grows downward.  The walk stops
    short of its first kept landing, at step T.  Along the ray
    m + t * step the weight is a minimum of linear forms in t, hence
    concave, so its least value on 1 .. T sits at t = 1 or t = T: the
    floor reads off those two endpoints, found in O(|allowed|^2)."""
    sx, sy = (u[0] - 1, u[1]) if var_index == 0 else (u[0], u[1] - 1)
    floor = level + 2 * min(px * sx + py * sy for px, py in weights)
    for m in allowed:
        last = m[var_index]
        for n in allowed:
            t = _steps_between(m, n, sx, sy)
            if t is not None and t <= last:
                last = t - 1
        if last:
            mx, my = m
            for px, py in weights:
                for t in (1, last):
                    floor = min(floor, px * (mx + t * sx) + py * (my + t * sy))
    return floor


def _steps_between(m, n, sx, sy):
    """The least t >= 1 with m + t * (sx, sy) == n, or None."""
    dx, dy = n[0] - m[0], n[1] - m[1]
    if sx:
        t, r = divmod(dx, sx)
        hit = not r and dy == t * sy
    elif sy:
        t, r = divmod(dy, sy)
        hit = not r and not dx
    else:
        t, hit = 1, not dx and not dy
    return t if hit and t >= 1 else None


def shear(f, v1, v2, truncation):
    """Evaluate f(x - v1, y - v2), dropping every term beyond
    `truncation` = (weight, bound); f comes back unchanged when both
    parts are zero.

    By Taylor's formula the sheared germ is the sum over (a, b) of
    T_ab * (-v1)^a * (-v2)^b, with the binomial derivative table
    T_ab = sum C(i, a) * C(j, b) * c * x^(i-a) * y^(j-b) read straight
    off the terms c * x^i * y^j of f, one entry per term and (a, b)
    (von zur Gathen and Gerhard, "Fast algorithms for Taylor shifts",
    ISSAC 1997).  A part may be linear (a layer shear of `absorb_above`
    can hold a multiple of x or y), so the powers need not raise the
    order.  With m1 and m2 the least weights of the terms of v1 and v2,
    a term of f of weight W can reach the truncation through T_ab only
    when W + a * (m1 - wx) + b * (m2 - wy) stays within the bound; no
    other entry is formed.

    Rational input runs on integers: f, v1 and v2 enter as coprime
    integer dicts F, V1, V2 with their scales (`localalg._integers`),
    -v_k = (n_k / d_k) * V_k.  Entry (a, b) is multiplied once by
    n1^a * d1^(A-a) * n2^b * d2^(B-b), A and B the largest a and b in
    the table, and by the cached power V1^a * V2^b, and the integer sum
    is divided by d1^A * d2^B, times the scale of f, once at the end.
    Tower input runs the same code on its scalar coefficients, with
    every scale 1.
    """
    if f.is_zero() or (v1.is_zero() and v2.is_zero()):
        return f
    tw, cut = truncation
    ((wx, wy),) = as_weights(tw)
    polys = (f, v1, v2)
    rational = all(tower_of(*p.terms.values()) is QQ for p in polys)
    if rational:
        (F, scale), (V1, q1), (V2, q2) = (
            _integers(p.terms) if p.terms else ({}, Fraction(1)) for p in polys
        )
        q1, q2 = -q1, -q2
        n1, d1, n2, d2 = q1.numerator, q1.denominator, q2.numerator, q2.denominator
    else:
        F = f.terms
        V1, V2 = ({e: -c for e, c in v.terms.items()} for v in (v1, v2))
        scale = n1 = d1 = n2 = d2 = 1
    V1, V2 = _by_weight(V1, (wx, wy)), _by_weight(V2, (wx, wy))
    # the least rise in weight per power of each part
    s1 = V1[0][0] - wx if V1 else 0
    s2 = V2[0][0] - wy if V2 else 0
    table = {}
    for (i, j), c in F.items():
        low = wx * i + wy * j
        top_b = j if V2 else 0
        for a in range(i + 1 if V1 else 1):
            wa = low + a * s1
            if wa + min(0, top_b * s2) > cut:
                if s1 >= 0:
                    break
                continue
            ca = comb(i, a) * c
            for b in range(top_b + 1):
                if wa + b * s2 > cut:
                    if s2 >= 0:
                        break
                    continue
                table.setdefault((a, b), {})[(i - a, j - b)] = comb(j, b) * ca
    big_a = max((a for a, _ in table), default=0)
    big_b = max((b for _, b in table), default=0)
    powers = {(0, 0): [(0, (0, 0), 1)]}

    def power(a, b):
        if (a, b) not in powers:
            prev, part = (power(a, b - 1), V2) if b else (power(a - 1, 0), V1)
            powers[a, b] = _by_weight(_add_products({}, prev, part, cut), (wx, wy))
        return powers[a, b]

    out = {}
    for (a, b), entries in table.items():
        m = n1**a * d1 ** (big_a - a) * n2**b * d2 ** (big_b - b)
        if m != 1:
            entries = {e: m * c for e, c in entries.items()}
        _add_products(out, _by_weight(entries, (wx, wy)), power(a, b), cut)
    if rational:
        scale = scale / (d1**big_a * d2**big_b)
    out = {e: c * scale if rational else c for e, c in out.items() if c}
    return SparsePoly(f.vars, out)


def _shift(f, v, c, exps, bound):
    """The shear x_v -> x_v - c * x^exps, cut at standard degree `bound`."""
    parts = [SparsePoly.build(f.vars, {exps: c} if i == v else {}) for i in (0, 1)]
    return shear(f, *parts, ((1, 1), bound))


# the codes of `localalg.LocalOrder` under the ordinary weight follow
# term_sort_key: min() of a code dict is its lowest term
_CODES = LocalOrder((1, 1))


def _combination(a, tags, den, b, base, base_den):
    """a * tags / den - b * base / base_den for combinations of columns
    kept as integer (or scalar) dicts over a denominator: the pair of the
    result's dict, without zero values, and its denominator."""
    g = gcd(den, base_den)
    a, b = a * (base_den // g), b * (den // g)
    out = {t: a * v for t, v in tags.items()}
    for t, v in base.items():
        w = out[t] = out.get(t, 0) - b * v
        if not w:
            del out[t]
    return out, den // g * base_den


class _ColumnTable:
    """Triangular elimination of the columns behind the layer shears.

    Columns are monomial multiples u * df0/dx_k of the partials of the
    principal part whose product, cut at `truncation` = (truncation
    weight, bound), stays strictly above the principal level.  They are
    planned from exponents alone and sorted by their lowest term; a
    column enters (its product is formed and reduced against the table)
    only when a layer asks for a pivot at or above its lowest term.
    Reduction only raises a column's lowest term, so the pivot at e is
    final once every column with lowest term at most e has entered: the
    pivots are those of eliminating every safe column up front.  The
    allowed monomials act as free pivots, so residue the ideal cannot
    reach flows onto them.

    Elimination runs cross multiplied, on the dicts of the Milnor
    engine (`localalg`): each dict is keyed by the integer code of its
    monomials, so its lowest term is min(d), and a principal part with
    rational coefficients enters as one coprime integer dict.  A step
    forms a * col - b * base with a * col[e] == b * base[e], coprime for
    integers (Bareiss 1968), and never divides a polynomial.  Each pivot
    carries its combination of the columns it came from as an integer
    dict over one denominator, so a pivot sheds its content into that
    denominator exactly.  Tower principal parts run the same code on
    their scalar coefficients, without content and with denominator 1.

    The table carries over to the next layer.  A pivot depends only on
    the columns entered before it, so when a column in the table is no
    longer safe at the new layer weight (see `_column_floor`) the table
    drops that column and every one entered after it, and the rest is
    what eliminating the safe columns afresh would build.  One table
    lives for one `_absorb` call.
    """

    def __init__(self, f0, weights, level, allowed, truncation):
        self.vars = f0.vars
        self.weights = weights
        self.level = level
        self.allowed = allowed
        tw, cut = truncation
        (self.tw,) = as_weights(tw)
        self.cut = cut
        dx, dy, scale = _partial_terms(f0.terms)
        self.rational = scale is not None
        # each partial as (truncation weight, code, coefficient) by rising
        # weight
        self.partials = [
            [(w, _CODES.code(e), c) for w, e, c in _by_weight(d, self.tw)]
            for d in (dx, dy)
        ]
        # a column formed from these partials is column_scale times the
        # true one
        self.column_scale = 1 / Fraction(scale or 1)
        self.columns = _plan_columns(self.partials, weights, level, truncation)
        self.floors = {}
        # pivots map a code to (dict, combination, denominator)
        self.pivots = {
            _CODES.code(e): ({_CODES.code(e): 1}, {}, 1) for e in allowed
        }
        # columns[:entered] have been weighed at layer weight j; kept
        # lists the ones reduced into the table, in order, as
        # (position, floor, the pivot it made or None)
        self.entered = 0
        self.kept = []
        self.j = None

    def _floor(self, var_index, u):
        key = (var_index, u)
        if key not in self.floors:
            self.floors[key] = _column_floor(
                var_index, u, self.weights, self.level, self.allowed
            )
        return self.floors[key]

    def _rewind(self, j):
        """Bring the table to layer weight j, which only rises: the
        shear on safe columns clearing the least stray weight j leaves
        its higher order terms and walked kept terms above j (see
        `_column_floor`), and moves every other term up.  Safe columns
        only thin out as j grows, so a skipped column stays skipped."""
        stale = next(
            (i for i, (_, floor, _) in enumerate(self.kept) if floor <= j),
            len(self.kept),
        )
        if stale < len(self.kept):
            self.entered = self.kept[stale][0]
        for _, _, e in self.kept[stale:]:
            if e is not None:
                del self.pivots[e]
        del self.kept[stale:]
        self.j = j

    def _pivot(self, e):
        """The pivot at code e, entering every column whose lowest term
        is at most e; None when the ideal cannot reach e."""
        columns = self.columns
        wx, wy = self.tw
        while self.entered < len(columns) and columns[self.entered][0] <= e:
            position = self.entered
            _, var_index, u = columns[position]
            self.entered += 1
            floor = self._floor(var_index, u)
            if floor <= self.j:
                continue
            room = self.cut - wx * u[0] - wy * u[1]
            shift = _CODES.code(u)
            col = {}
            for w, code, c in self.partials[var_index]:
                if w > room:
                    break
                col[code + shift] = c
            col, combo, den = self._eliminate(col, {(var_index, u): 1}, self.pivots.get)
            made = min(col, default=None)
            if made is not None:
                if type(col[made]) is int:
                    # the pivot sheds its content into its denominator
                    g = gcd(*col.values())
                    if g > 1:
                        col = {k: c // g for k, c in col.items()}
                        den *= g
                    g = gcd(den, *combo.values())
                    if g > 1:
                        combo = {t: v // g for t, v in combo.items()}
                        den //= g
                self.pivots[made] = (col, combo, den)
            self.kept.append((position, floor, made))
        return self.pivots.get(e)

    def _eliminate(self, col, combo, pivot):
        """Reduce col, the combination combo of columns, by steps
        a * col - b * base on its lowest term e until col is zero or
        `pivot(e)` is None; returns (col, combo, den), col now the
        combination combo / den."""
        den = 1
        while col:
            e = min(col)
            entry = pivot(e)
            if entry is None:
                break
            base, base_combo, base_den = entry
            a, b = _multipliers(col[e], base[e])
            col = _combine(col, a, 0, base, b, 0, _NO_LIMIT)
            combo, den = _combination(a, combo, den, b, base_combo, base_den)
        return col, combo, den

    def layer_shear(self, layer, j):
        """Exact shear removing one weight layer j of stray terms, a
        term dict.

        Returns the shear parts (v1, v2) with the sign convention
        x -> x - v1, y -> y - v2.  The layer is reduced as a column
        tagged None, on integers when it and the principal part are
        rational: once it reaches zero, combo[None] * layer cancels the
        other columns of combo, so the parts are -combo / combo[None].
        """
        self._rewind(j)
        q = 1
        if self.rational and tower_of(*layer.values()) is QQ:
            layer, q = _integers(layer)
        s = {_CODES.code(e): c for e, c in layer.items()}
        s, combo, _ = self._eliminate(s, {None: 1}, self._pivot)
        if s:
            raise PipelineError(
                f"tail term {_CODES.exps(min(s))} is out of reach of the "
                "Jacobian ideal"
            )
        inverse = -q * self.column_scale / combo.pop(None)
        parts = [{}, {}]
        for (var_index, u), value in sorted(combo.items()):
            parts[var_index][u] = value * inverse
        return tuple(SparsePoly.build(self.vars, p) for p in parts)


def _plan_columns(partials, weights, level, truncation):
    """The columns (code of the lowest term, var_index, u), sorted, read
    from exponents: shifting by u keeps the term order, so a product's
    lowest term is the partial's lowest term plus u, and the product
    is empty when that term passes the truncation.  Under the ordinary
    weight the lowest term is the last one cut; under a plan's single
    weight every partial of the homogeneous principal part is
    homogeneous, so its terms are cut together.

    Each partial lists (truncation weight, code, coefficient) by rising
    truncation weight.  The product with u keeps the prefix of the terms
    within cut - tw(u), so its order under the piecewise weight is the
    least over the pieces of that prefix's minimum under the piece plus
    the piece's value at u: prefix minima per piece and one bisection
    give it for each u."""
    tw, cut = truncation
    ((wx, wy),) = as_weights(tw)
    columns = []
    for var_index, partial in enumerate(partials):
        if not partial:
            continue
        tws = [w for w, _, _ in partial]
        exps = [_CODES.exps(code) for _, code, _ in partial]
        prefix = []
        for px, py in weights:
            run = list(accumulate((px * a + py * b for a, b in exps), min))
            prefix.append((px, py, run))
        lowest = min(code for _, code, _ in partial)
        la, lb = _CODES.exps(lowest)
        room = cut - wx * la - wy * lb
        for a in range(room // wx + 1):
            for b in range((room - wx * a) // wy + 1):
                if a == 0 and b == 0:
                    continue
                n = bisect_right(tws, cut - wx * a - wy * b)
                order = min(run[n - 1] + px * a + py * b for px, py, run in prefix)
                if order <= level:
                    continue
                columns.append((lowest + _CODES.code((a, b)), var_index, (a, b)))
    columns.sort()
    return columns


# -- rescaling marked coefficients to one ----------------------------


def rescale_to_unit(f, unit_exps):
    """Rescale x and y so that both listed monomials get coefficient 1.

    Every catalog plan marks two units.  Euclid on their x exponents
    leaves a pure y power, whose radical is the y scale; the x scale is
    a radical of what the other monomial then still needs.  Radicals
    are adjoined exactly and the result is verified.
    """
    values = []
    for e in unit_exps:
        c = f.coeff(e)
        if not c:
            raise PipelineError(f"monomial {e} vanished before rescaling")
        values.append(1 / c)
    tower = tower_of(*f.terms.values())
    (a1, b1), (a2, b2) = unit_exps
    r1 = (a1, b1, values[0])
    r2 = (a2, b2, values[1])
    if r1[0] == 0:
        r1, r2 = r2, r1
    if r1[0] == 0:
        raise PipelineError("rescaling monomials are both pure y powers")
    while r2[0] != 0:
        q = r1[0] // r2[0]
        r1, r2 = r2, (
            r1[0] - q * r2[0],
            r1[1] - q * r2[1],
            r1[2] / r2[2] ** q,
        )
    if r2[1] == 0:
        raise PipelineError("dependent rescaling monomials")
    if r2[1] < 0:
        r2 = (0, -r2[1], 1 / r2[2])
    tower, t = adjoin_root(tower, r2[1], r2[2])
    rest = r1[2] * t ** (-r1[1])
    tower, s = adjoin_root(tower, r1[0], rest)
    f2 = apply_linear(f, ((s, 0), (0, t)))
    for e in unit_exps:
        if f2.coeff(e) != 1:
            raise PipelineError("rescaling failed to reach unit coefficients")
    return f2


# -- pre-normalization of a four point face --------------------------


def kill_face_middle(f, exps3, exps2, exps1, sub_power, bound):
    """Remove the next-to-last lattice point of a face whose cofactor
    is a cubic h in x against y**sub_power, by shifting x.

    The shift x -> x + r*y**sub_power moves a critical point r of h to
    zero; squarefreeness of h keeps the far end h(r) nonzero.  Of the
    two critical points, the one taken is where the face modulus m,
    whose cube after rescaling the ends to one is
    (3*c3*r + c2)**3 / (c3**2 * h(r)), is lowest in the tower: rational
    first, then a cube root of a rational, then the rest.  Ties keep
    the order of quadratic_roots.

    A shift x -> x + c*y**sub_power, the face part of any tangent to
    identity change, replaces h(t) by h(t + c).  It moves both critical
    points by -c and leaves c3, 3*c3*r + c2 and h(r) at each of them,
    and the discriminant of h', unchanged.  So the rank and the tie
    order, and hence the chosen critical point and the modulus, do not
    depend on it.  A germ whose middle point is already absent goes
    through the same choice and is shifted when the other critical
    point ranks lower.
    """
    c3 = f.coeff(exps3)
    c2 = f.coeff(exps2)
    c1 = f.coeff(exps1)
    c0 = f.coeff((2 * exps1[0] - exps2[0], 2 * exps1[1] - exps2[1]))
    _, roots = quadratic_roots(tower_of(*f.terms.values()), 3 * c3, 2 * c2, c1)

    def rank(r):
        end = ((c3 * r + c2) * r + c1) * r + c0
        if not end:
            raise PipelineError("face cofactor has a repeated root")
        cube = (3 * c3 * r + c2) ** 3 / (c3 * c3 * end)
        if tower_of(cube) is not QQ:
            return 2
        return 0 if rational_nth_root(cube, 3) is not None else 1

    f2 = _shift(f, 0, -min(roots, key=rank), (0, sub_power), bound)
    if f2.coeff(exps1):
        raise PipelineError("face middle term survived the shift")
    return f2


# -- even quartic reduction ------------------------------------------


def _quartic_invariants(coeffs):
    """The invariants I, J of c0*y^4 + c1*x*y^3 + ... + c4*x^4, scaled so
    that x^4 + a*x^2*y^2 + y^4 has I = 12 + a^2 and J = a*(72 - 2*a^2)."""
    c0, c1, c2, c3, c4 = coeffs
    i = 12 * c0 * c4 - 3 * c1 * c3 + c2 * c2
    j = 72 * c0 * c2 * c4 + 9 * c1 * c2 * c3 - 2 * c2 ** 3
    return i, j - 27 * (c4 * c1 * c1 + c0 * c3 * c3)


def even_quartic_form(g, bound):
    """The normal form x^4 + a*x^2*y^2 + y^4 of a germ whose quartic jet
    has four distinct roots; such a germ is right equivalent to its jet.

    With its x^4 end exposed by a shear, the jet depresses to
    t^4 + p*t^2 + q*t + r in t = x/y.  A root z of the resolvent
    z^3 + 2*p*z^2 + (p^2 - 4*r)*z - q^2, or z = 0 when q = 0, pairs the
    roots into quadratics A and B, and with units on the axes of their
    pencil a = mixed(A, B) / sqrt(det A * det B), where mixed(A, B) =
    p + 3*z/2 and det A * det B = (16*r - 4*p*z - 3*z^2)/16.  An even
    jet with unit ends keeps its middle coefficient.  The result passes
    the exact check I^3 * J(a)^2 == J^2 * I(a)^3 against the jet.
    """
    jet = wlayer(g, (1, 1), 4)
    if not jet.coeff((4, 0)):
        jet, _ = expose_end(jet, jet, 1, (1, 0), bound)
    coeffs = [jet.coeff((k, 4 - k)) for k in range(5)]
    c0, c1, c2, c3, _ = [c / coeffs[4] for c in coeffs]
    s = c3 / 4
    p = c2 - 6 * s ** 2
    q = c1 - 2 * c2 * s + 8 * s ** 3
    r = c0 - c1 * s + c2 * s ** 2 - 3 * s ** 4
    tower = tower_of(*jet.terms.values())
    z = Fraction(0)
    if q:
        tower, z = cubic_root(tower, [-(q * q), p * p - 4 * r, 2 * p, 1])
    dets = 16 * r - 4 * p * z - 3 * z * z
    if not dets:
        raise PipelineError("quartic pairing has a square factor")
    tower, root = adjoin_root(tower, 2, dets)
    a = 2 * (2 * p + 3 * z) / root
    i, j = _quartic_invariants(coeffs)
    ia, ja = _quartic_invariants([1, 0, a, 0, 1])
    if i ** 3 * ja ** 2 - j ** 2 * ia ** 3:
        raise PipelineError("quartic modulus failed its invariant check")
    return SparsePoly.build(g.vars, {(4, 0): 1, (2, 2): a, (0, 4): 1})


def expose_end(g, jet, var_index, exps, bound):
    """Shift variable `var_index` by lam times the monomial `exps` for
    the first lam in 1, -1, 2, -2, ... that makes the end of `jet` which
    the shift reaches nonzero; returns (g2, lam).

    Only the jet contributes at that end, with the value
    sum(c * lam**e[var_index]) over its terms c * x^e: a polynomial in
    lam with at most `top` roots, top the highest power of the shifted
    variable, so scanning +-1 ... +-(top + 2) finds a working lam
    whenever that polynomial is nonzero.
    """
    top = max((e[var_index] for e in jet.terms), default=0)
    for k in range(1, top + 3):
        for lam in (k, -k):
            value = sum(c * lam ** e[var_index] for e, c in jet.terms.items())
            if value:
                return _shift(g, var_index, -lam, exps, bound), lam
    raise PipelineError("no shift exposes the end of the jet")


# -- germs built on a double core x^2 + y^3 --------------------------

_CORE_WEIGHT = ((3, 2),)


def _flow_images(vars, c, bound):
    """Substitution images of the exponential of the derivation
    x -> 3c y^2, y -> -2c x, which fixes x^2 + y^3 exactly.  The
    derivation raises the (3,2) degree by one, so the k-th term of each
    image is homogeneous; terms are built up to degree `bound`."""
    gen_x = SparsePoly.monomial(vars, (0, 2), 3 * c)
    gen_y = SparsePoly.monomial(vars, (1, 0), -2 * c)

    def delta(p):
        return diff(p, "x") * gen_x + diff(p, "y") * gen_y

    out = {}
    for name in ("x", "y"):
        acc = term = SparsePoly.variable(vars, name)
        for k in count(1):
            term = wjet(delta(term) * Fraction(1, k), _CORE_WEIGHT, bound)
            if term.is_zero():
                break
            acc = acc + term
        out[name] = acc
    return out


def normalize_double_core(f, mu):
    """The moduli (a0, a1) of a germ whose principal part is a perfect
    square gamma * (alpha x^2 + beta y^3)^2 and whose Milnor number is
    mu, the values at the positions m0, m2 that
    `catalog.moduli_positions` gives for `double_core_family(mu)`.

    Rescales the square onto (x^2 + y^3)^2 through `apply_linear`: x
    by a fourth root of 1/alpha^2 gamma, then y by a sixth root of
    1/beta^2 gamma, negated when the cross term would land on -2.  The
    Euclid order of `rescale_to_unit` would adjoin other radicals and
    change the tower layout of the moduli.

    Then `_absorb` walks the (3,2) layers above the principal level 12
    up to the a1 level 14 + d, d = mu - 15.  The Jacobian ideal of the
    core square is (x^2 + y^3) * (x, y^2), which misses one monomial per
    layer, so the walk clears the layers below 12 + d (a term it cannot
    reach there contradicts mu) and leaves residue on m0, on the axis
    monomial m1 of layer 13 + d and on m2.  A nonzero residue e on m1 is
    removed by the flow that fixes the core: to first order it adds
    a0 * (mu - 3) * c * m1 to layer 13 + d modulo the core, so
    c = -e / ((mu - 3) a0), and a second walk sends what the flow wrote
    onto m2.
    """
    vars = f.vars
    d = mu - 15
    if d < 1:
        raise PipelineError("double core germ with out of range invariants")
    jet = wlayer(f, _CORE_WEIGHT, 12)
    c40 = jet.coeff((4, 0))
    c23 = jet.coeff((2, 3))
    c06 = jet.coeff((0, 6))
    if not c40 or not c06 or c23 * c23 != 4 * c40 * c06:
        raise PipelineError("principal part is not a perfect square")
    tower = tower_of(*jet.terms.values())
    tower, a = adjoin_root(tower, 4, 1 / c40)
    tower, b = adjoin_root(tower, 6, 1 / c06)
    if c23 * a * a * b ** 3 == -2:
        b = -b
    if c23 * a * a * b ** 3 != 2:
        raise PipelineError("cross coefficient did not land on 2")
    truncation = (_CORE_WEIGHT, 14 + d)
    f = apply_linear(wjet(f, *truncation), ((a, 0), (0, b)))
    core2 = SparsePoly.build(vars, {(4, 0): 1, (2, 3): 2, (0, 6): 1})
    if not (wlayer(f, _CORE_WEIGHT, 12) - core2).is_zero():
        raise PipelineError("core rescaling failed")
    m0, m2 = (e for _, e in moduli_positions(*double_core_family(mu)))
    # the monomial of layer 13 + d with x exponent at most one
    m1 = (0, (13 + d) // 2) if d % 2 else (1, (10 + d) // 2)
    f = _absorb(f, _CORE_WEIGHT, 12, (m0, m1, m2), truncation)
    a0 = f.coeff(m0)
    if not a0:
        raise PipelineError("leading modulus vanished against the invariants")
    e = f.coeff(m1)
    if e:
        # what the flow moves starts at degree 12 + d, so an image term
        # raising the degree by more than 2 lands past the bound 14 + d:
        # x needs its terms up to degree 5, y up to 4
        images = _flow_images(vars, -e / ((mu - 3) * a0), 5)
        f = core2 + substitute(f - core2, images, truncation=truncation)
        f = _absorb(f, _CORE_WEIGHT, 12, (m0, m2), truncation)
    return a0, f.coeff(m2)
