"""Coordinate changes that drive a germ toward its normal form.

Everything here is an exact substitution: linear changes straightening
a lowest jet, shears generated by the Jacobian that empty a graded
layer, square completion behind the splitting of the quadratic part,
and variable rescalings that set marked coefficients to one.  Each
transformation keeps the germ right equivalent to the input.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PipelineError
from .localalg import (
    _monomials_with_pdeg_at_most,
    layer_decompose,
    milnor_number,
    mono_mul,
)
from .poly import (
    SparsePoly,
    as_weights,
    diff,
    drop_above,
    mul_trunc,
    substitute,
    term_sort_key,
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
from .scalars import QQ, adjoin_root, from_rational, rational_nth_root

# -- splitting off the nondegenerate quadratic part ------------------


class SplitResult:
    __slots__ = ("corank", "rank", "residual", "mu")

    def __init__(self, corank, rank, residual, mu):
        self.corank = corank
        self.rank = rank
        self.residual = residual
        self.mu = mu


def _quadratic_matrix(f):
    n = len(f.vars)
    m = [[from_rational(0)] * n for _ in range(n)]
    for exps, c in f.terms.items():
        if sum(exps) != 2:
            continue
        hot = [i for i, e in enumerate(exps) if e]
        if len(hot) == 1:
            m[hot[0]][hot[0]] = c
        else:
            i, j = hot
            half = c * Fraction(1, 2)
            m[i][j] = half
            m[j][i] = half
    return m


def _diagonalize(matrix):
    """Congruence diagonalization; returns (change, diagonal, rank).
    `change[i][j]` is the coefficient of new variable j in the image of
    old variable i; nonzero diagonal entries occupy a prefix."""
    n = len(matrix)
    a = [row[:] for row in matrix]
    p = [[from_rational(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def col_axpy(dst, src, t):
        for i in range(n):
            a[i][dst] = a[i][dst] - t * a[i][src]
        for i in range(n):
            a[dst][i] = a[dst][i] - t * a[src][i]
        for i in range(n):
            p[i][dst] = p[i][dst] - t * p[i][src]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    def col_add(dst, src):
        for i in range(n):
            a[i][dst] = a[i][dst] + a[i][src]
        for i in range(n):
            a[dst][i] = a[dst][i] + a[src][i]
        for i in range(n):
            p[i][dst] = p[i][dst] + p[i][src]

    rank = 0
    for k in range(n):
        if a[k][k].is_zero():
            pivot = next(
                (j for j in range(k + 1, n) if not a[j][j].is_zero()), None
            )
            if pivot is not None:
                col_swap(k, pivot)
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if not a[i][j].is_zero()
                    ),
                    None,
                )
                if pair is None:
                    break
                i, j = pair
                col_add(i, j)
                if i != k:
                    col_swap(k, i)
        for j in range(k + 1, n):
            if not a[k][j].is_zero():
                col_axpy(j, k, a[k][j] / a[k][k])
        rank += 1
    diagonal = [a[i][i] for i in range(n)]
    return p, diagonal, rank


def _complete_squares(g, diagonal, rank, bound):
    vars = g.vars
    trunc = ((1,) * len(vars), bound)
    while True:
        offending = [
            e
            for e in g.terms
            if any(e[i] for i in range(rank))
            and not (sum(e) == 2 and any(e[i] == 2 for i in range(rank)))
        ]
        if not offending:
            return g
        target = min(offending, key=term_sort_key)
        i = next(i for i in range(rank) if target[i])
        c = g.coeff(target)
        stem = list(target)
        stem[i] -= 1
        shift = SparsePoly.monomial(vars, stem, c / (2 * diagonal[i]))
        image = SparsePoly.variable(vars, vars[i]) - shift
        g = substitute(g, {vars[i]: image}, truncation=trunc)


def split_germ(f):
    """Split a germ into a sum of squares plus a residual in the kernel
    variables of its quadratic part.

    The residual comes back over canonical variables ("x",) or
    ("x", "y") depending on the corank; for corank above two no
    residual is produced.  Its Milnor number is certified against the
    truncation bound used during square completion; None means no
    certificate was reached below the Bezout style cutoff, so the
    singularity is not isolated.
    """
    n = len(f.vars)
    matrix = _quadratic_matrix(f)
    change, diagonal, rank = _diagonalize(matrix)
    corank = n - rank
    if corank > 2:
        return SplitResult(corank, rank, None, None)
    degree = max(f.total_degree(), 2)
    cutoff = (degree - 1) ** n + 3
    bound = max(2 * degree, 10)
    while True:
        g = apply_linear(f, change, bound)
        g = _complete_squares(g, diagonal, rank, bound)
        residual_terms = {}
        for e, c in g.terms.items():
            if any(e[i] for i in range(rank)):
                continue
            residual_terms[tuple(e[i] for i in range(rank, n))] = c
        names = ("x", "y")[:corank]
        residual = SparsePoly(names, residual_terms)
        mu = _residual_milnor(residual, corank, bound)
        if mu is not None and mu + 2 <= bound:
            return SplitResult(corank, rank, residual, mu)
        if bound > cutoff:
            return SplitResult(corank, rank, residual, None)
        bound *= 2


def _residual_milnor(residual, corank, bound):
    if corank == 0:
        return 1
    if corank == 1:
        if residual.is_zero():
            return None
        k = min(e[0] for e in residual.terms)
        return k - 1
    return milnor_number(residual, bound)


# -- straightening the lowest jet ------------------------------------


def apply_linear(f, rows, bound=None):
    """Linear substitution sending old variable i to the combination
    rows[i] of the new variables; truncates at standard degree `bound`."""
    vars = f.vars
    n = len(vars)
    images = {}
    for i, name in enumerate(vars):
        img = SparsePoly.zero(vars)
        for j, c in enumerate(rows[i]):
            coeff = c if hasattr(c, "is_zero") else from_rational(c)
            if not coeff.is_zero():
                img = img + SparsePoly.monomial(
                    vars, tuple(1 if k == j else 0 for k in range(n)), coeff
                )
        images[name] = img
    trunc = ((1,) * n, bound) if bound is not None else None
    return substitute(f, images, truncation=trunc)


def _binary_form_factors(jet, d):
    """Split a binary form of degree d into linear factors p*x + q*y
    as far as the current tower allows.

    Returns (linears, blocks): `linears` lists ((p, q), multiplicity)
    covering the y factor and every degree one squarefree block, while
    `blocks` keeps unsplit higher degree blocks as (coeffs, mult).
    """
    u = [from_rational(0)] * (d + 1)
    for (i, _), c in jet.terms.items():
        u[i] = c
    u = uni_make(u)
    ypower = d - (len(u) - 1)
    linears = []
    blocks = []
    if ypower:
        linears.append(((from_rational(0), from_rational(1)), ypower))
    for block, mult in uni_yun(u):
        if len(block) == 2:
            root = -block[0] / block[1]
            linears.append(((from_rational(1), -root), mult))
        else:
            blocks.append((block, mult))
    return linears, blocks


def _factor_signature(linears, blocks):
    sig = [m for _, m in linears]
    for block, m in blocks:
        sig.extend([m] * (len(block) - 1))
    return tuple(sorted(sig, reverse=True))


def _line_to_x(l):
    """Rows of a linear change under which the form l becomes exactly
    the first new variable, second new direction spanning ker(l)."""
    p, q = l
    if not p.is_zero():
        return [[1 / p, -q], [from_rational(0), p]]
    return [[from_rational(0), from_rational(1)], [1 / q, from_rational(0)]]


def _line_to_y(l):
    p, q = l
    if not p.is_zero():
        return [[-q, 1 / p], [p, from_rational(0)]]
    return [[-q, from_rational(0)], [from_rational(0), 1 / q]]


def _pair_to_axes(l1, l2):
    """Rows sending l1 to x and l2 to y; the forms must be independent."""
    p1, q1 = l1
    p2, q2 = l2
    det = p1 * q2 - q1 * p2
    if det.is_zero():
        raise PipelineError("dependent linear factors cannot frame axes")
    return [[q2 / det, -q1 / det], [-p2 / det, p1 / det]]


def _tower_of(f):
    tower = QQ
    for c in f.terms.values():
        if c.tower.height > tower.height:
            tower = c.tower
    return tower


def straighten_jet(g, d, bound):
    """Linear change putting the degree d jet onto its catalog support.

    Returns (g2, kind) where kind names the factor pattern of the jet.
    For four distinct roots (kind "four-distinct") the germ is returned
    untouched; every other pattern lands on a fixed support set.
    """
    jet = wlayer(g, (1, 1), d)
    linears, blocks = _binary_form_factors(jet, d)
    sig = _factor_signature(linears, blocks)

    def of_mult(m):
        for l, mult in linears:
            if mult == m:
                return l
        return None

    if d == 3 and sig == (3,):
        g2 = apply_linear(g, _line_to_x(of_mult(3)), bound)
        _expect_support(g2, 3, {(3, 0)})
        return g2, "cube"
    if d == 3 and sig == (2, 1):
        g2 = apply_linear(g, _pair_to_axes(of_mult(2), of_mult(1)), bound)
        _expect_support(g2, 3, {(2, 1)})
        return g2, "square-line"
    if d == 3 and sig == (1, 1, 1):
        l = _one_simple_factor(jet, linears, blocks)
        g2 = apply_linear(g, _line_to_y(l), bound)
        g2 = _kill_middle(g2, 3, bound, pivot="x")
        _expect_support(g2, 3, {(2, 1), (0, 3)})
        return g2, "three-lines"
    if d == 4 and sig == (4,):
        g2 = apply_linear(g, _line_to_x(of_mult(4)), bound)
        _expect_support(g2, 4, {(4, 0)})
        return g2, "fourth-power"
    if d == 4 and sig == (3, 1):
        g2 = apply_linear(g, _pair_to_axes(of_mult(3), of_mult(1)), bound)
        _expect_support(g2, 4, {(3, 1)})
        return g2, "cube-line"
    if d == 4 and sig == (2, 2):
        pair = [l for l, m in linears if m == 2]
        if len(pair) < 2:
            block = next(b for b, m in blocks if m == 2)
            _, roots = quadratic_roots(
                _tower_of(jet), block[2], block[1], block[0]
            )
            pair.extend((from_rational(1), -r) for r in roots)
        g2 = apply_linear(g, _pair_to_axes(pair[0], pair[1]), bound)
        _expect_support(g2, 4, {(2, 2)})
        return g2, "two-double-lines"
    if d == 4 and sig == (2, 1, 1):
        g2 = apply_linear(g, _line_to_x(of_mult(2)), bound)
        g2 = _kill_middle(g2, 4, bound, pivot="y")
        _expect_support(g2, 4, {(4, 0), (2, 2)})
        return g2, "double-plus-two"
    if d == 4 and sig == (1, 1, 1, 1):
        return g, "four-distinct"
    raise PipelineError(f"unrecognized jet factor pattern {sig}")


def _one_simple_factor(jet, linears, blocks):
    for l, m in linears:
        if m == 1:
            return l
    _, root = cubic_root(_tower_of(jet), blocks[0][0])
    return (from_rational(1), -root)


def _kill_middle(g, d, bound, pivot):
    """Shear removing the middle term of a straightened jet.

    With pivot "x" the jet is y*(a0*x^2 + a1*x*y + a2*y^2), a0 nonzero,
    and x absorbs the cross term.  With pivot "y" the jet is
    x^2*(a0*x^2 + a1*x*y + a2*y^2), a2 nonzero, and y absorbs it.
    """
    jet = wlayer(g, (1, 1), d)
    zero = SparsePoly.zero(g.vars)
    if pivot == "x":
        a0 = jet.coeff((2, 1))
        if a0.is_zero():
            raise PipelineError("expected a nonzero square coefficient")
        v1 = SparsePoly.monomial(g.vars, (0, 1), jet.coeff((1, 2)) / (2 * a0))
        return shear(g, v1, zero, ((1, 1), bound))
    a2 = jet.coeff((2, 2))
    if a2.is_zero():
        raise PipelineError("expected a nonzero cofactor tail")
    v2 = SparsePoly.monomial(g.vars, (1, 0), jet.coeff((3, 1)) / (2 * a2))
    return shear(g, zero, v2, ((1, 1), bound))


def _expect_support(g, d, support):
    jet = wlayer(g, (1, 1), d)
    if set(jet.terms) != support:
        raise PipelineError(
            f"straightened jet support {sorted(jet.terms)} is not {sorted(support)}"
        )


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
    principal level d (the moduli positions of the target shape).  Each
    layer is emptied onto its allowed monomials by shears built from
    the Jacobian of the level d part; everything above dprime is cut.
    """
    weights = as_weights(weights)
    f0 = wlayer(f, weights, d)
    current = drop_above(f, weights, dprime)
    levels = sorted(
        {
            weight_value(weights, e)
            for e in _monomials_with_pdeg_at_most(weights, dprime)
            if d < weight_value(weights, e) <= dprime
        }
    )
    for level in levels:
        g = wlayer(current, weights, level)
        if g.is_zero():
            continue
        extras = sorted(
            e for e in allowed_above if weight_value(weights, e) == level
        )
        result = layer_decompose(g, f0, weights, level, extras)
        if result is None:
            raise PipelineError(
                f"layer {level} will not reduce onto the Jacobian and moduli"
            )
        v1, v2, coeffs = result
        current = shear(current, v1, v2, (weights, dprime))
        layer_now = wlayer(current, weights, level)
        expected = SparsePoly.build(f.vars, dict(coeffs))
        if not (layer_now - expected).is_zero():
            raise PipelineError("layer normalization left unexpected terms")
    return current


def absorb_above(f, weights, level, allowed, bound):
    """Clear everything above the principal level onto the allowed
    monomials by exact absorption into the Jacobian ideal.

    Under a two piece weight the local algebra is not graded: reducing
    a term can leave residue on an allowed monomial of lower weighted
    degree, so the cut a single weight permits is not faithful here.
    Instead the stray content is removed one weight layer at a time,
    lowest first, by an exact shear assembled from monomial multiples
    of the partials.  Whatever the ideal cannot reach flows onto the
    allowed monomials and stays put.  Every substitution is exact, so
    the surviving coefficients do not depend on how the shear was
    chosen, only on the equivalence class of the input.
    """
    weights = as_weights(weights)
    ordinary = as_weights((1, 1))
    # the truncation bound sits one past the determinacy degree, so a
    # term of ordinary degree equal to the bound can simply be dropped
    cut = bound - 1
    f = drop_above(f, ordinary, cut)
    allowed = {tuple(e) for e in allowed}
    base = wjet(f, weights, level)
    table = None
    for _ in range(300):
        stray = {
            e: c
            for e, c in f.terms.items()
            if weight_value(weights, e) > level and e not in allowed
        }
        if not stray:
            return f
        if table is None:
            table = _ColumnTable(
                wlayer(f, weights, level), weights, level, allowed, cut
            )
        j = min(weight_value(weights, e) for e in stray)
        layer = SparsePoly.build(
            f.vars,
            {e: c for e, c in stray.items() if weight_value(weights, e) == j},
        )
        v1, v2 = table.layer_shear(layer, j)
        if v1.is_zero() and v2.is_zero():
            raise PipelineError("tail absorption made no progress")
        f = shear(f, v1, v2, (ordinary, cut))
        if not (wjet(f, weights, level) - base).is_zero():
            raise PipelineError("tail absorption disturbed the principal part")
    raise PipelineError("tail absorption did not settle")


def _column_floor(var_index, u, weights, allowed):
    """Lowest weight at which a shear built on this column writes
    interference onto a position outside the kept support (infinite
    when it never does): the column is safe for layer j when j lies
    below it.

    Substituting the column's monomial into a kept term walks it along
    a fixed lattice step; every landing must either stay kept (residue
    on the kept support is the designed outcome) or sit strictly above
    the layer being cleared, so the stray set never grows downward."""
    step = tuple(
        c - (1 if k == var_index else 0) for k, c in enumerate(u)
    )
    floor = math.inf
    for m in allowed:
        p = m
        for _ in range(m[var_index]):
            p = tuple(a + b for a, b in zip(p, step))
            if p in allowed:
                break
            floor = min(floor, weight_value(weights, p))
    return floor


def shear(f, v1, v2, truncation):
    """Evaluate f(x - v1, y - v2), dropping every term beyond
    `truncation` = (weights, bound); f comes back unchanged when both
    parts are zero.

    Expands the shifted germ as a Taylor sum over scaled derivatives of
    f against powers of the shear parts.  A part may be linear (a layer
    shear of `absorb_above` can hold a multiple of x or y), so the
    powers need not raise the order; the sum is finite because f is a
    polynomial and each step differentiates it once more, and it stops
    sooner when a power of a part passes the bound.
    """
    if v1.is_zero() and v2.is_zero():
        return f
    vars = f.vars
    weights, bound = truncation
    weights = as_weights(weights)
    neg = from_rational(-1)
    out = SparsePoly.zero(vars)
    fa = f
    xpow = SparsePoly.constant(vars, 1)
    a = 0
    while not fa.is_zero() and not xpow.is_zero():
        fab = fa
        ypow = xpow
        b = 0
        while not fab.is_zero() and not ypow.is_zero():
            out = out + mul_trunc(fab, ypow, weights, bound)
            if v2.is_zero():
                break
            b += 1
            fab = mono_mul(diff(fab, 1), (0, 0), from_rational(Fraction(1, b)))
            ypow = mono_mul(mul_trunc(ypow, v2, weights, bound), (0, 0), neg)
        if v1.is_zero():
            break
        a += 1
        fa = mono_mul(diff(fa, 0), (0, 0), from_rational(Fraction(1, a)))
        xpow = mono_mul(mul_trunc(xpow, v1, weights, bound), (0, 0), neg)
    return out


class _ColumnTable:
    """Triangular elimination of the columns behind the layer shears.

    Columns are monomial multiples u * df0/dx_k of the partials of the
    principal part whose product, cut at ordinary degree `cut`, stays
    strictly above the principal level.  They are planned from
    exponents alone and sorted by their lowest term; a column enters
    (its product is formed and reduced against the table) only when a
    layer asks for a pivot at or above its lowest term.  Reduction only
    raises a column's lowest term, so the pivot at e is final once
    every column with lowest term at most e has entered: the pivots are
    those of eliminating every safe column up front.  The allowed
    monomials act as free pivots, so residue the ideal cannot reach
    flows onto them.

    The table carries over to the next layer.  A pivot depends only on
    the columns entered before it, so when a column in the table is no
    longer safe at the new layer weight (see `_column_floor`) the table
    drops that column and every one entered after it, and the rest is
    what eliminating the safe columns afresh would build.  One table
    lives for one `absorb_above` call.
    """

    def __init__(self, f0, weights, level, allowed, cut):
        self.vars = f0.vars
        self.weights = weights
        self.allowed = allowed
        self.cut = cut
        self.partials = (diff(f0, 0), diff(f0, 1))
        self.columns = _plan_columns(self.partials, weights, level, cut)
        self.floors = {}
        self.pivots = {
            e: (SparsePoly.monomial(self.vars, e, 1), {})
            for e in sorted(allowed)
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
                var_index, u, self.weights, self.allowed
            )
        return self.floors[key]

    def _rewind(self, j):
        """Bring the table to layer weight j.  Safe columns only thin
        out as j grows, so a column skipped before stays skipped; at a
        lower j a skipped column may turn safe, and the table empties."""
        if self.j is not None and j < self.j:
            stale = 0
            self.entered = 0
        else:
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
        """The pivot at e, entering every column whose lowest term is
        at most e; None when the ideal cannot reach e."""
        key = term_sort_key(e)
        columns = self.columns
        ordinary = as_weights((1, 1))
        one = from_rational(1)
        while self.entered < len(columns) and columns[self.entered][0] <= key:
            position = self.entered
            _, var_index, u = columns[position]
            self.entered += 1
            floor = self._floor(var_index, u)
            if floor <= self.j:
                continue
            prod = drop_above(
                mono_mul(self.partials[var_index], u, 1), ordinary, self.cut
            )
            made = self._reduce(prod, {(var_index, u): one})
            self.kept.append((position, floor, made))
        return self.pivots.get(e)

    def _reduce(self, col, combo):
        """Reduce a column against the table; returns the position of
        the pivot it becomes, or None when it reduces to zero."""
        zero = from_rational(0)
        pivots = self.pivots
        while not col.is_zero():
            e = min(col.terms, key=term_sort_key)
            entry = pivots.get(e)
            if entry is None:
                pivots[e] = (col, combo)
                return e
            base, base_combo = entry
            c = col.coeff(e) / base.coeff(e)
            col = col - mono_mul(base, (0, 0), c)
            for tag, value in base_combo.items():
                combo[tag] = combo.get(tag, zero) - c * value
        return None

    def layer_shear(self, layer, j):
        """Exact shear removing one weight layer j of stray terms.

        Returns the shear parts (v1, v2) with the sign convention
        x -> x - v1, y -> y - v2.
        """
        self._rewind(j)
        zero = from_rational(0)
        s = layer
        combo = {}
        while not s.is_zero():
            e = min(s.terms, key=term_sort_key)
            entry = self._pivot(e)
            if entry is None:
                raise PipelineError(
                    f"tail term {e} is out of reach of the Jacobian ideal"
                )
            base, base_combo = entry
            c = s.coeff(e) / base.coeff(e)
            s = s - mono_mul(base, (0, 0), c)
            for tag, value in base_combo.items():
                combo[tag] = combo.get(tag, zero) + c * value
        v1 = SparsePoly.zero(self.vars)
        v2 = SparsePoly.zero(self.vars)
        for (var_index, u), value in sorted(combo.items()):
            if value.is_zero():
                continue
            mono = SparsePoly.monomial(self.vars, u, value)
            if var_index == 0:
                v1 = v1 + mono
            else:
                v2 = v2 + mono
        return v1, v2


def _plan_columns(partials, weights, level, cut):
    """The columns (lowest term key, var_index, u), sorted, read from
    exponents: shifting by u keeps the term order, so a product's
    lowest term is the partial's lowest term plus u, and the product
    is empty when that term passes the cut."""
    columns = []
    for var_index, partial in enumerate(partials):
        if partial.is_zero():
            continue
        exps = list(partial.terms)
        lowest = min(exps, key=term_sort_key)
        room = cut - sum(lowest)
        for a in range(room + 1):
            for b in range(room + 1 - a):
                if a == 0 and b == 0:
                    continue
                order = min(
                    weight_value(weights, (e[0] + a, e[1] + b))
                    for e in exps
                    if sum(e) + a + b <= cut
                )
                if order <= level:
                    continue
                low = term_sort_key((lowest[0] + a, lowest[1] + b))
                columns.append((low, var_index, (a, b)))
    columns.sort()
    return columns


# -- rescaling marked coefficients to one ----------------------------


def rescale_to_unit(f, unit_exps):
    """Rescale the variables so each listed monomial gets coefficient 1.

    Solves the exponent system exactly, adjoining radicals as needed,
    and verifies the result.  Supports germs in one or two variables
    and at most two marked monomials.
    """
    if not unit_exps:
        return f
    values = []
    for e in unit_exps:
        c = f.coeff(e)
        if c.is_zero():
            raise PipelineError(f"monomial {e} vanished before rescaling")
        values.append(1 / c)
    tower = _tower_of(f)
    if len(f.vars) == 1:
        (k,) = unit_exps[0]
        tower, s = adjoin_root(tower, k, values[0])
        scales = [s]
    elif len(unit_exps) == 1:
        (alpha, beta), v = unit_exps[0], values[0]
        if alpha:
            tower, s = adjoin_root(tower, alpha, v)
            scales = [s, from_rational(1)]
        else:
            tower, t = adjoin_root(tower, beta, v)
            scales = [from_rational(1), t]
    else:
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
        scales = [s, t]
    images = {
        name: SparsePoly.monomial(
            f.vars,
            tuple(1 if k == i else 0 for k in range(len(f.vars))),
            scales[i],
        )
        for i, name in enumerate(f.vars)
    }
    f2 = substitute(f, images)
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
    _, roots = quadratic_roots(_tower_of(f), 3 * c3, 2 * c2, c1)

    def rank(r):
        end = ((c3 * r + c2) * r + c1) * r + c0
        if end.is_zero():
            raise PipelineError("face cofactor has a repeated root")
        cube = (3 * c3 * r + c2) ** 3 / (c3 * c3 * end)
        if not cube.is_rational():
            return 2
        return 0 if rational_nth_root(cube.as_fraction(), 3) is not None else 1

    shift = min(roots, key=rank)
    if shift.is_zero():
        return f
    v1 = SparsePoly.monomial(f.vars, (0, sub_power), -shift)
    f2 = shear(f, v1, SparsePoly.zero(f.vars), ((1, 1), bound))
    if not f2.coeff(exps1).is_zero():
        raise PipelineError("face middle term survived the shift")
    return f2


# -- even quartic reduction ------------------------------------------


def _depress_quartic(coeffs):
    c0, c1, c2, c3, _ = [c / coeffs[4] for c in coeffs]
    shift = c3 / 4
    p = c2 - 6 * shift ** 2
    q = c1 - 2 * c2 * shift + 8 * shift ** 3
    r = c0 - c1 * shift + c2 * shift ** 2 - 3 * shift ** 4
    return shift, p, q, r


def _quartic_pairing(tower, coeffs):
    """Split a squarefree quartic with nonzero end coefficients into
    two monic quadratics over a radical extension of the tower."""
    shift, p, q, r = _depress_quartic(coeffs)
    if q.is_zero():
        tower, roots = quadratic_roots(tower, from_rational(1), -p, r)
        alpha, beta = roots
        q1 = [alpha, from_rational(0), from_rational(1)]
        q2 = [beta, from_rational(0), from_rational(1)]
    else:
        resolvent = uni_make([-(q * q), p * p - 4 * r, 2 * p, from_rational(1)])
        tower, zstar = cubic_root(tower, resolvent)
        tower, w = adjoin_root(tower, 2, zstar)
        s1 = (p + zstar - q / w) / 2
        s2 = (p + zstar + q / w) / 2
        q1 = [s1, w, from_rational(1)]
        q2 = [s2, -w, from_rational(1)]

    def unshift(quad):
        c0, c1, c2 = quad
        return [
            c0 + c1 * shift + c2 * shift ** 2,
            c1 + 2 * c2 * shift,
            c2,
        ]

    return tower, unshift(q1), unshift(q2)


def even_quartic_form(g, bound):
    """Linear change making the degree 4 jet an even quartic
    a*x^4 + b*x^2*y^2 + c*y^4 with nonzero ends.

    The jet must have four distinct roots.  Shears first expose both
    pure fourth powers, the quartic then splits into two quadratics
    whose pencil is diagonalized simultaneously.
    """
    jet = wlayer(g, (1, 1), 4)
    if jet.coeff((4, 0)).is_zero():
        g, _ = expose_end(g, jet, 1, (1, 0), bound)
        jet = wlayer(g, (1, 1), 4)
    if jet.coeff((0, 4)).is_zero():
        g, _ = expose_end(g, jet, 0, (0, 1), bound)
        jet = wlayer(g, (1, 1), 4)
    coeffs = [jet.coeff((k, 4 - k)) for k in range(5)]
    tower = _tower_of(jet)
    tower, q1, q2 = _quartic_pairing(tower, coeffs)
    lead = coeffs[4]
    prod = [from_rational(0)] * 5
    for i in range(3):
        for j in range(3):
            prod[i + j] = prod[i + j] + q1[i] * q2[j] * lead
    if uni_make(prod) != uni_make(coeffs):
        raise PipelineError("quartic pairing failed verification")
    m1 = [[q1[2], q1[1] / 2], [q1[1] / 2, q1[0]]]
    m2 = [[q2[2], q2[1] / 2], [q2[1] / 2, q2[0]]]
    mixed = m1[0][0] * m2[1][1] + m1[1][1] * m2[0][0] - 2 * m1[0][1] * m2[0][1]
    det1 = m1[0][0] * m1[1][1] - m1[0][1] * m1[0][1]
    det2 = m2[0][0] * m2[1][1] - m2[0][1] * m2[0][1]
    tower, lams = quadratic_roots(tower, det2, -mixed, det1)
    vecs = []
    for lam in lams:
        r00 = m1[0][0] - lam * m2[0][0]
        r01 = m1[0][1] - lam * m2[0][1]
        r11 = m1[1][1] - lam * m2[1][1]
        if not r00.is_zero():
            vecs.append((-r01 / r00, from_rational(1)))
        elif not r11.is_zero():
            vecs.append((from_rational(1), -r01 / r11))
        else:
            raise PipelineError("pencil member vanished identically")
    rows = [[vecs[0][0], vecs[1][0]], [vecs[0][1], vecs[1][1]]]
    detv = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if detv.is_zero():
        raise PipelineError("pencil directions are dependent")
    g2 = apply_linear(g, rows, bound)
    jet2 = wlayer(g2, (1, 1), 4)
    bad = [e for e in jet2.terms if e not in {(4, 0), (2, 2), (0, 4)}]
    if bad or jet2.coeff((4, 0)).is_zero() or jet2.coeff((0, 4)).is_zero():
        raise PipelineError("even quartic reduction failed")
    return g2


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
    zero = SparsePoly.zero(g.vars)
    for k in range(1, top + 3):
        for lam in (k, -k):
            value = sum(
                (c * lam ** e[var_index] for e, c in jet.terms.items()),
                from_rational(0),
            )
            if not value.is_zero():
                step = SparsePoly.monomial(g.vars, exps, -lam)
                v1, v2 = (step, zero) if var_index == 0 else (zero, step)
                return shear(g, v1, v2, ((1, 1), bound)), lam
    raise PipelineError("no shift exposes the end of the jet")


# -- germs built on a double core x^2 + y^3 --------------------------

_CORE_WEIGHT = ((3, 2),)


def _core(vars):
    return SparsePoly.build(vars, {(2, 0): 1, (0, 3): 1})


def _divide_core(g):
    """Write a (3,2) homogeneous g as l * (x^2 + y^3) + r with every
    remainder term having x exponent at most one."""
    vars = g.vars
    l = SparsePoly.zero(vars)
    work = g
    while True:
        cand = [e for e in work.terms if e[0] >= 2]
        if not cand:
            return l, work
        e = max(cand)
        c = work.coeff(e)
        stem = (e[0] - 2, e[1])
        l = l + SparsePoly.monomial(vars, stem, c)
        work = work - SparsePoly.monomial(vars, stem, c) * _core(vars)


def _axis_monomial(level):
    """The unique monomial of (3,2) degree `level` with x exponent at
    most one."""
    if level % 2 == 0:
        return (0, level // 2)
    return (1, (level - 3) // 2)


def _peel_core_multiple(f, l, bound):
    """Shear away an l * core summand sitting in one graded layer."""
    vars = f.vars
    v1 = SparsePoly.zero(vars)
    v2 = SparsePoly.zero(vars)
    for e, c in l.terms.items():
        if e[0] >= 1:
            v1 = v1 + SparsePoly.monomial(
                vars, (e[0] - 1, e[1]), c * Fraction(1, 4)
            )
        else:
            v2 = v2 + SparsePoly.monomial(
                vars, (e[0], e[1] - 2), c * Fraction(1, 6)
            )
    return shear(f, v1, v2, (_CORE_WEIGHT, bound))


def _flow_images(vars, c, depth):
    """Substitution images of the exponential of the derivation
    x -> 3c y^2, y -> -2c x, which fixes x^2 + y^3 exactly."""
    gen_x = SparsePoly.monomial(vars, (0, 2), 3 * c)
    gen_y = SparsePoly.monomial(vars, (1, 0), -2 * c)

    def delta(p):
        return diff(p, "x") * gen_x + diff(p, "y") * gen_y

    out = {}
    for name in ("x", "y"):
        acc = SparsePoly.variable(vars, name)
        term = acc
        for k in range(1, depth + 1):
            term = delta(term).scaled(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
        out[name] = acc
    return out


class CoreResult:
    __slots__ = ("index", "mu", "a0", "a1", "monomial0", "monomial1")

    def __init__(self, index, mu, a0, a1, monomial0, monomial1):
        self.index = index
        self.mu = mu
        self.a0 = a0
        self.a1 = a1
        self.monomial0 = monomial0
        self.monomial1 = monomial1


def normalize_double_core(f, mu):
    """Normal form data for a germ whose principal part is a perfect
    square gamma * (alpha x^2 + beta y^3)^2.

    Rescales the square onto (x^2 + y^3)^2, then walks the (3,2)
    layers: multiples of the core are sheared away, the first monomial
    that is no such multiple carries the leading modulus, a flow fixing
    the core clears the following layer, and the one after that holds
    the second modulus.  The returned monomials follow the catalog
    shape for the parity of mu.
    """
    vars = f.vars
    d = mu - 15
    if d < 1:
        raise PipelineError("double core germ with out of range invariants")
    bound = mu + 6
    jet = wlayer(f, _CORE_WEIGHT, 12)
    c40 = jet.coeff((4, 0))
    c23 = jet.coeff((2, 3))
    c06 = jet.coeff((0, 6))
    if c40.is_zero() or c06.is_zero() or c23 * c23 != 4 * c40 * c06:
        raise PipelineError("principal part is not a perfect square")
    tower = _tower_of(jet)
    tower, a = adjoin_root(tower, 4, 1 / c40)
    tower, b = adjoin_root(tower, 6, 1 / c06)
    if c23 * a * a * b ** 3 == -2:
        b = -b
    if c23 * a * a * b ** 3 != 2:
        raise PipelineError("cross coefficient did not land on 2")
    f = substitute(
        f,
        {
            "x": SparsePoly.monomial(vars, (1, 0), a),
            "y": SparsePoly.monomial(vars, (0, 1), b),
        },
    )
    f = drop_above(f, _CORE_WEIGHT, bound)
    core2 = _core(vars) ** 2
    if not (wlayer(f, _CORE_WEIGHT, 12) - core2).is_zero():
        raise PipelineError("core rescaling failed")

    for level in range(13, 12 + d):
        l, r = _divide_core(wlayer(f, _CORE_WEIGHT, level))
        if not r.is_zero():
            raise PipelineError(
                "modulus appeared below the level fixed by the Milnor number"
            )
        if not l.is_zero():
            f = _peel_core_multiple(f, l, bound)
    m0 = _axis_monomial(12 + d)
    l, r = _divide_core(wlayer(f, _CORE_WEIGHT, 12 + d))
    a0 = r.coeff(m0)
    if a0.is_zero():
        raise PipelineError("leading modulus vanished against the invariants")
    if mu % 2 == 1:
        # for odd mu the reported position x^2 y^h is itself a core
        # multiple plus remainder; leave that part in place so the peel
        # does not disturb the next modulus
        l = l + SparsePoly.monomial(vars, (0, (6 + d) // 2), a0)
    if not l.is_zero():
        f = _peel_core_multiple(f, l, bound)
    m1 = _axis_monomial(13 + d)
    l, r = _divide_core(wlayer(f, _CORE_WEIGHT, 13 + d))
    e = r.coeff(m1)
    if not e.is_zero():
        sign = 1 if mu % 2 == 1 else -1
        c = e * Fraction(sign, mu - 3) / a0
        images = _flow_images(vars, c, mu + 4)
        f = core2 + substitute(
            f - core2, images, truncation=(_CORE_WEIGHT, bound)
        )
        l, r = _divide_core(wlayer(f, _CORE_WEIGHT, 13 + d))
        if not r.is_zero():
            raise PipelineError("flow failed to clear the intermediate layer")
    if not l.is_zero():
        f = _peel_core_multiple(f, l, bound)
    m2 = _axis_monomial(14 + d)
    _, r = _divide_core(wlayer(f, _CORE_WEIGHT, 14 + d))
    a1 = r.coeff(m2)
    if mu % 2 == 0:
        half = (mu - 6) // 2
        return CoreResult(d, mu, a0, a1, (1, half), (1, half + 1))
    half = (mu - 9) // 2
    return CoreResult(d, mu, -a0, -a1, (2, half), (2, half + 1))
