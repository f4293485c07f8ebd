"""Driver turning an input germ into its place in the catalog.

The pipeline: certify the Milnor number and split off the quadratic
part; straighten the lowest jet of the corank two residual onto a fixed
support; then walk the Newton boundary.  Each pass either recognizes a
catalog shape or performs one exact move toward it: a shear breaking a
repeated face factor, a shift exposing a missing axis end, a round of
corner clearing, or a square completion trading a mixed end vertex for
a pure power.  A matched shape is finished by the graded reduction,
whose leftover coefficients at the marked positions are the moduli.

The lowest jet is preserved by every move, so the vertex it pins down,
the anchor, identifies the working face on every pass: the point of the
straightened jet's support with the largest x exponent.  Classification
either returns a Result, raises Rejection for germs outside the covered
range, or raises PipelineError when an internal invariant breaks.
"""

from .catalog import (
    FAMILY,
    corner_plan,
    display_name,
    double_core_family,
    moduli_positions,
    normal_form_parts,
    single_face_plan,
    x9_plan,
)
from .errors import PipelineError, Rejection
from .newton import (
    face_jet,
    face_nondegenerate,
    newton_polygon,
    repeated_factor,
    two_face_grading,
)
from .poly import poly_order, weight_value, wlayer
from .scalars import format_scalar, monomial_text
from .transform import (
    _shift,
    absorb_above,
    apply_linear,
    clear_level,
    even_quartic_form,
    expose_end,
    graded_ladder,
    kill_face_middle,
    normalize_double_core,
    rescale_to_unit,
    split_germ,
    straighten_jet,
)

class Result:
    """Outcome of a successful classification.

    `key` and `indices` pick the row of `catalog.FAMILIES` that gives
    `name`, `modality` and `parts`, the normal form as (label, exponent)
    pairs, label 1 meaning a unit monomial; `parameters` is an ordered
    list of (name, value) pairs giving the exact moduli, each value a
    Fraction when it is rational and an `AlgebraicScalar` over its
    radical tower otherwise; `trace` records the reduction steps in
    order.

    The parameter values do not change under a tangent to identity
    change of coordinates.  Under a general change they are fixed only
    up to the finite symmetries of the family's normal form: for E_18,
    y -> -y takes x^3+y^10+a0*x*y^7+a1*x*y^8 to the same form with a0
    negated, so right equivalent germs may come back with a0 and -a0.
    For X_9, x -> i*x sends a to -a, and the other two pairings of the
    roots of the quartic jet give (12-2*a)/(2+a) and (12+2*a)/(2-a); a
    jet that is not even comes back with one member of this orbit.
    """

    __slots__ = (
        "key",
        "indices",
        "name",
        "modality",
        "mu",
        "corank",
        "parameters",
        "parts",
        "trace",
    )

    def __init__(self, key, indices, mu, corank, parameters, trace):
        self.key = key
        self.indices = indices
        self.name = display_name(key, indices)
        self.modality = FAMILY[key].modality
        self.mu = mu
        self.corank = corank
        self.parameters = parameters
        self.parts = normal_form_parts(key, indices)
        self.trace = trace

    def __repr__(self):
        return f"Result({self.name}, mu={self.mu})"


def classify(f):
    """Classify an isolated plane curve germ over the rationals.

    Returns a Result, or raises Rejection when the germ is outside the
    covered range (non-isolated, corank above two, or modality above
    two).  Raises ValueError for input that is not a germ with a
    critical point at the origin, or whose corank two residual passes
    the Milnor engine's code limits (exponents below 2^20, standard
    basis degrees below 2^19); corank at most one takes any exponent.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no singularity type")
    for exps in f.terms:
        if sum(exps) < 2:
            raise ValueError("germ must have no constant or linear part")
    split = split_germ(f)
    if split.corank > 2:
        raise Rejection("corank>2", f"corank is {split.corank}")
    if split.mu is None:
        raise Rejection("non-isolated", "no Milnor number certificate")
    trace = [
        f"quadratic part has rank {split.rank}, corank {split.corank}",
        f"Milnor number {split.mu}",
    ]
    if split.corank < 2:
        # corank zero is A_1, whose Milnor number is 1
        r = Result("A_k", (split.mu,), split.mu, split.corank, [], trace)
        trace.append(f"matched {r.name}")
        return r
    return _corank_two(split, trace)


def _corank_two(split, trace):
    g = split.residual
    mu = split.mu
    # g is determined by its jet of degree split.determinacy, and every
    # move below keeps its right equivalence class, so each one cuts
    # its result above that degree
    bound = split.determinacy + 1
    d = poly_order(g, (1, 1))
    if d is None or d >= 5:
        raise Rejection("modality>2", "both low order jets vanish")
    g, kind = straighten_jet(g, d, bound)
    trace.append(f"order {d} jet straightened: {kind}")
    if kind == "four-distinct":
        g = even_quartic_form(g, bound)
        trace.append("quartic jet brought to even form")
        return _finish(g, x9_plan(), split, bound, trace)
    anchor = max(wlayer(g, (1, 1), d).terms)

    for _ in range(3 * mu + 20):
        pg = newton_polygon(g)
        if not pg.faces:
            raise PipelineError("Newton boundary lost both of its ends")
        wface = _working_face(pg, anchor)
        xend, vend = wface.b, wface.a
        jet = face_jet(g, wface)

        if not face_nondegenerate(jet, wface):
            fac, _ = repeated_factor(jet, wface)
            raw = sorted(fac.terms)
            # axis powers tied for maximal multiplicity ride along in the
            # product; the shear targets the repeated block alone
            di = min(e[0] for e in raw)
            dj = min(e[1] for e in raw)
            support = [(e[0] - di, e[1] - dj) for e in raw]
            pure = len(support) == 2 and support[0][0] == support[1][1] == 0
            if pure and 1 in (support[0][1], support[1][0]):
                # the factor is a multiple of x + c*y^s or of y + c*x^k:
                # shear the variable v of the linear end by c times the
                # power end
                v = 0 if support[1] == (1, 0) else 1
                power = support[v]
                if sum(power) < 2:
                    raise PipelineError("repeated face factor inside the jet")
                c = fac.coeff(raw[v]) / fac.coeff(raw[1 - v])
                g = _shift(g, v, c, power, bound)
                mono = monomial_text(g.vars, power)
                trace.append(f"sheared {g.vars[v]} by -({format_scalar(c)})*{mono}")
                continue
            if support == [(0, 3), (2, 0)]:
                return _double_core(g, split, trace)
            raise Rejection(
                "modality>2", "repeated face factor outside the catalog"
            )

        if vend[0] == 1 and wface.weight[1] == 1:
            g = _expose_axis_end(g, wface, "y", bound, trace)
            continue

        if anchor == (2, 2) and xend[1] == 1:
            g = _expose_axis_end(g, wface, "x", bound, trace)
            continue

        if vend in ((2, 2), (2, 3)):
            idx = pg.faces.index(wface)
            if idx == 0:
                raise PipelineError("corner vertex without a second face")
            yface = pg.faces[idx - 1]
            weights, level, span = two_face_grading(yface, wface)
            allowed = {xend, vend} | {pt for pt in span if pt[0] == 0}
            layer = wlayer(g, weights, level)
            if any(e not in allowed for e in layer.terms):
                cleared = clear_level(g, weights, level, sorted(allowed), bound)
                if cleared is None:
                    raise Rejection(
                        "modality>2",
                        "corner level will not reduce onto the catalog support",
                    )
                g = cleared
                trace.append(f"pushed level {level} onto the corner support")
                continue
            yvert = yface.a
            if yvert[0] != 0:
                raise PipelineError("corner chain ended off the y axis")
            m = yvert[1]
            if vend == (2, 2):
                r = xend[0]
                if (m == 4 and r >= 5) or (5 <= r < m):
                    g = apply_linear(g, ((0, 1), (1, 0)), bound)
                    trace.append("swapped the variables")
                    continue
            plan = corner_plan(xend, vend, m, weights, level)
            if plan is None:
                raise Rejection(
                    "modality>2",
                    f"corner {vend} between {xend} and {yvert} is not tabulated",
                )
            return _finish(g, plan, split, bound, trace)

        if anchor == (2, 2) and vend[1] == 1:
            g = _complete_square_tail(g, vend, bound, trace)
            continue

        plan = single_face_plan(xend, vend)
        if plan is None:
            raise Rejection(
                "modality>2", f"boundary face {vend} to {xend} is not tabulated"
            )
        return _finish(g, plan, split, bound, trace)

    raise PipelineError("boundary walk did not settle")


def _working_face(pg, anchor):
    """Face the current pass works on: the x side face for axis anchors
    and the double line anchor, else the face ending at the anchor."""
    if anchor[1] == 0 or anchor == (2, 2):
        face = pg.faces[-1]
        if anchor[1] == 0 and face.b != anchor:
            raise PipelineError(f"jet anchor {anchor} fell off the boundary")
        return face
    for face in pg.faces:
        if face.b == anchor:
            return face
    raise PipelineError(f"jet anchor {anchor} fell off the boundary")


def _expose_axis_end(g, face, axis, bound, trace):
    """Shear along the working face until its lattice line reaches the
    pure power of `axis`; only the face jet contributes there."""
    # the other variable v moves by a power of the axis variable, whose
    # exponent is the weight of v
    v = 1 - g.vars.index(axis)
    step = face.weight[v]
    if face.weight[1 - v] != 1 or step < 2:
        raise PipelineError(f"no lattice shift exposes the {axis} end")
    exps = (step, 0) if v else (0, step)
    g, lam = expose_end(g, face_jet(g, face), v, exps, bound)
    trace.append(f"shifted {g.vars[v]} by {lam} along the face")
    return g


def _complete_square_tail(g, vend, bound, trace):
    """Trade an (a, 1) end vertex for a pure power of x by completing
    the square against the double line term."""
    pivot = g.coeff((2, 2))
    if not pivot:
        raise PipelineError("square completion lost its pivot")
    k = vend[0] - 2
    if k < 2:
        raise PipelineError("square completion would disturb the jet")
    c = g.coeff(vend) / (2 * pivot)
    g = _shift(g, 1, c, (k, 0), bound)
    trace.append(f"completed the square: y by -({format_scalar(c)})*x^{k}")
    return g


def _double_core(g, split, trace):
    key, indices = double_core_family(split.mu)
    names = [name for name, _ in moduli_positions(key, indices)]
    parameters = list(zip(names, normalize_double_core(g, split.mu)))
    r = Result(key, indices, split.mu, 2, parameters, trace)
    trace.append(f"principal part is a perfect square; matched {r.name}")
    return r


def _finish(g, plan, split, bound, trace):
    """Graded reduction onto a matched shape, then read off the moduli."""
    if plan.mu != split.mu:
        raise PipelineError(
            f"shape {plan.key} expects Milnor number {plan.mu}, "
            f"the germ has {split.mu}"
        )
    if plan.middle is not None:
        e3, e2, e1, power = plan.middle
        g = kill_face_middle(g, e3, e2, e1, power, bound)
        trace.append(f"shifted x to clear the face point {e1}")
    above = [
        e for _, e in plan.moduli if weight_value(plan.weights, e) > plan.level
    ]
    if len(plan.weights) > 1:
        g = absorb_above(g, plan.weights, plan.level, above, bound)
        trace.append("absorbed the tail above the corner level exactly")
    else:
        g = graded_ladder(g, plan.weights, plan.level, plan.dprime, above)
        trace.append(f"reduced layers up to degree {plan.dprime}")
    g = rescale_to_unit(g, plan.units)
    trace.append("units at " + ", ".join(str(e) for e in plan.units))
    parameters = [(pname, g.coeff(exps)) for pname, exps in plan.moduli]
    if plan.restriction is not None and not plan.restriction(parameters[0][1]):
        raise PipelineError("normal form landed on a forbidden stratum")
    r = Result(plan.key, plan.indices, plan.mu, 2, parameters, trace)
    trace.append(f"matched {r.name}")
    return r
