"""Rational invariants of moduli that live in radical towers.

A modulus over a tower is fixed only up to the symmetries of its normal
form, so the benchmark checks a rational function of it that those
symmetries leave alone.  The expected value comes from the input germ
(exact, with Fractions); the returned value is evaluated from the
program's tower payload at high precision with mpmath.
"""

from fractions import Fraction
from math import lcm

import mpmath

DIGITS = 60
TOLERANCE = mpmath.mpf(10) ** -40


def _quartic_ratio_exact(a):
    """I^3 / (4*I^3 - J^2) of a0*x^4 + a1*x^3*y + ... + a4*y^4: both
    terms scale by det^12 under GL2, so the ratio is invariant; the
    denominator is 27 times the discriminant."""
    a0, a1, a2, a3, a4 = a
    i = 12 * a0 * a4 - 3 * a1 * a3 + a2 * a2
    j = (
        72 * a0 * a2 * a4
        + 9 * a1 * a2 * a3
        - 27 * a0 * a3 * a3
        - 27 * a4 * a1 * a1
        - 2 * a2 ** 3
    )
    return i ** 3 / (4 * i ** 3 - j * j)


def _quartic_of(form, a):
    """Binary quartic attached to a one-modulus normal form: the quartic
    jet x^4 + a*x^2*y^2 + y^4 of X_9, or Y*(x^3 + a*x^2*Y + Y^3) for a
    face cubic in x and Y = y^k (J_10, J_3,0), where Y = 0 is the
    direction every admissible change fixes."""
    one = a ** 0
    zero = a * 0
    if form == "x9":
        return (one, zero, a, zero, one)
    if form == "face":
        return (zero, one, a, zero, one)
    raise ValueError(f"unknown quartic form {form}")


def quartic_ratio(param, form, coeffs):
    """Expected quartic ratio of the input, as a check spec."""
    value = _quartic_ratio_exact([Fraction(str(c)) for c in coeffs])
    return {"kind": "quartic", "param": param, "form": form, "value": str(value)}


def monomial_power_invariant(param, units, pos, unit_coeffs, coeff):
    """Spec a^N == value for a germ c1*m1 + c2*m2 + e*m whose normal form
    sets the unit monomials m1, m2 to 1 by a diagonal scaling.  With N
    the least exponent making N*pos an integer combination n1*u1 + n2*u2
    of the unit exponents, a^N = e^N * c1^-n1 * c2^-n2."""
    (i1, j1), (i2, j2) = units
    det = i1 * j2 - i2 * j1
    n1 = Fraction(pos[0] * j2 - pos[1] * i2, det)
    n2 = Fraction(i1 * pos[1] - j1 * pos[0], det)
    power = lcm(n1.denominator, n2.denominator)
    n1, n2 = int(n1 * power), int(n2 * power)
    c1, c2, e = (Fraction(str(v)) for v in (*unit_coeffs, coeff))
    value = e ** power * c1 ** -n1 * c2 ** -n2
    return {"kind": "power", "param": param, "power": power, "value": str(value)}


# -- evaluating the program's answer --------------------------------


def evaluate(payload):
    """Complex value of a scalar payload under one embedding of its tower.

    Any embedding will do: the checked invariants are rational, so every
    conjugate gives the same value."""
    with mpmath.workdps(DIGITS):
        return _value(payload, [])


def _value(payload, gens):
    levels = payload["tower"]
    for i in range(len(gens), len(levels)):
        radicand = _value(levels[i]["radicand"], gens[:i])
        gens = gens + [mpmath.root(mpmath.mpc(radicand), levels[i]["index"])]
    total = mpmath.mpc(0)
    for idx, text in enumerate(payload["coeffs"]):
        c = Fraction(text)
        if not c:
            continue
        term = mpmath.mpc(c.numerator) / c.denominator
        rest = idx
        for g, level in zip(gens, levels):
            rest, e = divmod(rest, level["index"])
            if e:
                term *= g ** e
        total += term
    return total


def invariant_holds(spec, value):
    """Whether a returned modulus (complex, from `evaluate`) satisfies a
    spec made by `quartic_ratio` or `monomial_power_invariant`."""
    with mpmath.workdps(DIGITS):
        q = Fraction(spec["value"])
        want = mpmath.mpf(q.numerator) / q.denominator
        if spec["kind"] == "power":
            got = value ** spec["power"]
        elif spec["kind"] == "quartic":
            got = _quartic_ratio_exact(_quartic_of(spec["form"], value))
        else:
            raise ValueError(f"unknown invariant kind {spec['kind']}")
        return abs(got - want) <= TOLERANCE * max(1, abs(want))
