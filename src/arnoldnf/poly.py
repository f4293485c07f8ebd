"""Sparse multivariate polynomials over radical towers.

A polynomial is a mapping from exponent tuples to nonzero coefficients,
together with the tuple of variable names that gives the exponent
positions their meaning.  A rational coefficient is a plain Fraction,
and only a coefficient that needs a radical is an `AlgebraicScalar`;
coefficients may live in different prefixes of a common tower, and the
scalar layer promotes on demand.  `build` turns int coefficients into
Fractions, so no quotient of two coefficients is ever a float.

Weight data is a tuple of weight vectors.  The weighted degree of a
monomial is the minimum of its values under the vectors, so a single
vector gives the usual weighted grading and several vectors give the
piecewise grading used along a Newton polygon.  A truncation cuts by a
single vector, in the one truncated product `_add_products` on lists
from `_by_weight`: `mul_trunc` and `transform.shear` run on it.

Sums, products and powers run on the term-dict kernels `_terms_add`,
`_terms_mul` and `_terms_pow`, which keep exponents in order of first
appearance.  `parse_poly` reads a polynomial over Q from text: its
parser runs the same kernels on ints and Fractions and builds one
SparsePoly of Fractions at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, itemgetter, mul

from .errors import ParseError
from .scalars import (
    AlgebraicScalar,
    format_scalar,
    monomial_text,
    signed_sum,
    term_text,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SparsePoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = vars
        self.terms = terms

    @classmethod
    def build(cls, vars, items):
        vars = tuple(vars)
        terms = {}
        for exps, c in dict(items).items():
            if c:
                terms[tuple(exps)] = Fraction(c) if type(c) is int else c
        return cls(vars, terms)

    @classmethod
    def zero(cls, vars):
        return cls(tuple(vars), {})

    @classmethod
    def constant(cls, vars, value):
        vars = tuple(vars)
        return cls.build(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        exps = [0] * len(vars)
        exps[vars.index(name)] = 1
        return cls(vars, {tuple(exps): _ONE})

    @classmethod
    def monomial(cls, vars, exps, coeff=1):
        return cls.build(vars, {tuple(exps): coeff})

    # -- structure ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coeff(self, exps):
        return self.terms.get(tuple(exps), _ZERO)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __repr__(self):
        return f"SparsePoly({poly_str(self)})"

    # -- arithmetic --------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("polynomials use different variable lists")

    def __add__(self, other):
        self._check(other)
        return SparsePoly(self.vars, _terms_add(self.terms, [other.terms]))

    def __neg__(self):
        return SparsePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicScalar)):
            if not other:
                return SparsePoly.zero(self.vars)
            return SparsePoly(
                self.vars, {e: k * other for e, k in self.terms.items()}
            )
        self._check(other)
        return SparsePoly(self.vars, _terms_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take nonnegative integers")
        one = {(0,) * len(self.vars): _ONE}
        return SparsePoly(self.vars, _terms_pow(self.terms, k, one))


# -- term-dict arithmetic --------------------------------------------


def _terms_add(a, more):
    """a plus the term dicts in `more`, exponents in order of first
    appearance."""
    out = dict(a)
    for d in more:
        for e, c in d.items():
            held = out.get(e)
            out[e] = c if held is None else held + c
    return {e: c for e, c in out.items() if c}


def _terms_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            held = out.get(e)
            out[e] = ca * cb if held is None else held + ca * cb
    return {e: c for e, c in out.items() if c}


def _terms_pow(a, k, one):
    """a^k by repeated squaring, `one` the unit dict."""
    if len(a) == 1:  # (c*x^e)^k is c^k*x^(k*e), with no products
        ((e, c),) = a.items()
        return {tuple(k * x for x in e): c**k}
    result = one
    while k:
        if k & 1:
            result = _terms_mul(result, a)
        k >>= 1
        if k:
            a = _terms_mul(a, a)
    return result


def diff(f, var):
    """Partial derivative with respect to a variable name or index."""
    i = var if isinstance(var, int) else f.vars.index(var)
    terms = {}
    for exps, c in f.terms.items():
        e = exps[i]
        if e:
            ne = list(exps)
            ne[i] = e - 1
            terms[tuple(ne)] = c * e
    return SparsePoly(f.vars, terms)


# -- weighted gradings ----------------------------------------------


def as_weights(w):
    """Normalize weight data to a tuple of weight vectors."""
    w = tuple(w)
    if w and isinstance(w[0], (int, Fraction)):
        return (w,)
    return tuple(tuple(v) for v in w)


def weight_value(weights, exps):
    return min(sum(map(mul, w, exps)) for w in weights)


def poly_order(f, weights):
    """Smallest weighted degree over the support; None for the zero poly."""
    if not f.terms:
        return None
    weights = as_weights(weights)
    return min(weight_value(weights, e) for e in f.terms)


def wjet(f, weights, bound):
    """Terms of weighted degree at most `bound`."""
    weights = as_weights(weights)
    return SparsePoly(
        f.vars,
        {e: c for e, c in f.terms.items() if weight_value(weights, e) <= bound},
    )


def wlayer(f, weights, d):
    """Terms of weighted degree exactly `d`."""
    weights = as_weights(weights)
    return SparsePoly(
        f.vars,
        {e: c for e, c in f.terms.items() if weight_value(weights, e) == d},
    )


def _by_weight(terms, w):
    """(weight, exponents, coefficient) of each nonzero term under the
    weight vector w, by rising weight."""
    return sorted(
        ((sum(map(mul, w, e)), e, c) for e, c in terms.items() if c),
        key=itemgetter(0),
    )


def _add_products(out, p, q, cut):
    """Add every product of a term of p and a term of q within weight
    `cut` to `out`; p and q list (weight, exponents, coefficient), q by
    rising weight, so each inner loop stops once the room is used up."""
    for w, e, c in p:
        room = cut - w
        for v, f, d in q:
            if v > room:
                break
            key = tuple(map(add, e, f))
            t = c * d
            held = out.get(key)
            out[key] = t if held is None else held + t
    return out


def mul_trunc(a, b, weights, bound):
    """Product with every term of weighted degree beyond `bound` dropped,
    under one weight vector."""
    # a zero operand may live over no variables, where weights are ()
    if not a.terms or not b.terms:
        return SparsePoly.zero(a.vars)
    (w,) = as_weights(weights)
    p = [(sum(map(mul, w, e)), e, c) for e, c in a.terms.items()]
    terms = _add_products({}, p, _by_weight(b.terms, w), bound)
    return SparsePoly(a.vars, {e: c for e, c in terms.items() if c})


def substitute(f, images, truncation=None):
    """Evaluate f at polynomial images of its variables.

    `images` maps variable names to polynomials (all over one common
    variable list); names left out are sent to the like-named variable of
    the target list.  Every image must vanish at the origin, so that
    substitution is well defined on power series and respects truncation.
    With `truncation=(weight, bound)` all intermediate products drop
    terms of weighted degree beyond the bound (see `mul_trunc`); an
    image of one term takes its power whole, not one product per power.
    """
    images = dict(images)
    target_vars = None
    for img in images.values():
        if target_vars is None:
            target_vars = img.vars
        elif img.vars != target_vars:
            raise ValueError("images use different variable lists")
    if target_vars is None:
        target_vars = f.vars
    full = []
    for name in f.vars:
        if name in images:
            img = images[name]
        else:
            if name not in target_vars:
                raise ValueError(f"no image given for variable {name}")
            img = SparsePoly.variable(target_vars, name)
        zero_exps = (0,) * len(target_vars)
        if zero_exps in img.terms:
            raise ValueError("substitution images must vanish at the origin")
        full.append(img)

    def product(a, b):
        if truncation is None:
            return a * b
        if len(b.terms) <= 1:  # one term or none only shifts a's terms
            return wjet(a * b, *truncation)
        return mul_trunc(a, b, *truncation)

    power_cache = [[SparsePoly.constant(target_vars, 1)] for _ in full]

    def power(i, k):
        cache, img = power_cache[i], full[i].terms
        if len(img) <= 1:  # (c*x^e)^k is one term, cut where it is used
            return SparsePoly(target_vars, _terms_pow(img, k, cache[0].terms))
        while len(cache) <= k:
            cache.append(product(cache[-1], full[i]))
        return cache[k]

    def pieces():
        for exps, c in sorted(f.terms.items()):
            piece = SparsePoly.constant(target_vars, c)
            for i, e in enumerate(exps):
                if e:
                    piece = product(piece, power(i, e))
            yield piece.terms

    # every product is cut already, and a constant piece has weight 0
    return SparsePoly(target_vars, _terms_add({}, pieces()))


# -- canonical term order and printing -------------------------------


def term_sort_key(exps):
    """Total degree first, then earlier variables with higher exponents."""
    return (sum(exps), tuple(-e for e in exps))


def sorted_terms(f):
    return sorted(f.terms.items(), key=lambda item: term_sort_key(item[0]))


def poly_str(f):
    parts = []
    for exps, c in sorted_terms(f):
        mono = monomial_text(f.vars, exps)
        if not isinstance(c, AlgebraicScalar):
            parts.append(term_text(c, mono))
        else:
            body = f"({format_scalar(c)})"
            parts.append(f"{body}*{mono}" if mono else body)
    return signed_sum(parts)


# -- parsing ---------------------------------------------------------


# Integers are decimal digit runs, exactly what `int` reads; names start
# with a letter or "_"; "**" reads as "^"; any other non-space character
# is an error at its position.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>\w+)|(?P<op>\*\*|[-+*^()/])|\S")


def _bad_name(value):
    return not (value[0].isalpha() or value[0] == "_")


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind is None or (kind == "name" and _bad_name(value)):
            raise ParseError(f"unexpected character {value[0]!r}", m.start())
        tokens.append((kind, "^" if value == "**" else value, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _variable_units(vars):
    """Each variable's exponent tuple; a repeated name, or one that the
    name token never reads, is a ValueError."""
    units = {}
    for i, v in enumerate(vars):
        m = _TOKEN.match(v)
        if v in units or not (m and m["name"] == v and not _bad_name(v)):
            what = "is repeated" if v in units else "is not a name"
            raise ValueError(f"variable {v!r} {what}")
        units[v] = tuple(int(j == i) for j in range(len(vars)))
    return units


class _Parser:
    def __init__(self, tokens, vars):
        self.tokens = tokens
        self.pos = 0
        self.units = _variable_units(vars)
        self.origin = (0,) * len(vars)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_expr(self):
        # a leading minus is parse_base's unary minus
        if self.peek()[:2] == ("op", "+"):
            self.take()
        result = self.parse_term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                term = self.parse_term()
                if value == "-":
                    term = {e: -c for e, c in term.items()}
                result = _terms_add(result, [term])
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.take()
                result = _terms_mul(result, self.parse_factor())
            elif kind in ("int", "name") or (kind == "op" and value == "("):
                raise ParseError(
                    "expected an operator; multiplication needs an explicit '*'",
                    pos,
                )
            else:
                return result

    def parse_factor(self):
        base = self.parse_base()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "^":
                self.take()
                kind, value, pos = self.peek()
                if kind != "int":
                    raise ParseError("expected a nonnegative integer exponent", pos)
                self.take()
                base = _terms_pow(base, int(value), {self.origin: 1})
            else:
                return base

    def parse_base(self):
        kind, value, pos = self.take()
        if kind == "int":
            num = int(value)
            if self.peek()[:2] == ("op", "/"):
                self.take()
                kind3, value3, pos3 = self.peek()
                if kind3 != "int":
                    raise ParseError("expected an integer denominator", pos3)
                self.take()
                den = int(value3)
                if den == 0:
                    raise ParseError("zero denominator", pos3)
                num = Fraction(num, den)
            return {self.origin: num} if num else {}
        if kind == "name":
            if value not in self.units:
                raise ParseError(f"unknown variable {value!r}", pos)
            return {self.units[value]: 1}
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            kind, value, pos = self.take()
            if (kind, value) != ("op", ")"):
                raise ParseError("expected ')'", pos)
            return inner
        if kind == "op" and value == "-":
            return {e: -c for e, c in self.parse_factor().items()}
        raise ParseError("expected a number, variable, or '('", pos)


def parse_poly(text, vars=None):
    """Parse a polynomial with rational coefficients.

    The grammar has sums and differences, products with an explicit
    `*`, nonnegative integer powers (`^` or `**`), integers and `a/b`
    rationals, variables, parentheses and unary minus.  Arithmetic runs
    on exact rational terms, and each coefficient of the result becomes
    a Fraction once.

    Without an explicit variable list, identifiers found in the text
    become the variables, ordered alphabetically.  An explicit list must
    hold distinct names, each one that the name token reads whole; any
    other list is a ValueError.
    """
    tokens = _tokenize(text)
    if vars is None:
        seen = {v for kind, v, _ in tokens if kind == "name"}
        vars = tuple(sorted(seen)) or ("x",)
    else:
        vars = tuple(vars)
    parser = _Parser(tokens, vars)
    try:
        terms = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.peek()[2]) from None
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", pos)
    return SparsePoly.build(vars, terms)
