"""Exact arithmetic in radical extension towers of the rationals.

A rational is a plain Fraction everywhere in the package, and an
`AlgebraicScalar` is an element that needs a radical: it lives over a
tower of height at least one.  Arithmetic between the two goes through
the int and Fraction branches of `AlgebraicScalar`, and any result that
lands back in Q comes out as a Fraction.  `tower_of` gives the tower a
value lives in, Q for a rational.

A tower is a chain Q = K_0 < K_1 < ... < K_h where each step adjoins a
single radical: K_{i+1} = K_i(g_i) with g_i**n_i equal to a chosen
nonzero radicand in K_i.  Elements are dense coordinate vectors over the
product basis g_0**e_0 * ... * g_{h-1}**e_{h-1}, 0 <= e_i < n_i, so the
zero test and equality are exact coordinate checks.

Arithmetic works one level at a time.  With K = K_{h-1}, an element of
K_h = K[t]/(t**n - r) is n consecutive blocks of coordinates over K.  A
product multiplies the nonzero blocks as polynomials in t, one level down,
and folds t**(n+k) onto r*t**k.  An inverse solves the n x n system of
multiplication by the element over K, inverting each pivot one level down.

`adjoin_root` reuses radicals already present in the tower whenever it
can spot them, so the common rescaling steps do not grow the tower
needlessly: r has an n-th root c*m in the tower when r = c**n * m**n for
a basis monomial m, which is read off the coordinates of m**n.  It does
not prove irreducibility of what it adjoins; a defective step would
surface later as a non-invertible nonzero element, reported as
`PipelineError`.

Decimals come from integer enclosures, not floating point: each
generator, level by level, and then the value are enclosed in rectangles
with dyadic corners, rounded outward, at a scale that doubles until the
truncated digits are fixed (`approximate`).  They are proven, except for
a component that sits exactly on a cut point of the truncation without
being known exactly; past a top scale that component prints the cut
point.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .errors import PipelineError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _floor_root(a, n):
    """floor(a ** (1/n)) of a nonnegative integer, by Newton's method
    from a power of two above it."""
    if a < 2 or n == 2:
        return math.isqrt(a)
    x = 1 << -(-a.bit_length() // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def integer_nth_root(a, n):
    """Exact n-th root of a nonnegative integer, or None."""
    if a < 0:
        return None
    x = _floor_root(a, n)
    return x if x ** n == a else None


def rational_nth_root(q, n):
    """Exact n-th root of a Fraction, or None if there is none in Q."""
    q = Fraction(q)
    if q == 0:
        return _ZERO
    if q < 0:
        if n % 2 == 0:
            return None
        r = rational_nth_root(-q, n)
        return None if r is None else -r
    num = integer_nth_root(q.numerator, n)
    den = integer_nth_root(q.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


class FieldTower:
    """A radical extension tower of Q, described by its adjunction steps.

    `levels` is a tuple of (n, radicand) pairs; the radicand of step i is
    a Fraction, or an AlgebraicScalar over the tower formed by the steps
    before it.  Towers compare structurally, so two towers built by the
    same steps are interchangeable.
    """

    __slots__ = ("levels", "degree", "strides", "_hash")

    def __init__(self, levels=()):
        levels = tuple(levels)
        strides = []
        deg = 1
        for n, _ in levels:
            strides.append(deg)
            deg *= n
        self.levels = levels
        self.degree = deg
        self.strides = tuple(strides)
        self._hash = hash(levels)

    @property
    def height(self):
        return len(self.levels)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldTower) and self.levels == other.levels
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.levels:
            return "FieldTower(Q)"
        return f"FieldTower(Q, {self.height} radicals, degree {self.degree})"

    def is_prefix_of(self, other):
        return other.levels[: self.height] == self.levels

    def prefix(self, k):
        if k == self.height:
            return self
        return FieldTower(self.levels[:k])

    def extended(self, n, radicand):
        """Tower with one more level; `radicand` must live in this tower."""
        return FieldTower(self.levels + ((n, radicand),))

    def generator(self, i):
        """The adjoined radical of level i, as a scalar."""
        sub = self.prefix(i + 1)
        coords = [_ZERO] * sub.degree
        coords[sub.strides[i]] = _ONE
        return AlgebraicScalar(sub, tuple(coords))

    def embed(self, value):
        """Coerce an int, Fraction, or compatible scalar for use alongside
        elements of this tower."""
        if isinstance(value, AlgebraicScalar):
            if value.tower.is_prefix_of(self):
                return value
            raise ValueError("scalar does not live in this tower")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot embed {type(value).__name__} into a field tower")

    def exps_of(self, index):
        return tuple(
            (index // self.strides[i]) % self.levels[i][0] for i in range(self.height)
        )


QQ = FieldTower()


def tower_of(*values):
    """The deepest tower among the values: QQ itself when every one of
    them is rational."""
    tower = QQ
    for c in values:
        if isinstance(c, AlgebraicScalar) and c.tower.height > tower.height:
            tower = c.tower
    return tower


def _coords_over(value, tower):
    """The coordinates of a rational or a scalar over a tower it lives in."""
    if isinstance(value, AlgebraicScalar):
        return value.promoted(tower).coords
    return (Fraction(value),) + (_ZERO,) * (tower.degree - 1)


class AlgebraicScalar:
    """An element of a radical tower of height at least one, kept over
    the shortest prefix tower that can express it.  Arithmetic between
    scalars over different prefixes of a common tower promotes to the
    deeper one on the fly; an int or Fraction operand enters the
    coordinates directly.  A scalar never equals a rational, since every
    result that lands in Q comes back as a Fraction."""

    __slots__ = ("tower", "coords")

    def __init__(self, tower, coords):
        self.tower = tower
        self.coords = coords

    @classmethod
    def make(cls, tower, coords):
        """Normalize: fractionize coordinates and drop unused top levels;
        a value of Q comes back as a Fraction."""
        coords = [c if type(c) is Fraction else Fraction(c) for c in coords]
        levels = list(tower.levels)
        while levels:
            width = len(coords) // levels[-1][0]
            if any(coords[width:]):
                break
            del coords[width:]
            levels.pop()
        if not levels:
            return coords[0]
        if len(levels) != tower.height:
            tower = FieldTower(levels)
        return cls(tower, tuple(coords))

    # -- structure ---------------------------------------------------

    def iter_terms(self):
        """Yield (exponent tuple, Fraction) for each nonzero coordinate."""
        for idx, c in enumerate(self.coords):
            if c:
                yield self.tower.exps_of(idx), c

    def promoted(self, tower):
        """The same value written over a deeper compatible tower."""
        if self.tower.height == tower.height:
            return self
        pad = tower.degree - len(self.coords)
        return AlgebraicScalar(tower, self.coords + (_ZERO,) * pad)

    def __bool__(self):
        return any(self.coords)

    def __hash__(self):
        return hash((self.tower, self.coords))

    def __eq__(self, other):
        if not isinstance(other, AlgebraicScalar):
            return NotImplemented
        return self.tower == other.tower and self.coords == other.coords

    def __repr__(self):
        return f"AlgebraicScalar({format_scalar(self)})"

    # -- arithmetic --------------------------------------------------

    def _pair(self, other):
        """Both scalars written over the deeper of their towers."""
        if self.tower.is_prefix_of(other.tower):
            t = other.tower
        elif other.tower.is_prefix_of(self.tower):
            t = self.tower
        else:
            raise ValueError("scalars live in incompatible extension towers")
        return self.promoted(t), other.promoted(t)

    def _combine(self, other, op):
        if isinstance(other, AlgebraicScalar):
            a, b = self._pair(other)
            return AlgebraicScalar.make(a.tower, list(map(op, a.coords, b.coords)))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        # a rational moves the constant coordinate alone: the tower stays
        coords = list(self.coords)
        coords[0] = op(coords[0], other)
        return AlgebraicScalar(self.tower, tuple(coords))

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicScalar(self.tower, tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scaled(self, c):
        """Product with a rational c; the support, hence the tower, stays."""
        if not c:
            return _ZERO
        coords = tuple([c * x if x else x for x in self.coords])
        return AlgebraicScalar(self.tower, coords)

    def __mul__(self, other):
        if type(other) is not AlgebraicScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(other)
        a, b = (self, other) if self.tower == other.tower else self._pair(other)
        tower = a.tower
        return AlgebraicScalar.make(
            tower, _mul_coords(tower.levels, tower.height, a.coords, b.coords)
        )

    __rmul__ = __mul__

    def inverted(self):
        if not self:
            raise ZeroDivisionError("division by zero scalar")
        tower = self.tower
        return AlgebraicScalar.make(
            tower, _inv_coords(tower.levels, tower.height, self.coords)
        )

    def __truediv__(self, other):
        if type(other) is AlgebraicScalar:
            return self * other.inverted()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        return self._scaled(_ONE / other)

    def __rtruediv__(self, other):
        return self.inverted() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverted() ** (-k)
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result


def _mul_coords(levels, h, a, b):
    """Product of two coordinate vectors over the first h levels.

    An element of K[t]/(t**n - r) is n blocks over K.  The blocks are
    multiplied as polynomials in t, skipping zero blocks, one level down,
    and t**(n+k) folds onto r*t**k.
    """
    if h == 0:
        return [a[0] * b[0]]
    n, rad = levels[h - 1]
    if h == 1:
        acc = [_ZERO] * (2 * n)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        acc[i + j] += x * y
        return [u + rad * v if v else u for u, v in zip(acc, acc[n:])]
    w = len(a) // n
    bblocks = [(j, b[j * w:(j + 1) * w]) for j in range(n)]
    bblocks = [(j, y) for j, y in bblocks if any(y)]
    acc = [None] * (2 * n - 1)
    for i in range(n):
        x = a[i * w:(i + 1) * w]
        if any(x):
            for j, y in bblocks:
                p = _mul_coords(levels, h - 1, x, y)
                q = acc[i + j]
                acc[i + j] = p if q is None else list(map(operator.add, q, p))
    for k in range(n, 2 * n - 1):
        if acc[k] is not None:
            p, q = _times(levels, h - 1, rad, acc[k]), acc[k - n]
            acc[k - n] = p if q is None else list(map(operator.add, q, p))
    return [c for block in acc[:n] for c in (block or [_ZERO] * w)]


def _times(levels, h, s, v):
    """The rational or scalar s, kept over a prefix of the first h levels,
    times the coordinate vector v over them."""
    if not isinstance(s, AlgebraicScalar):
        return [s * x if x else x for x in v]
    return _mul_coords(levels, h, s.coords + (_ZERO,) * (len(v) - len(s.coords)), v)


def _inv_coords(levels, h, a):
    """Inverse of a nonzero coordinate vector over the first h levels:
    Gauss-Jordan on the n x n matrix over K of multiplication by a, each
    pivot inverted one level down.  A column without a nonzero pivot
    means a is a zero divisor: the tower is defective."""
    if h == 0:
        return [1 / a[0]]
    n, rad = levels[h - 1]
    w = len(a) // n
    blocks = [a[i * w:(i + 1) * w] for i in range(n)]
    zero = [_ZERO] * w
    if not any(map(any, blocks[1:])):
        return _inv_coords(levels, h - 1, blocks[0]) + zero * (n - 1)
    # column j holds a*t**j, whose block i is a_(i-j), or r*a_(i-j+n)
    # once the power of t wraps; column n is the right-hand side 1
    wrapped = [None] + [_times(levels, h - 1, rad, x) for x in blocks[1:]]
    rows = [
        [blocks[i - j] if i >= j else wrapped[i - j + n] for j in range(n)]
        + [[_ONE] + zero[1:] if i == 0 else zero]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((i for i in range(col, n) if any(rows[i][col])), None)
        if piv is None:
            raise PipelineError("defective tower: nonzero scalar has no inverse")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = _inv_coords(levels, h - 1, rows[col][col])
        prow = [_mul_coords(levels, h - 1, inv, x) for x in rows[col][col + 1:]]
        rows[col][col + 1:] = prow
        for i in range(n):
            f = rows[i][col]
            if i != col and any(f):
                rows[i][col + 1:] = [
                    list(map(operator.sub, x, _mul_coords(levels, h - 1, f, y)))
                    for x, y in zip(rows[i][col + 1:], prow)
                ]
    return [c for row in rows for c in row[n]]


# -- adjunction ------------------------------------------------------


def _root_in_tower(tower, n, r):
    """An n-th root of r among rational multiples of basis monomials, or
    None.  Never extends the tower.  Whether r = c*m**n with c rational is
    read off the coordinates of m**n, without dividing."""
    if not isinstance(r, AlgebraicScalar):
        root = rational_nth_root(r, n)
        if root is not None:
            return root
    target = _coords_over(r, tower)
    for idx in range(1, tower.degree):
        coords = [_ZERO] * tower.degree
        coords[idx] = _ONE
        mono = AlgebraicScalar.make(tower, coords)
        power = _coords_over(mono ** n, tower)
        lead = next((k for k, p in enumerate(power) if p), None)
        if lead is None:
            continue
        ratio = target[lead] / power[lead]
        if any(t != ratio * p for t, p in zip(target, power)):
            continue
        c = rational_nth_root(ratio, n)
        if c is not None:
            return mono * c
    return None


def adjoin_root(tower, n, radicand):
    """Return (tower2, root) with root**n == radicand and tower a prefix
    of tower2.  The tower is reused untouched whenever a root already
    exists among rational multiples of its basis monomials, and composite
    exponents are split so that only genuinely new radicals are adjoined.
    """
    r = tower.embed(radicand)
    if not r:
        raise ValueError("cannot adjoin a root of zero")
    if n == 1:
        return tower, r
    found = _root_in_tower(tower, n, r)
    if found is not None:
        return tower, found
    for m in sorted((d for d in range(2, n) if n % d == 0), reverse=True):
        rho = _root_in_tower(tower, m, r)
        if rho is not None:
            return adjoin_root(tower, n // m, rho)
    if n % 4 == 0:
        # x**n - r factors rationally when r == -4*c**4; the root c*(1+i)
        # keeps the degree down once i is adjoined.
        quarter = _root_in_tower(tower, 4, -r / 4)
        if quarter:
            tower2, i_unit = adjoin_root(tower, 2, -1)
            rho = quarter * (i_unit + 1)
            if n == 4:
                return tower2, rho
            return adjoin_root(tower2, n // 4, rho)
    new_tower = tower.extended(n, r)
    return new_tower, new_tower.generator(new_tower.height - 1)


# -- decimals on integer enclosures ----------------------------------
#
# An enclosure at scale 2**k is a tuple (x, y, rx, ry) of ints: the value
# lies in the rectangle |re - x/2**k| <= rx/2**k, |im - y/2**k| <= ry/2**k.
# Every operation rounds outward, and a component known exactly keeps
# radius 0, so the exact zero real part of (-1)**(1/2) stays exact.


def _rounded(v, err, k):
    """Center and radius at scale 2**k of v +- err given at scale 2**(2k)."""
    c = v >> k
    return c, -(-err >> k) + (c << k != v)


def _mul(p, q, k):
    """Enclosure of the product of two enclosures."""
    x1, y1, rx1, ry1 = p
    x2, y2, rx2, ry2 = q
    ax1, ay1, ax2, ay2 = abs(x1), abs(y1), abs(x2), abs(y2)
    x, rx = _rounded(
        x1 * x2 - y1 * y2,
        ax1 * rx2 + ay1 * ry2 + ax2 * rx1 + ay2 * ry1 + rx1 * rx2 + ry1 * ry2,
        k,
    )
    y, ry = _rounded(
        x1 * y2 + y1 * x2,
        ax1 * ry2 + ay1 * rx2 + ax2 * ry1 + ay2 * rx1 + rx1 * ry2 + ry1 * rx2,
        k,
    )
    return x, y, rx, ry


def _enclose(value, monos, k):
    """Enclosure of a rational or a scalar from those of the basis
    monomials of a tower it lives in: one integer combination over the
    common denominator of the coordinates, divided once."""
    if not isinstance(value, AlgebraicScalar):
        x, rem = divmod(value.numerator << k, value.denominator)
        return x, 0, int(rem != 0), 0
    coords = value.coords
    den = math.lcm(*[c.denominator for c in coords if c])
    x = y = rx = ry = 0
    for c, (mx, my, mrx, mry) in zip(coords, monos):
        if c:
            m = c.numerator * (den // c.denominator)
            am = abs(m)
            x += m * mx
            y += m * my
            rx += am * mrx
            ry += am * mry
    qx, qy = x // den, y // den
    return (
        qx,
        qy,
        -(-rx // den) + (qx * den != x),
        -(-ry // den) + (qy * den != y),
    )


def _root_bound(v, n, k, up):
    """A bound at scale 2**k, from above if `up` else from below, on the
    real n-th root of v/2**k; v >= 0 unless n is odd."""
    a = abs(v) << (n - 1) * k
    r = _floor_root(a, n)
    if up == (v > 0) and r ** n != a:
        r += 1
    return r if v >= 0 else -r


def _real_root(lo, hi, n, k):
    """Enclosure of the real n-th roots of [lo, hi] / 2**k."""
    low, high = _root_bound(lo, n, k, False), _root_bound(hi, n, k, True)
    c = (low + high) >> 1
    return c, 0, high - c, 0


def _gpow(x, y, n):
    """(x + y*i)**n on Gaussian integers."""
    a, b = x, y
    for _ in range(n - 1):
        a, b = a * x - b * y, a * y + b * x
    return a, b


def _shifted(v, t):
    """v * 2**t rounded down, for an int v and any int t."""
    return v << t if t >= 0 else v >> -t


def _to_float(v, t):
    """v / 2**t as a float, for an int v and any int t."""
    return v / (1 << t) if t >= 0 else float(v << -t)


def _approx_root(x, y, n, k):
    """The principal n-th root of (x + y*i)/2**k at scale 2**k, roughly:
    50 bits from floats, each Newton step doubling them."""
    # the root is about 2**s; the floats see the radicand over 2**(n*s)
    s = (max(abs(x), abs(y)).bit_length() - k) // n
    shift = k + n * s
    z = complex(_to_float(x, shift), _to_float(y, shift)) ** (1 / n)
    X = _shifted(int(math.ldexp(z.real, 52)), k + s - 52)
    Y = _shifted(int(math.ldexp(z.imag, 52)), k + s - 52)
    t = (n - 1) * k
    bits = 50
    while bits < k + s:
        px, py = _gpow(X, Y, n - 1)
        norm = px * px + py * py
        if not norm:
            break
        qx = ((x * px + y * py) << t) // norm
        qy = ((y * px - x * py) << t) // norm
        X, Y = ((n - 1) * X + qx) // n, ((n - 1) * Y + qy) // n
        bits *= 2
    return X, Y


def _in_sector(u, v, n):
    """Whether u + v*i lies in the open sector |arg| < pi/n, n >= 2: for
    w = u + |v|*i off the real axis, exactly when Im(w**j) > 0 for
    j = 1..n, since the angles j*arg(w) step by less than pi."""
    if not v:
        return u > 0
    v = abs(v)
    a, b = u, v
    for _ in range(n - 1):
        a, b = a * u - b * v, a * v + b * u
        if b <= 0:
            return False
    return True


def _complex_root(x, y, rx, ry, n, k):
    """Enclosure of the principal n-th root of every value in the
    rectangle, or None when the principal branch is not settled.

    Some root of z**n - r lies within |z0**n - r| / |z0|**(n-1) of z0,
    as |f'/f| = |sum 1/(z0 - root)| <= n / (distance to the nearest
    root).  A root inside the open sector |arg| < pi/n is the principal
    one, and the sector holds the whole square around z0 when it holds
    its four corners."""
    X, Y = _approx_root(x, y, n, k)
    low = math.isqrt(X * X + Y * Y) ** (n - 1)
    if not low:
        return None
    s = (n - 1) * k
    zx, zy = _gpow(X, Y, n)
    fx, fy = zx - (x << s), zy - (y << s)
    err = _root_bound(fx * fx + fy * fy, 2, 0, True) + ((rx + ry) << s)
    rho = -(-err // low)
    for u in (X - rho, X + rho):
        for v in (Y - rho, Y + rho):
            if not _in_sector(u, v, n):
                return None
    return X, Y, rho, rho


def _root(ball, n, k, final):
    """Enclosure of the principal n-th root of every value in `ball`,
    with the real root for a real radicand and odd n.

    A radicand whose branch is not settled gets the disc that holds all
    its roots.  In the `final` round a rectangle that still meets the
    negative real axis is taken to lie on it."""
    if n == 1:
        return ball
    x, y, rx, ry = ball
    if not (y or ry):
        lo, hi = x - rx, x + rx
        if n % 2 or lo >= 0:
            return _real_root(lo, hi, n, k)
        if hi < 0:
            # |r|**(1/n) * exp(i*pi/n), and exp(i*pi/n) is the principal
            # (n/2)-th root of i
            omega = _root((0, 1 << k, 0, 0), n // 2, k, final)
            return _mul(_real_root(-hi, -lo, n, k), omega, k)
    else:
        found = _complex_root(x, y, rx, ry, n, k)
        if found is not None:
            return found
        if final and x - rx <= 0 and y - ry <= 0 <= y + ry:
            return _root((x, 0, rx, 0), n, k, final)
    top = _root_bound((abs(x) + rx) ** 2 + (abs(y) + ry) ** 2, 2, 0, True)
    bound = _root_bound(top, n, k, True)
    return 0, 0, bound, bound


@functools.lru_cache(maxsize=64)
def _monomials(tower, k, final):
    """Enclosures of the tower's basis monomials at scale 2**k, in
    coordinate order.  The tower below is looked up through the cache,
    so the generators of a tower are enclosed once per scale for every
    value over any of its prefixes."""
    if not tower.levels:
        return ((1 << k, 0, 0, 0),)
    monos = _monomials(tower.prefix(tower.height - 1), k, final)
    n, rad = tower.levels[-1]
    g = _root(_enclose(rad, monos, k), n, k, final)
    powers = [g]
    for _ in range(n - 2):
        powers.append(_mul(powers[-1], g, k))
    return monos + tuple(_mul(m, p, k) for p in powers for m in monos)


def _decimal_text(t, digits):
    """The decimal string of t / 10**digits."""
    sign = "-" if t < 0 else ""
    t = abs(t)
    if digits == 0:
        return f"{sign}{t}"
    whole, frac = divmod(t, 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _truncated(c, r, digits, k, final):
    """c/2**k +- r/2**k times 10**digits, truncated toward zero, when
    every point of the interval truncates alike; else, in the `final`
    round, the truncation of the one cut point the interval holds, and
    None otherwise."""
    scale = 10 ** digits
    lo, hi = c - r, c + r
    lo = -(-lo * scale >> k) if lo < 0 else lo * scale >> k
    hi = -(-hi * scale >> k) if hi < 0 else hi * scale >> k
    if lo == hi:
        return lo
    if final and hi - lo == 1:
        return max(lo, hi, key=abs)
    return None


# refinement stops doubling the scale, and a component still on a cut
# point prints that cut point, once the scale reaches this multiple of
# the starting one
_TOP = 16


def approximate(scalar, digits):
    """Decimal approximation with `digits` places, truncated toward zero.

    Rational values are cut exactly.  An irrational value is enclosed in
    a rectangle with dyadic corners at scale 2**-k, generator by
    generator, with outward rounding: real roots by integer roots,
    complex roots by Newton steps and a root-distance bound, the
    principal branch picked by exact comparisons.  The scale starts at
    k = ceil(digits*log2(10)) + 32 and doubles until each component lies
    between two consecutive cut points of the truncation, or is known
    exactly; then the printed digits are proven.

    One case stays unproven: a component that is itself a nonzero
    `digits`-place decimal but is not known exactly, such as the real
    part of 1 + i enclosed as 4**(1/4)*exp(i*pi/4) over a level
    (-4)**(1/4).  Its rectangles always hold that cut point, so once k
    reaches 16 times its start the value prints that decimal.  An
    irrational component never sits on a cut point, so refining it ends;
    only one within 2**-k of a cut point at the top scale would print
    the cut point as well.

    A complex value prints as "<re>+<im>*i" (or with "-"), dropping the
    imaginary half when it truncates to zero.
    """
    if not isinstance(scalar, AlgebraicScalar):
        q = Fraction(scalar)
        t = abs(q.numerator) * 10 ** digits // q.denominator
        return _decimal_text(-t if q < 0 else t, digits)
    start = math.ceil(digits * math.log2(10)) + 32
    k = start
    while True:
        final = k >= _TOP * start
        x, y, rx, ry = _enclose(scalar, _monomials(scalar.tower, k, final), k)
        re = _truncated(x, rx, digits, k, final)
        im = _truncated(y, ry, digits, k, final)
        if re is not None and im is not None:
            text = _decimal_text(re, digits)
            if not im:
                return text
            return f"{text}{'+' if im > 0 else '-'}{_decimal_text(abs(im), digits)}*i"
        k *= 2


# -- display ---------------------------------------------------------


def _gen_name(level):
    return f"g{level + 1}"


def format_tower(tower):
    """Legend lines naming each adjoined radical, innermost first."""
    lines = []
    for i, (n, rad) in enumerate(tower.levels):
        lines.append(f"{_gen_name(i)} = ({format_scalar(rad)})^(1/{n})")
    return lines


def monomial_text(names, exps):
    """x*y^2 style text of a monomial; empty for the constant 1."""
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
    )


def term_text(c, mono):
    """Text of c * mono for a rational c or a parameter name, the unit
    coefficient elided."""
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return f"{c}*{mono}"


def signed_sum(parts):
    """Term texts joined by '+', except before a term that brings its
    own minus sign; '0' for no terms."""
    if not parts:
        return "0"
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


def format_scalar(scalar):
    if isinstance(scalar, (int, Fraction)):
        return str(Fraction(scalar))
    parts = []
    for exps, c in scalar.iter_terms():
        names = [_gen_name(i) for i in range(len(exps))]
        parts.append(term_text(c, monomial_text(names, exps)))
    return signed_sum(parts)


def _written_over(value, tower):
    """A rational or a scalar written over a tower it lives in, for
    printing: a rational stays a Fraction only over Q."""
    if not tower.levels:
        return value
    return AlgebraicScalar(tower, _coords_over(value, tower))


def scalar_payload(scalar, digits=8):
    """JSON-ready description of a rational or a scalar: tower steps,
    coordinates, decimal string.  A rational has no tower steps and one
    coordinate.

    Each tower step serializes its radicand recursively, as a payload
    over the whole tower below it.  The decimals of those payloads reuse
    the generator enclosures `approximate` caches per tower and scale."""
    tower = tower_of(scalar)
    return {
        "tower": [
            {
                "index": n,
                "radicand": scalar_payload(
                    _written_over(rad, tower.prefix(i)), digits
                ),
            }
            for i, (n, rad) in enumerate(tower.levels)
        ],
        "coeffs": [str(c) for c in _coords_over(scalar, tower)],
        "approx": approximate(scalar, digits),
    }
