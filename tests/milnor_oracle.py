"""Brute force Milnor number for cross checking.

Computes dim Q[x,y] / (df/dx, df/dy + all monomials of degree >= N) by
plain linear algebra over Fraction for growing N until the value
stabilizes.  Completely independent of the package's standard basis
machinery; only works for rational coefficient inputs.
"""

from fractions import Fraction


def _poly_to_frac_terms(f):
    out = {}
    for exps, c in f.terms.items():
        out[exps] = Fraction(c)
    return out


def _partial(terms, var):
    out = {}
    for (i, j), c in terms.items():
        e = (i, j)[var]
        if e:
            ne = (i - 1, j) if var == 0 else (i, j - 1)
            out[ne] = c * e
    return out


def _rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def brute_milnor(f, cap=44):
    """Milnor number of a rational 2 variable germ, or None if it does
    not stabilize below the cap (treated as not isolated)."""
    terms = _poly_to_frac_terms(f)
    gx = _partial(terms, 0)
    gy = _partial(terms, 1)
    previous = None
    n = 4
    while n <= cap:
        monos = [(i, j) for i in range(n) for j in range(n - i)]
        index = {m: k for k, m in enumerate(monos)}
        rows = []
        for gen in (gx, gy):
            if not gen:
                continue
            for u in monos:
                row = [Fraction(0)] * len(monos)
                touched = False
                for e, c in gen.items():
                    prod = (e[0] + u[0], e[1] + u[1])
                    if sum(prod) < n:
                        row[index[prod]] += c
                        touched = True
                if touched:
                    rows.append(row)
        value = len(monos) - _rank(rows)
        if previous is not None and value == previous:
            return value
        previous = value
        n += 2
    return None


def brute_milnor_top(f, cap=44):
    """(mu, t) of a rational 2 variable germ, t the top degree of its
    staircase, or None if m^n lies in no J + m^(n+1) with n < cap - 1
    (treated as not isolated).

    With d(n) = dim Q[x,y] / (J + m^n), J = (df/dx, df/dy), d(n) = d(n+1)
    puts m^n in J + m^(n+1), hence in J by Nakayama, and d is constant
    from there on, at mu; before that it strictly grows.  The least n
    with d(n) = mu is the least n with m^n inside J, which is t + 1.

    Every d(n) comes from one echelon form of the products u * g of a
    monomial and a partial, cut below degree cap: each row's pivot is
    its lowest degree term, so the rows pivoting below degree n span
    the products cut below degree n, and d(n) counts the monomials of
    degree below n that are no pivot.
    """
    terms = _poly_to_frac_terms(f)
    gens = [g for g in (_partial(terms, 0), _partial(terms, 1)) if g]
    monos = sorted(
        ((i, j) for i in range(cap) for j in range(cap - i)),
        key=lambda e: (sum(e), e),
    )
    pivots = {}
    for u in monos:
        for g in gens:
            row = {}
            for e, c in g.items():
                prod = (e[0] + u[0], e[1] + u[1])
                if sum(prod) < cap:
                    row[prod] = c
            while row:
                low = min(row, key=lambda e: (sum(e), e))
                pivot = pivots.get(low)
                if pivot is None:
                    pivots[low] = row
                    break
                scale = row[low] / pivot[low]
                for e, c in pivot.items():
                    v = row.get(e, 0) - scale * c
                    if v:
                        row[e] = v
                    else:
                        row.pop(e, None)
    previous = None
    for n in range(1, cap):
        value = sum(1 for e in monos if sum(e) < n and e not in pivots)
        if value == previous:
            return value, n - 2
        previous = value
    return None
