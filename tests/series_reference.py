"""Generic arithmetic on TruncSeries2, kept as references for the tests.

The library multiplies and divides a series only by Pochhammer factors, with
TruncSeries2.times_poch.  The tests check it against these generic products,
inverses and shifts.

mul tracks how far exactness survives: a series known below u^hA with lowest
u-exponent lowA times one known below u^hB with lowest exponent lowB is known
below min(hA + lowB, hB + lowA).  For series with constant term 1 that is the
smaller of the two windows; a positive lowest exponent widens it.
"""

from singzeta.series import TruncSeries2, WindowError


def _order_bound(x):
    """The lowest u-exponent present, or u_prec for the zero series: the terms
    at u^u_prec and up are unknown."""
    return min(x.coeffs)[0] if x.coeffs else x.u_prec


def mul(x, *factors):
    """x times each factor in turn, on the window the precision rule allows."""
    for y in factors:
        tp = min(x.t_prec, y.t_prec)
        low_x, low_y = _order_bound(x), _order_bound(y)
        # O(u^hA) times the other's lowest term, and vice versa, bound what is known
        up = min(x.u_prec + low_y, y.u_prec + low_x)
        out = {}
        for (i1, j1), v1 in x.coeffs.items():
            if i1 + low_y >= up or j1 >= tp:
                continue
            for (i2, j2), v2 in y.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i < up and j < tp:
                    out[(i, j)] = out.get((i, j), 0) + v1 * v2
        x = TruncSeries2(up, tp, out)
    return x


def shift(x, du, dt=0):
    """x times the monomial u^du t^dt (exact; the window grows with du and dt)."""
    if du < 0 or dt < 0:
        raise WindowError("negative shift not supported on a power-series window")
    return TruncSeries2(x.u_prec + du, x.t_prec + dt,
                        {(i + du, j + dt): v for (i, j), v in x.coeffs.items()})


def inverse(x):
    """Multiplicative inverse of x, solved t-degree by t-degree.

    The t^0 coefficient a_0 must be +-1 plus higher powers of u.  Each
    t-coefficient b_j of the inverse solves
    a_0 b_j = [j = 0] - sum_{k=1..j} a_k b_{j-k}, by long division in u.
    """
    up, tp = x.u_prec, x.t_prec
    cols = [{} for _ in range(tp)]
    for (i, j), v in x.coeffs.items():
        cols[j][i] = v
    c0 = cols[0].get(0, 0)
    if c0 not in (1, -1):
        raise WindowError("inverse requires constant term +-1, got %r" % c0)
    tail = sorted((i, v) for i, v in cols[0].items() if i)
    inv = []
    for j in range(tp):
        rhs = {0: 1} if j == 0 else {}
        for k in range(1, j + 1):
            for i1, v1 in cols[k].items():
                for i2, v2 in inv[j - k].items():
                    i = i1 + i2
                    if i < up:
                        rhs[i] = rhs.get(i, 0) - v1 * v2
        col = {}
        if tail:
            for i in range(min(rhs, default=up), up):
                s = rhs.get(i, 0)
                for a, v in tail:
                    if a > i:
                        break
                    w = col.get(i - a)
                    if w:
                        s -= v * w
                if s:
                    col[i] = c0 * s
        else:
            col = {i: c0 * v for i, v in rhs.items() if v}
        inv.append(col)
    return TruncSeries2(up, tp, {(i, j): v for j, col in enumerate(inv) for i, v in col.items()})


def power(x, n):
    """x ** n by repeated products, of inverse(x) when n < 0."""
    base = x if n >= 0 else inverse(x)
    result = TruncSeries2.one(x.u_prec, x.t_prec)
    for _ in range(abs(n)):
        result = mul(result, base)
    return result
