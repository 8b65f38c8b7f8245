"""A generic inverse and power of TruncSeries2, kept as references for the tests.

The library divides only by Pochhammer factors, with TruncSeries2.times_poch.
The tests check it against products of these generic inverses.
"""

from singzeta.series import TruncSeries2, WindowError


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
        result = result * base
    return result
