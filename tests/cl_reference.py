"""The Cohen-Lenstra numerators walked on TruncSeries2, kept as a reference.

clzeta runs both walks on packed ints.  These are the same walks on the
dict ring: every gap divides by (u;u)_n one times_poch factor at a time, and
the node's end factors are times_poch passes.  The tests compare the packed
numerators with them.
"""

from series_reference import mul, shift
from singzeta.hall import column_walk
from singzeta.laurent import QINV, T, qbinomial, qpoch_qinv_ratio
from singzeta.series import TruncSeries2


class _Factor:
    """A series that column_walk multiplies its states by, as `factor * state`."""

    def __init__(self, series):
        self.series = series

    def __mul__(self, state):
        return mul(self.series, state)


def walk_top(kind, u_prec, t_prec):
    """The column length both walks start at (clzeta's module docstring)."""
    top = 0
    if kind == "cusp":
        while 2 * top < t_prec and top * top < u_prec:
            top += 1
    else:
        while top < t_prec and 3 * top * top < 4 * u_prec:
            top += 1
    return top


def cusp_numerator(m, u_prec, t_prec):
    """The cusp's one-index walk, each last-column state divided by (u;u)_{mu'_m}."""
    top = walk_top("cusp", u_prec, t_prec)
    states = column_walk(m, (top, 0), TruncSeries2.one(u_prec, t_prec), None,
                         lambda v, c, c2: v if c == top else v.times_poch(1, 0, c - c2, power=-1),
                         lambda i, v, c, _: shift(v, c * c, 2 * c).truncate(u_prec, t_prec))
    return sum((v.times_poch(1, 0, c, power=-1) for (c, _), v in states.items()),
               TruncSeries2(u_prec, t_prec))


def node_states(m, u_prec, t_prec):
    """The node's column walk: its last-column states {(j, i): value}."""
    top = walk_top("node", u_prec, t_prec)
    binoms = {(n, r): _Factor(TruncSeries2.from_laurent(qbinomial(n, r).substitute(QINV, T),
                                                        u_prec, t_prec))
              for n in range(top + 1) for r in range(n + 1)}
    return column_walk(m, (top, top), TruncSeries2.one(u_prec, t_prec), binoms,
                       lambda v, a, a2: v if a == top else v.times_poch(1, 0, a - a2, power=-1),
                       lambda i, v, a, b: shift(v, a * a - b * (a - b), 2 * a - b).truncate(
                           u_prec, t_prec))


def node_numerator(m, u_prec, t_prec):
    """The node's walk, its fold [j, i]_u (u;u)_j/(u;u)_i, and a Horner pass
    over j for the end factors."""
    sums = {}
    for (j, i), v in node_states(m, u_prec, t_prec).items():
        v = mul(TruncSeries2.from_laurent(
            qbinomial(j, i).substitute(QINV, T) * qpoch_qinv_ratio(j, j - i), u_prec, t_prec), v)
        sums[j] = sums[j] + v if j in sums else v
    last = max(sums)
    total = TruncSeries2(u_prec, t_prec)
    for j in range(last + 1):
        if j:
            total = total.times_poch(j, 1, 1, power=2).times_poch(j, 0, 1)
        if j in sums:
            total = total + sums[j]
    return total.times_poch(last + 1, 1, power=2).times_poch(1, 0, last, power=-1)
