"""Truncated bivariate series in (u, t), u = 1/q, and q-series primitives.

TruncSeries2 is the one series type.  Its coefficients are exact below
t^t_prec and below u^u_prec, where u_prec None means exact in u: each
t-coefficient is then a Laurent polynomial in u.  Negative u-exponents are
allowed, so the exact q-polynomial intermediates of the rank-conversion
identities and the power series on a window share the type.  Products track
how far exactness survives, the standard Laurent-series bookkeeping: a series
known below u^hA with lowest u-exponent lowA times one known below u^hB with
lowest exponent lowB is known below min(hA + lowB, hB + lowA).  For power
series with constant term 1 that is the smaller of the two windows.
Comparisons of mismatched windows use the intersection.

TruncSeries2.times_poch multiplies or divides a series by the Pochhammer
product (u^a t^b; u^step)_n, finite or infinite, in one linear pass per
factor 1 - u^e t^b, with no generic product; it is the one way the package
divides, and the type has no generic inverse.  poch, the product itself, is
that pass applied to 1, and the basic hypergeometric evaluator is built on it.
"""

from .laurent import LaurentPoly2, grouped_text


class WindowError(ValueError):
    """Raised when a value cannot be represented on the requested window."""


_INF = float("inf")
_PHI_MAX_TERMS = 10000


class TruncSeries2:
    """Series in t with u-Laurent coefficients, exact below (u^u_prec, t^t_prec).

    u_prec None means exact in u.  from_laurent and truncate onto a finite
    window give a power series on 0 <= i < u_prec, 0 <= j < t_prec: they
    refuse negative u-exponents.
    """

    __slots__ = ("u_prec", "t_prec", "coeffs")

    def __init__(self, u_prec, t_prec, coeffs=None):
        _check_window(u_prec, t_prec)
        self.u_prec = u_prec
        self.t_prec = t_prec
        c = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                if v and 0 <= j < t_prec and (u_prec is None or i < u_prec):
                    c[(i, j)] = int(v)
        self.coeffs = c

    @classmethod
    def _adopt(cls, u_prec, t_prec, coeffs):
        """A series from a dict of int coefficients that the class built on the window.

        Checks the window once and drops zeros; unlike the constructor it
        neither re-checks each coefficient's position nor int()s it.  The
        caller must not touch the dict again.
        """
        _check_window(u_prec, t_prec)
        self = cls.__new__(cls)
        self.u_prec, self.t_prec = u_prec, t_prec
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        return self

    # -- constructors --------------------------------------------------------

    @staticmethod
    def one(u_prec, t_prec):
        return TruncSeries2(u_prec, t_prec, {(0, 0): 1})

    @staticmethod
    def monomial(c, i, j, u_prec, t_prec):
        return TruncSeries2(u_prec, t_prec, {(i, j): c})

    @staticmethod
    def from_laurent(p, u_prec, t_prec, var="u"):
        """Convert a LaurentPoly2; q-exponent a maps to u-exponent -a.

        With var="q" the first variable is kept as a positive power of q (used
        by the m->infinity checks, which live in Z[[q,t]]).  u_prec None gives
        the exact series; a finite window raises on a negative exponent in the
        target variable.
        """
        out = {}
        for (a, b), c in p.terms.items():
            i = -a if var == "u" else a
            if i < 0 and u_prec is not None:
                raise WindowError("negative %s-exponent in conversion" % var)
            if b < 0:
                raise WindowError("negative t-exponent in conversion")
            out[(i, b)] = c
        return TruncSeries2(u_prec, t_prec, out)

    # -- arithmetic ------------------------------------------------------------

    def _window(self, other):
        known = [p for p in (self.u_prec, other.u_prec) if p is not None]
        return min(known, default=None), min(self.t_prec, other.t_prec)

    def __bool__(self):
        return bool(self.coeffs)

    def min_u_exp(self):
        """The lowest u-exponent present (infinity for the zero series)."""
        return min(self.coeffs)[0] if self.coeffs else _INF

    def _order_bound(self):
        """A lower bound for the u-order: terms at u^u_prec and up are unknown."""
        return min(self.min_u_exp(), _INF if self.u_prec is None else self.u_prec)

    def __add__(self, other):
        up, tp = self._window(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        if (self.u_prec, self.t_prec) == (other.u_prec, other.t_prec):
            return TruncSeries2._adopt(up, tp, out)
        return TruncSeries2(up, tp, out)

    def __neg__(self):
        return TruncSeries2(self.u_prec, self.t_prec, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncSeries2._adopt(self.u_prec, self.t_prec,
                                       {k: other * v for k, v in self.coeffs.items()})
        tp = min(self.t_prec, other.t_prec)
        low_a, low_b = self._order_bound(), other._order_bound()
        # O(u^hA) times other's lowest term, and vice versa, bound what is known
        up = min(_INF if self.u_prec is None else self.u_prec + low_b,
                 _INF if other.u_prec is None else other.u_prec + low_a)
        out = {}
        for (i1, j1), v1 in self.coeffs.items():
            if i1 + low_b >= up or j1 >= tp:
                continue
            for (i2, j2), v2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i < up and j < tp:
                    out[(i, j)] = out.get((i, j), 0) + v1 * v2
        return TruncSeries2._adopt(None if up == _INF else up, tp, out)

    __rmul__ = __mul__

    def times_poch(self, a, b, n=None, step=1, power=1):
        """This series times (u^a t^b; u^step)_n ** power, exactly.

        Each factor 1 - u^e t^b takes |power| linear passes over the
        coefficients (_times_binomial, _over_binomial).  n None gives the
        infinite product, which needs a finite u-window and a nonconstant
        argument.  A factor whose monomial lies outside the window is 1 there.
        The window is the series' own, less what a negative u-exponent hides
        on a finite one, as in __mul__; division then raises instead.
        """
        if a < 0 or b < 0 or step < 1:
            raise WindowError("pochhammer needs a nonnegative monomial and a positive step")
        if n is None and ((a, b) == (0, 0) or self.u_prec is None):
            raise WindowError("an infinite pochhammer product needs a nonconstant argument "
                              "and a finite u-window")
        up, tp, low = self.u_prec, self.t_prec, self.min_u_exp()
        if up is not None and low < 0:
            if power < 0:
                raise WindowError("division of a series with negative u-exponents "
                                  "needs it exact in u")
            up += low
        cols = {}
        for (i, j), v in self.coeffs.items():
            if up is None or i < up:
                cols.setdefault(j, {})[i] = v
        k = 0
        while (n is None or k < n) and b < tp and (self.u_prec is None
                                                  or a + k * step < self.u_prec):
            e = a + k * step
            for _ in range(abs(power)):
                (_times_binomial if power > 0 else _over_binomial)(cols, e, b, up, tp)
            k += 1
        return TruncSeries2._adopt(up, tp, {(i, j): v for j, col in cols.items()
                                            for i, v in col.items()})

    def shift(self, du, dt=0):
        """Multiply by the monomial u^du t^dt (exact; the t-window grows with dt)."""
        if dt < 0:
            raise WindowError("negative t-shift not supported")
        up = None if self.u_prec is None else self.u_prec + du
        return TruncSeries2._adopt(up, self.t_prec + dt,
                                   {(i + du, j + dt): v for (i, j), v in self.coeffs.items()})

    def subst_t_times_upow(self, d):
        """The substitution t -> u^d t: (i, j) -> (i + d*j, j), exact shape change."""
        if self.u_prec is not None and d < 0:
            raise WindowError("t-substitution with negative shift on an inexact series")
        # a nonnegative shift only improves per-degree exactness
        return TruncSeries2(self.u_prec, self.t_prec,
                            {(i + d * j, j): v for (i, j), v in self.coeffs.items()})

    # -- comparison -------------------------------------------------------------

    def truncate(self, u_prec, t_prec):
        """The series on a window no larger than the one it is known on.

        u_prec None keeps an exact series exact.  A finite window is a
        power-series window, so a negative u-exponent raises.
        """
        have = _INF if self.u_prec is None else self.u_prec
        want = _INF if u_prec is None else u_prec
        if want > have or t_prec > self.t_prec:
            raise WindowError("series known below (u^%s, t^%d), window wants (u^%s, t^%d)"
                              % (have, self.t_prec, want, t_prec))
        if u_prec is not None:
            neg = sorted(k for k in self.coeffs if k[0] < 0)
            if neg:
                raise WindowError("series has negative u-exponents, e.g. %s" % (neg[:5],))
        return TruncSeries2(u_prec, t_prec, self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        return (self.u_prec, self.t_prec, self.coeffs) == (other.u_prec, other.t_prec, other.coeffs)

    def agrees_with(self, other):
        """Compare on the window intersection.

        Returns (equal, (u_prec, t_prec), first_discrepancy_or_None).
        """
        up, tp = self._window(other)
        a, b = TruncSeries2(up, tp, self.coeffs), TruncSeries2(up, tp, other.coeffs)
        if a.coeffs == b.coeffs:
            return True, (up, tp), None
        diffs = sorted(k for k in set(a.coeffs) | set(b.coeffs)
                       if a.coeffs.get(k, 0) != b.coeffs.get(k, 0))
        return False, (up, tp), diffs[0]

    def t_coefficient(self, j):
        """The t^j coefficient as a dict {u-exponent: int}."""
        return {i: v for (i, jj), v in self.coeffs.items() if jj == j}

    def t_coefficient_poly(self, j):
        """The t^j coefficient as a pure-q LaurentPoly2 (u-exponent i -> q^-i)."""
        return LaurentPoly2({(-i, 0): v for i, v in self.t_coefficient(j).items()})

    def t_coefficient_orders(self):
        """Minimal u-order of each nonzero t-coefficient, as {j: order}."""
        orders = {}
        for (i, j) in self.coeffs:
            if j not in orders or i < orders[j]:
                orders[j] = i
        return orders

    # -- serialization -------------------------------------------------------

    def __str__(self):
        return grouped_text(self.coeffs, var="u")

    __repr__ = __str__

    def to_json_obj(self):
        return {
            "u_prec": self.u_prec,
            "t_prec": self.t_prec,
            "terms": [[i, j, str(v)] for (i, j), v in sorted(self.coeffs.items())],
        }

    @staticmethod
    def from_json_obj(obj):
        return TruncSeries2(obj["u_prec"], obj["t_prec"],
                            {(i, j): int(v) for i, j, v in obj["terms"]})


def _check_window(u_prec, t_prec):
    if (u_prec is not None and u_prec < 1) or t_prec < 1:
        raise WindowError("window must be at least 1x1")


# -- Pochhammer products and basic hypergeometric series -----------------------


def _times_binomial(cols, e, b, up, tp):
    """cols {j: {i: c}} times 1 - u^e t^b in place, on the window (u^up, t^tp).

    Each coefficient at (i, j) is subtracted at (i + e, j + b), the sources
    taken from the top down so that each is read before it is written.
    """
    if (e, b) == (0, 0):
        cols.clear()
        return
    for j in sorted(cols, reverse=True):
        if j + b < tp:
            src = cols[j]
            dst = cols.setdefault(j + b, {})
            for i in sorted(src, reverse=True):
                if up is None or i + e < up:
                    dst[i + e] = dst.get(i + e, 0) - src[i]


def _over_binomial(cols, e, b, up, tp):
    """cols {j: {i: c}} divided by 1 - u^e t^b in place, on the window (u^up, t^tp).

    Each finished coefficient at (i, j) is added at (i + e, j + b), from the
    bottom up: by t-columns when b >= 1, by u-exponents within each column
    when b = 0, which needs a finite u-window.
    """
    if b:
        for j in range(min(cols, default=tp) + b, tp):
            src = cols.get(j - b)
            if src:
                dst = cols.setdefault(j, {})
                for i, v in src.items():
                    if up is None or i + e < up:
                        dst[i + e] = dst.get(i + e, 0) + v
        return
    if e == 0:
        raise WindowError("division by the zero factor 1 - u^0")
    if up is None:
        raise WindowError("division by 1 - u^%d needs a finite u-window" % e)
    for j, col in cols.items():
        low = min(col, default=up)
        vals = [0] * (up - low)
        for i, v in col.items():
            vals[i - low] = v
        for x in range(e, len(vals)):
            vals[x] += vals[x - e]
        cols[j] = {low + x: v for x, v in enumerate(vals) if v}


def poch(a, b, u_prec, t_prec, n=None, step=1):
    """(u^a t^b; u^step)_n on the window; n None gives the infinite product.

    The product stops at the first factor whose monomial u^{a + k step} t^b
    lies outside the window: it and every later factor are 1 there.
    """
    return TruncSeries2.one(u_prec, t_prec).times_poch(a, b, n, step)


def phi_rs(r, s, upper, lower, z, u_prec, t_prec):
    """Basic hypergeometric series r_phi_s with base u, summed on the window.

    Parameters and the argument z are monomials u^a t^b given as (a, b) pairs
    with nonnegative entries (times_poch refuses others), or None for a zero
    parameter/argument.  Each term
    is ((-1)^k u^C(k,2))^(s+1-r) * prod (a_i;u)_k / ((u;u)_k prod (b_j;u)_k) * z^k;
    summation stops once the term's guaranteed (u,t)-order exits the window.
    """
    if len(upper) != r or len(lower) != s:
        raise ValueError("parameter lists must have lengths r and s")
    e = s + 1 - r
    if e < 0:
        raise WindowError("r > s+1 gives negative u-powers; not summable on a window")
    for mono in lower:
        if mono == (0, 0):
            raise WindowError("lower parameter 1 makes the denominator non-unit")
    if z is None:
        return TruncSeries2.one(u_prec, t_prec)
    zu, zt = z
    if zu < 0 or zt < 0:
        raise WindowError("argument must be a nonnegative monomial")
    if zu == 0 and zt == 0 and e == 0:
        raise WindowError("term order does not increase; series does not converge on a window")

    total = TruncSeries2(u_prec, t_prec)
    k = 0
    while True:
        u_lb = k * zu + e * (k * (k - 1) // 2)
        t_lb = k * zt
        if u_lb >= u_prec or (zt > 0 and t_lb >= t_prec):
            break
        if k > _PHI_MAX_TERMS:
            raise WindowError("hypergeometric summation exceeded %d terms" % _PHI_MAX_TERMS)
        sign = 1 if (k * e) % 2 == 0 else -1
        term = TruncSeries2.monomial(sign, e * (k * (k - 1) // 2) + k * zu, k * zt, u_prec, t_prec)
        for mono in upper:
            if mono is not None:
                term = term.times_poch(*mono, k)
        term = term.times_poch(1, 0, k, power=-1)
        for mono in lower:
            if mono is not None:
                term = term.times_poch(*mono, k, power=-1)
        total = total + term
        k += 1
    return total
