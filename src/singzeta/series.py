"""Truncated bivariate power series in (u, t), u = 1/q, and q-series primitives.

TruncSeries2 is the one series type: a power series in u and t whose
coefficients are exact below u^u_prec and t^t_prec, on a finite window with
no negative exponent.  Exact (q, t) arithmetic lives in LaurentPoly2; a
value enters a window through from_laurent where it first needs a division.
The type adds, compares and renders; a sum and a comparison of mismatched
windows use the intersection.

TruncSeries2.times_poch multiplies or divides a series by the Pochhammer
product (u^a t^b; u^step)_n, finite or infinite, in one linear pass per
factor 1 - u^e t^b.  It is the type's only product and only division: no two
series are multiplied, and clzeta's walks divide on their packed ring.
"""

from .laurent import grouped_text
from .report import first_discrepancy


class WindowError(ValueError):
    """Raised when a value cannot be represented on the requested window."""


class TruncSeries2:
    """A power series in (u, t), exact below (u^u_prec, t^t_prec).

    Coefficients live on 0 <= i < u_prec, 0 <= j < t_prec; a negative
    exponent is refused with WindowError.
    """

    __slots__ = ("u_prec", "t_prec", "coeffs")

    def __init__(self, u_prec, t_prec, coeffs=None):
        _check_window(u_prec, t_prec)
        self.u_prec = u_prec
        self.t_prec = t_prec
        c = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                if v and (i < 0 or j < 0):
                    raise WindowError("negative exponent at %s on a window" % ((i, j),))
                if v and j < t_prec and i < u_prec:
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
    def from_laurent(p, u_prec, t_prec):
        """A LaurentPoly2 on the window; q-exponent a maps to u-exponent -a.

        A positive q-exponent or a negative t-exponent raises WindowError.  A
        series in q, such as the m -> infinity limits in Z[[q, t]], enters as
        p.substitute(QINV, T).
        """
        return TruncSeries2(u_prec, t_prec, {(-a, b): c for (a, b), c in p.terms.items()})

    # -- arithmetic ------------------------------------------------------------

    def _window(self, other):
        return min(self.u_prec, other.u_prec), min(self.t_prec, other.t_prec)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        up, tp = self._window(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        if (self.u_prec, self.t_prec) == (other.u_prec, other.t_prec):
            return TruncSeries2._adopt(up, tp, out)
        return TruncSeries2(up, tp, out)

    def times_poch(self, a, b, n=None, step=1, power=1):
        """This series times (u^a t^b; u^step)_n ** power, exactly.

        Each factor 1 - u^e t^b takes |power| linear passes over the
        coefficients (_times_binomial, _over_binomial).  n None gives the
        infinite product, which needs a nonconstant argument.  A factor whose
        monomial lies outside the window is 1 there, and the window is the
        series' own.
        """
        if a < 0 or b < 0 or step < 1:
            raise WindowError("pochhammer needs a nonnegative monomial and a positive step")
        if n is None and (a, b) == (0, 0):
            raise WindowError("an infinite pochhammer product needs a nonconstant argument")
        up, tp = self.u_prec, self.t_prec
        cols = {}
        for (i, j), v in self.coeffs.items():
            cols.setdefault(j, {})[i] = v
        k = 0
        while (n is None or k < n) and b < tp and a + k * step < up:
            e = a + k * step
            for _ in range(abs(power)):
                (_times_binomial if power > 0 else _over_binomial)(cols, e, b, up, tp)
            k += 1
        return TruncSeries2._adopt(up, tp, {(i, j): v for j, col in cols.items()
                                            for i, v in col.items()})

    # -- comparison -------------------------------------------------------------

    def truncate(self, u_prec, t_prec):
        """The series on a window no larger than the one it is known on."""
        _check_window(u_prec, t_prec)
        if u_prec > self.u_prec or t_prec > self.t_prec:
            raise WindowError("series known below (u^%d, t^%d), window wants (u^%d, t^%d)"
                              % (self.u_prec, self.t_prec, u_prec, t_prec))
        return TruncSeries2._adopt(u_prec, t_prec, {
            (i, j): v for (i, j), v in self.coeffs.items() if i < u_prec and j < t_prec})

    def __eq__(self, other):
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        return (self.u_prec, self.t_prec, self.coeffs) == (other.u_prec, other.t_prec, other.coeffs)

    def agrees_with(self, other):
        """Compare on the window intersection.

        Returns (equal, (u_prec, t_prec), first_discrepancy_or_None).
        """
        up, tp = self._window(other)
        a, b = self.truncate(up, tp), other.truncate(up, tp)
        if a == b:
            return True, (up, tp), None
        return False, (up, tp), first_discrepancy(a, b)

    def t_coefficient(self, j):
        """The t^j coefficient as a dict {u-exponent: int}."""
        return {i: v for (i, jj), v in self.coeffs.items() if jj == j}

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


def _check_window(u_prec, t_prec):
    if u_prec is None or t_prec is None or u_prec < 1 or t_prec < 1:
        raise WindowError("window must be at least 1x1")


# -- Pochhammer products --------------------------------------------------------


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
                if i + e < up:
                    dst[i + e] = dst.get(i + e, 0) - src[i]


def _over_binomial(cols, e, b, up, tp):
    """cols {j: {i: c}} divided by 1 - u^e t^b in place, on the window (u^up, t^tp).

    Each finished coefficient at (i, j) is added at (i + e, j + b), from the
    bottom up: by t-columns when b >= 1, by u-exponents within each column
    when b = 0.
    """
    if b:
        for j in range(min(cols, default=tp) + b, tp):
            src = cols.get(j - b)
            if src:
                dst = cols.setdefault(j, {})
                for i, v in src.items():
                    if i + e < up:
                        dst[i + e] = dst.get(i + e, 0) + v
        return
    if e == 0:
        raise WindowError("division by the zero factor 1 - u^0")
    for j, col in cols.items():
        low = min(col, default=up)
        vals = [0] * (up - low)
        for i, v in col.items():
            vals[i - low] = v
        for x in range(e, len(vals)):
            vals[x] += vals[x - e]
        cols[j] = {low + x: v for x, v in enumerate(vals) if v}

