"""The packed ring: polynomials in q and t on ints, one int per t-column.

A value of Z[q^{+-1}, t] is {f: x_f} and a q-shift s, where x_f is q^s times
the t^f coefficient, evaluated at q = 2^w (Kronecker substitution over a
whole computation; Harvey, J. Symbolic Comput. 44, 2009).  Evaluation at 2^w
is a ring map, so every step is exact integer arithmetic whatever the lanes:
a sum aligns the shifts and adds; a product by a pure-q value is one int
product per column; q^e t^f renames the columns and lowers s by e; a factor
1 - q^e t^b subtracts column f, e lanes up, from column f + b, and 1 + q^e
adds each column e lanes up to itself; a t_prec cut drops whole columns.

With a u-window (clzeta's numerators) the variable q is u, s stays 0, and
every column is kept modulo 2^{wU} for the window u^U: evaluation at 2^w maps
Z[u]/(u^U) onto Z/2^{wU} as a ring map, so every step stays exact there.

Decoding reads each column once as balanced w-bit digits, on a window from
its residue centred at 0.  Balanced digits in [-2^{w-1}, 2^{w-1}) are unique,
so the decode gives the value back as soon as every coefficient lies in that
range, and it does when the L1 norm (the sum of the absolute values of the
coefficients) is below 2^{w-1}.  Only the decoded value needs the bound.  The
L1 norm is subadditive and submultiplicative, on a window too, [n r] has norm
C(n, r), a monomial norm 1, and 1 - q^e t^b and 1 + q^e norm 2.  So a walk
bounds the norm of its result by running itself on ints, each factor
replaced by its norm, a run that may be evaluated in closed form; its lanes
have one bit more than the bound, rounded up to whole bytes, so that decoding
is one pass over each column's bytes.  lane_width, which takes the bound, is
the one place that rule is written.
"""

from .laurent import LaurentPoly2


def lane_width(bound):
    """The lane bits for values of L1 norm at most bound: one bit more than
    bound's bit length, rounded up to whole bytes."""
    return -(-(bound.bit_length() + 1) // 8) * 8


def qbinomial_ints(top, w):
    """{(n, r): [n r]_q at q = 2^w} for 0 <= r <= n <= top, by q-Pascal on ints,
    [n r] = [n-1 r-1] + q^r [n-1 r]; each lane holds one coefficient while
    2^w > C(n, r), their largest."""
    table = {}
    for n in range(top + 1):
        table[(n, 0)] = table[(n, n)] = 1
        for r in range(1, n):
            table[(n, r)] = table[(n - 1, r - 1)] + (table[(n - 1, r)] << w * r)
    return table


def lane_digits_into(terms, x, w, e, f):
    """Write the nonzero balanced w-bit digits of the int x != 0 into the
    dict terms: terms[(e + i, f)] = c for x = sum c 2^{w i}, every c in
    [-2^{w-1}, 2^{w-1}); w is a multiple of 8.  One pass over x's bytes from
    its lowest nonzero lane up: half added to every lane turns each balanced
    digit into a plain one."""
    nb, half = w // 8, 1 << (w - 1)
    low = ((x & -x).bit_length() - 1) // w
    x >>= w * low
    lanes = x.bit_length() // w + 1
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * lanes, "little")
    buf = (x + bias).to_bytes(nb * lanes, "little")
    e += low
    for i in range(lanes):
        c = int.from_bytes(buf[nb * i:nb * i + nb], "little") - half
        if c:
            terms[(e + i, f)] = c


class Packed:
    """An element of Z[q^{+-1}, t] as {f: x_f} and a q-shift s, in lanes of w
    bits, w a multiple of 8; with window = 2^{wU} - 1, an element of
    Z[u]/(u^U)[t] with s = 0, each column kept as x & window (module
    docstring).  No column holds 0."""

    __slots__ = ("cols", "s", "w", "window")

    def __init__(self, cols, s, w, window=None):
        self.cols = cols
        self.s = s
        self.w = w
        self.window = window

    @staticmethod
    def on_window(u_prec, w):
        """The 1 of the ring modulo u^u_prec, in lanes of w bits."""
        return Packed({0: 1}, 0, w, (1 << w * u_prec) - 1)

    def _new(self, cols, s):
        """A value of self's ring from freshly built columns, less those that
        are 0; on a window, each is first reduced modulo 2^{wU}."""
        mask = self.window
        if mask is None:
            return Packed({f: x for f, x in cols.items() if x}, s, self.w)
        return Packed({f: y for f, x in cols.items() if (y := x & mask)}, s, self.w, mask)

    def with_lanes(self, x):
        """The pure-q value whose lanes are the int x, in self's ring."""
        return self._new({0: x}, 0)

    def __bool__(self):
        return bool(self.cols)

    def __neg__(self):
        return Packed({f: -x for f, x in self.cols.items()}, self.s, self.w, self.window)

    def __add__(self, other):
        if not other.cols:
            return self
        if not self.cols:
            return other
        if self.s < other.s:
            self, other = other, self
        shift = self.w * (self.s - other.s)
        out = dict(self.cols)
        for f, y in other.cols.items():
            x = out.get(f, 0) + (y << shift)
            if x:
                out[f] = x
            else:
                del out[f]
        return Packed(out, self.s, self.w, self.window)

    def __mul__(self, other):
        """self * other, for self a monomial in t (one column); one int product
        per column of other."""
        ((f, x),) = self.cols.items()
        mask = self.window
        if mask is None:
            return Packed({f + g: x * y for g, y in other.cols.items()}, self.s + other.s, self.w)
        return Packed({f + g: z for g, y in other.cols.items() if (z := x * y & mask)},
                      0, self.w, mask)

    def shifted(self, e, f, t_prec=None):
        """self * q^e t^f, less its columns at t^t_prec and up.  Off a window
        the shift s drops by e; on one, each column moves up e lanes."""
        mask = self.window
        if mask is None:
            return Packed({g + f: x for g, x in self.cols.items()
                           if t_prec is None or g + f < t_prec}, self.s - e, self.w)
        shift = self.w * e
        return Packed({g + f: y for g, x in self.cols.items()
                       if (t_prec is None or g + f < t_prec) and (y := x << shift & mask)},
                      0, self.w, mask)

    def times_qinv_poch(self, i, j):
        """self * (1 - q^-(i+1)) ... (1 - q^-j), off a window."""
        cols, s = self.cols, self.s
        for k in range(i + 1, j + 1):
            shift = self.w * k
            cols = {f: (x << shift) - x for f, x in cols.items()}
            s += k
        return Packed(cols, s, self.w)

    def times_one_plus(self, e):
        """self * (1 + q^e) for e >= 0."""
        shift = self.w * e
        return self._new({f: x + (x << shift) for f, x in self.cols.items()}, self.s)

    def times_one_minus(self, e, b, t_prec=None):
        """self * (1 - q^e t^b) for e >= 0 and b in {0, 1}, less its columns at
        t^t_prec and up: column f + b less column f, e lanes up.  On a window
        only a column's lanes below u^(U-e) are shifted, as the rest lie past
        u^U once e lanes up; a column with none is skipped."""
        shift = self.w * e
        keep = None if self.window is None else self.window >> shift
        out = dict(self.cols)
        for f, x in self.cols.items():
            if t_prec is None or f + b < t_prec:
                if keep is not None:
                    x &= keep
                if x:
                    out[f + b] = out.get(f + b, 0) - (x << shift)
        return self._new(out, self.s)

    def over_one_minus(self, steps, t_prec):
        """self / prod (1 - u^e t) over the e >= 1 in steps, on a window, one
        column-division step per e: from the lowest column up to t^t_prec,
        column f gains column f - 1 (already divided), e lanes up.  The
        inverse of times_one_minus(e, 1, t_prec), skipping as it does."""
        w, mask = self.w, self.window
        cols = dict(self.cols)
        low = min(cols, default=t_prec)
        for e in steps:
            shift, keep = w * e, mask >> w * e
            prev = cols.get(low, 0)
            for f in range(low + 1, t_prec):
                x = cols.get(f, 0)
                if prev := prev & keep:
                    x = cols[f] = (x + (prev << shift)) & mask
                prev = x
        return self._new(cols, 0)

    def digits(self):
        """{(q-exponent, t-exponent): coefficient}, read off each column's
        balanced w-bit digits; on a window, off the residue centred at 0."""
        mask = self.window
        terms = {}
        for f, x in self.cols.items():
            if mask is not None:
                x = ((x + (mask >> 1) + 1) & mask) - (mask >> 1) - 1
                if not x:
                    continue
            lane_digits_into(terms, x, self.w, -self.s, f)
        return terms

    def decode(self):
        """The LaurentPoly2 of self's digits."""
        return LaurentPoly2._adopt(self.digits())
