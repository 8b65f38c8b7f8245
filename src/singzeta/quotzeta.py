"""Closed-form Quot zeta numerators for the y^2 = x^n curve germs.

The cusp family is y^2 = x^(2m+1) (one branch), the node family y^2 = x^(2m)
(two branches).  NZ denotes the numerator of the rank-d Quot zeta function,
i.e. Z times (t;q)_d^s; it is a polynomial in Z[q,t].  The formulas sum Hall
polynomials over partitions in the d-by-m box:

    cusp, normalization:  sum_mu g_mu(q) (q^d t)^|mu|
    cusp, free:           the same with t -> t^2
    node, normalization:  sum_mu g_mu(q) (q^d t)^|mu| (1/q;1/q)_d/(1/q;1/q)_{d-mu'_1}
    node, free:           sum_{mu <= lam} g_lam(q) g^lam_mu(q) (t;q)^2_{d-lam'_m}
                              t^|lam| (q^d t)^{|lam|-|mu|}
                              (1/q;1/q)_{lam'_m}/(1/q;1/q)_{mu'_m}

with g_mu = hall_box(m,d,mu).  Everything is assembled division-free and
asserted to land in Z[q,t].

Every factor splits by column, so each sum is a walk over column states.
With c_i = mu'_i and c_0 = d, g_mu is q^{d|mu| - sum c_i^2} times the
q^-1-binomials [c_{i-1}, c_i] (hall_box's multinomial), so a one-index summand
is

    g_mu(q) (q^d t)^|mu| = prod_{i=1..m} [c_{i-1}, c_i]_{1/q} q^{2d c_i - c_i^2} t^{c_i},

and both normalization forms walk m columns over the states c in [0, d]
(hall.box_walk), the node multiplying in (1/q;1/q)_d/(1/q;1/q)_{d-c_1} at the
first column only.  The node's free two-index sum walks the states
(a, b) = (lam'_i, mu'_i) (hall.column_walk): g_lam is as above with c = a,
g^lam_mu is q^{sum b(a-b)} times hall_skew's binomials, and column i adds the
monomial q^{d(2a-b) - a^2 + b(a-b)} t^{2a-b}.  The walk keeps one value per
state (a, b), about d^2/2 of them, and with j = lam'_m and i = mu'_m its
values give

    s_j = sum_i [j, i]_{1/q} (1/q;1/q)_j/(1/q;1/q)_i (the walk's value at (j, i)),
    NZ  = sum_j s_j (t;q)^2_{d-j},

summed by Horner over j: acc = s_0, then acc = acc (1 - q^{d-j} t)^2 + s_j for
j = 1..d, so each step multiplies by one three-term factor and no (t;q)^2_{d-j}
is built.

The free node walk runs on a packed ring (Kronecker substitution over the
whole walk; Harvey, J. Symbolic Comput. 44, 2009).  A value is {f: x_f} and
a q-shift s, where x_f is q^s times the t^f coefficient, evaluated at
q = 2^w.  Evaluation at 2^w is a ring map, so every step is exact integer
arithmetic: a sum aligns the shifts and adds; a product by a pure-q binomial
is one int product per column; the column monomial q^e t^f renames the
columns and lowers s by e; a fold factor (1 - q^-k) is (x << wk) - x with s
raised by k; a Horner factor (1 - q^e t) subtracts column f - 1, shifted by
e lanes, from column f; the t_prec cut drops whole columns.  Each column is
decoded once, at the end, into balanced w-bit digits, and that gives NZ back
as soon as every coefficient of NZ lies strictly between -2^{w-1} and
2^{w-1}.  With w = m(2d+1) + 4d + 2 it does.  The L1 norm (the sum of the
absolute values of the coefficients) is submultiplicative, and [n r] has
norm C(n, r).  Summed over the states, one column step multiplies it by at
most 2^{2d+1}: from (a, b) the binomials [a - b2, a - b] over b2 <= b have
norm sum C(a+1, a-b+1) <= 2^{a+1}, the gaps [a, a2] over a2 have norm
sum C(a, a2) = 2^a, and a monomial has norm 1.  The fold multiplies the
state (j, i) by [j, i] (norm C(j, i) <= 2^j) and j - i factors (1 - q^-k)
(norm 2 each), so by at most 4^d; the Horner pass multiplies s_j by
(t;q)^2_{d-j}, of norm at most 4^{d-j}.  So |NZ|_1 <= 2^{m(2d+1) + 4d}
< 2^{w-1}.  Lanes are rounded up to whole bytes, so that decoding is one
pass over each column's bytes.  The normalization walks stay on
LaurentPoly2: packed, they measured no faster for m + d <= 7.

The bounded skew-Cauchy check (skew_cauchy_bounded_check, criterion 6) sums
both of its sides on hall's packed coefficients (x, e, b), one value per
t-column: (t;q)_n = sum_r (-1)^r q^{C(r,2)} [n r]_q t^r, so each column is a
sum of products of q-binomials (hall._binomial_product).  Each column of the
difference of the sides is tested for zero (hall._same) after its carried L1
bound is checked against the lanes; then every coefficient lies strictly
inside +-2^(W-1), balanced digits in that range are unique, and the int is 0
exactly when the polynomial is.  So a pass is exact and decodes nothing;
the first failing mu has both sides decoded, and a bound that does not fit
widens hall's lanes and reruns the whole check.
"""

from .laurent import (LaurentPoly2, ZERO, ONE, Q, QINV, T, qbinomial_qinv,
                      qpoch_qinv_ratio, lane_digits_into, _qbinomial_ints)
from . import hall
from .hall import box_walk, column_walk
from .partitions import iterate_box
from .report import VerificationReport, compare_report, first_discrepancy, require, timed
from .series import TruncSeries2


class SingularityFamily:
    """One of the two y^2 = x^n germ families, with its derived constants.

    s is the branching number, delta the Serre invariant, and c the conductor
    colength (summed over branches).
    """

    def __init__(self, kind, m):
        if kind not in ("cusp", "node"):
            raise ValueError("kind must be 'cusp' or 'node'")
        require(1, m=m)
        self.kind = kind
        self.m = m

    @property
    def s(self):
        return 1 if self.kind == "cusp" else 2

    @property
    def delta(self):
        return self.m

    @property
    def conductor_colength(self):
        # per-branch colength 2m in both presentations
        return 2 * self.m * self.s

    def degree_bound(self, d):
        return (2 * self.conductor_colength + self.s) * d

    def __str__(self):
        n = 2 * self.m + (1 if self.kind == "cusp" else 0)
        return "%s(m=%d, y^2=x^%d)" % (self.kind, self.m, n)

    __repr__ = __str__


_NZ_CACHE = {}


def nz_cusp_normalization(m, d):
    """NZ of the rank-d normalization module over the cusp germ."""
    key = ("cusp-norm", m, d)
    if key not in _NZ_CACHE:
        _NZ_CACHE[key] = _normalization_walk(m, d)
    return _NZ_CACHE[key]


def nz_cusp_free(m, d):
    """NZ of the free rank-d module over the cusp germ: the t -> t^2 image."""
    key = ("cusp-free", m, d)
    if key not in _NZ_CACHE:
        _NZ_CACHE[key] = nz_cusp_normalization(m, d).substitute(Q, T * T)
    return _NZ_CACHE[key]


def nz_node_normalization(m, d):
    """NZ of the rank-d normalization module over the node germ."""
    key = ("node-norm", m, d)
    if key not in _NZ_CACHE:
        _NZ_CACHE[key] = _normalization_walk(m, d, first=qpoch_qinv_ratio)
    return _NZ_CACHE[key]


def _normalization_walk(m, d, first=None):
    """sum_mu g_mu(q) (q^d t)^|mu| first(d, mu'_1) by the one-index column walk
    of the module docstring; first=None is the cusp's sum."""
    require(0, m=m, d=d)

    def column(v, i, c):
        v = v * LaurentPoly2.monomial(1, 2 * d * c - c * c, c)
        return v * first(d, c) if first and i == 1 else v

    states = box_walk(m, d, ONE, lambda v, c, c2: qbinomial_qinv(c, c2) * v, column)
    return _check_poly(sum(states.values(), ZERO))


def nz_node_free(m, d):
    """NZ of the free rank-d module over the node germ, by the column walk of
    the module docstring."""
    key = ("node-free", m, d)
    if key not in _NZ_CACHE:
        _NZ_CACHE[key] = _node_free_walk(m, d)
    return _NZ_CACHE[key]


def _node_free_walk(m, d, t_prec=None):
    """nz_node_free(m, d), less its terms at t^t_prec and up when t_prec is given.

    The walk runs on _Packed with lanes of _node_lane_bits(m, d) bits; the
    binomials [n r]_{1/q} are built once, by q-Pascal on ints, and serve as
    the walk's binomials, its gaps and the fold.  Each column callback and
    each Horner step drops the columns at t^t_prec and up.  That is exact
    below t^t_prec, because no factor has a negative t-exponent: the
    binomials and the fold are pure q, the column monomial is t^{2a-b} with
    b <= a, and the Horner factor is (1 - q^{d-j} t)^2, so a dropped term
    never comes back below t^t_prec.
    """
    require(0, d=d)
    w = _lanes(_node_lane_bits(m, d))
    # x = [n r]_q at 2^w is q^{r(n-r)} [n r]_{1/q}
    binoms = {(n, r): _Packed({0: x}, r * (n - r), w)
              for (n, r), x in _qbinomial_ints(d, w).items()}

    def column(v, a, b):
        return v.shifted(d * (2 * a - b) - a * a + b * (a - b), 2 * a - b, t_prec)

    states = column_walk(m, d, binoms[(0, 0)], binoms, lambda v, a, a2: binoms[(a, a2)] * v,
                         column)
    sums = {}
    for (j, i), v in states.items():
        v = (binoms[(j, i)] * v).times_qinv_poch(i, j)
        sums[j] = sums[j] + v if j in sums else v
    total = sums.get(0, _Packed({}, 0, w))
    for j in range(1, d + 1):
        total = total.times_one_minus(d - j, 1, t_prec).times_one_minus(d - j, 1, t_prec)
        if j in sums:
            total = total + sums[j]
    return _check_poly(total.decode())


def _node_lane_bits(m, d):
    """The lane width w = m(2d+1) + 4d + 2 of the free node walk: every
    coefficient of nz_node_free(m, d) lies below 2^{w-1} in absolute value
    (proof in the module docstring)."""
    return m * (2 * d + 1) + 4 * d + 2


def _lanes(bits):
    """bits rounded up to whole bytes."""
    return -(-bits // 8) * 8


class _Packed:
    """An element of Z[q^{+-1}, t] as {f: x_f} and a q-shift s: x_f is q^s
    times the t^f coefficient evaluated at q = 2^w, w a multiple of 8.  The
    operations are those the free node walk, the (2,2)-link closed form and
    the Cohen-Lenstra numerators and full series need; see the module
    docstring.  No column holds 0.

    With a u-window (clzeta's numerators) the variable q is u, s stays 0,
    and window is 2^{wU} - 1 for the window u^U: every value is kept only
    modulo 2^{wU}, as x & window.  Evaluation at u = 2^w maps Z[u]/(u^U) to
    Z/2^{wU} as a ring map, so every step stays exact there, and digits reads
    back each coefficient below u^U from the residue centred at 0 as long as
    the coefficients of the final value lie in [-2^{w-1}, 2^{w-1}).
    """

    __slots__ = ("cols", "s", "w", "window")

    def __init__(self, cols, s, w, window=None):
        self.cols = cols
        self.s = s
        self.w = w
        self.window = window

    @staticmethod
    def on_window(u_prec, w):
        """The 1 of the ring modulo u^u_prec, in lanes of w bits."""
        return _Packed({0: 1}, 0, w, (1 << w * u_prec) - 1)

    def _new(self, cols, s):
        """A value of self's ring from freshly built columns, less those that
        are 0; on a window, each is first reduced modulo 2^{wU}."""
        mask = self.window
        if mask is None:
            return _Packed({f: x for f, x in cols.items() if x}, s, self.w)
        return _Packed({f: y for f, x in cols.items() if (y := x & mask)}, s, self.w, mask)

    def with_lanes(self, x):
        """The pure-q value whose lanes are the int x, in self's ring."""
        return self._new({0: x}, 0)

    def __bool__(self):
        return bool(self.cols)

    def __neg__(self):
        return _Packed({f: -x for f, x in self.cols.items()}, self.s, self.w, self.window)

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
        return _Packed(out, self.s, self.w, self.window)

    def __mul__(self, other):
        """self * other, for self a monomial in t (one column); one int product
        per column of other."""
        ((f, x),) = self.cols.items()
        mask = self.window
        if mask is None:
            return _Packed({f + g: x * y for g, y in other.cols.items()}, self.s + other.s, self.w)
        return _Packed({f + g: z for g, y in other.cols.items() if (z := x * y & mask)},
                       0, self.w, mask)

    def shifted(self, e, f, t_prec=None):
        """self * q^e t^f, less its columns at t^t_prec and up.  Off a window
        the shift s drops by e; on one, each column moves up e lanes."""
        mask = self.window
        if mask is None:
            return _Packed({g + f: x for g, x in self.cols.items()
                            if t_prec is None or g + f < t_prec}, self.s - e, self.w)
        shift = self.w * e
        return _Packed({g + f: y for g, x in self.cols.items()
                        if (t_prec is None or g + f < t_prec) and (y := x << shift & mask)},
                       0, self.w, mask)

    def times_qinv_poch(self, i, j):
        """self * (1 - q^-(i+1)) ... (1 - q^-j)."""
        cols, s = self.cols, self.s
        for k in range(i + 1, j + 1):
            shift = self.w * k
            cols = {f: (x << shift) - x for f, x in cols.items()}
            s += k
        return _Packed(cols, s, self.w)

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
        balanced w-bit digits (laurent.lane_digits_into); on a window, off the
        residue centred at 0."""
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


def _check_poly(p):
    if not p.is_polynomial():
        raise AssertionError("numerator left Z[q,t]")
    return p


def nz(family, d, module="free"):
    """Dispatch to the four closed forms."""
    if module not in ("free", "normalization"):
        raise ValueError("module must be 'free' or 'normalization'")
    if family.kind == "cusp":
        return nz_cusp_free(family.m, d) if module == "free" else nz_cusp_normalization(family.m, d)
    return nz_node_free(family.m, d) if module == "free" else nz_node_normalization(family.m, d)


# -- full zeta function ------------------------------------------------------


def full_z(nz_poly, s, d, t_prec):
    """Z = NZ / (t;q)_d^s as a t-series with pure-q polynomial coefficients.

    Returns the list of t^0..t^(t_prec-1) coefficients, each a pure-q
    LaurentPoly2.  Each is a point count, so it must be a polynomial in q with
    nonnegative coefficients; asserted.  The division runs on a finite window
    in q, with q in the place of u.  For d >= 1 the t^n coefficient of
    1/(t;q)_d^s has q-degree at most n(d - 1).  So with top the highest
    q-exponent of NZ below t^t_prec, every coefficient lies below
    q^(top + (t_prec - 1)(d - 1) + 1), read as q^(top + 1) at d = 0.
    """
    require(0, d=d)
    require(1, t_prec=t_prec)
    nz_poly = nz_poly.below_t(t_prec)
    top = max((a for a, _ in nz_poly.terms), default=0)
    window = top + (t_prec - 1) * max(d - 1, 0) + 1
    z = TruncSeries2.from_laurent(nz_poly.substitute(QINV, T), window, t_prec)
    z = z.times_poch(0, 1, d, power=-s)
    if any(v < 0 for v in z.coeffs.values()):
        raise AssertionError("Quot coefficient is not a point-count polynomial")
    return [LaurentPoly2({(a, 0): v for a, v in z.t_coefficient(j).items()})
            for j in range(t_prec)]


# -- verification operations ---------------------------------------------------


def funceq_report(nz_poly, family, d, label=""):
    """Functional equation NZ(t) = (q^{d^2} t^{2d})^delta NZ(q^-d t^-1), exactly."""
    delta = family.delta
    flipped = nz_poly.substitute(Q, LaurentPoly2.monomial(1, -d, -1))
    rhs = LaurentPoly2.monomial(1, d * d * delta, 2 * d * delta) * flipped
    return compare_report("funceq", {"family": family.kind, "m": family.m, "d": d,
                                     "which": label or "free"},
                          nz_poly, rhs)


def funceq_check(family, d):
    return funceq_report(nz(family, d, "free"), family, d)


def specialize(nz_poly, mode):
    """Exact specialization at t=1 (mode 't_eq_1') or q=1 (mode 'lambda_eq_1')."""
    if mode == "t_eq_1":
        return nz_poly.substitute(Q, ONE)
    if mode == "lambda_eq_1":
        return nz_poly.substitute(ONE, T)
    raise ValueError("mode must be 't_eq_1' or 'lambda_eq_1'")


def specialization_report(family, d):
    """t=1 and q=1 values against their closed forms.

    t=1: both node numerators equal q^{m d^2}; the cusp value is m-independent
    of the module only through the t->t^2 squaring, so only its q=1 form is
    pinned: (sum_{i<=m} t^{2i})^d for the cusp, (sum_{i<=2m} (-t)^i)^d for the
    node.
    """
    m = family.m
    checks = []
    if family.kind == "node":
        target = LaurentPoly2.monomial(1, m * d * d, 0)
        for module in ("free", "normalization"):
            got = specialize(nz(family, d, module), "t_eq_1")
            checks.append((("t=1", module), got, target))
        one_sum = sum((LaurentPoly2.monomial((-1) ** i, 0, i) for i in range(2 * m + 1)), ZERO)
        checks.append((("q=1", "free"), specialize(nz(family, d, "free"), "lambda_eq_1"),
                       one_sum ** d))
    else:
        one_sum = sum((LaurentPoly2.monomial(1, 0, 2 * i) for i in range(m + 1)), ZERO)
        checks.append((("q=1", "free"), specialize(nz(family, d, "free"), "lambda_eq_1"),
                       one_sum ** d))
    with timed() as tm:
        first_bad = None
        for tag, got, want in checks:
            if got != want:
                first_bad = (tag, got, want)
                break
    if first_bad is None:
        return VerificationReport("special", {"family": family.kind, "m": m, "d": d},
                                  "pass", wall_time=tm.elapsed,
                                  detail="%d specializations" % len(checks))
    tag, got, want = first_bad
    return VerificationReport("special", {"family": family.kind, "m": m, "d": d},
                              "fail", lhs=str(got), rhs=str(want),
                              discrepancy=first_discrepancy(got, want),
                              wall_time=tm.elapsed, detail="at %s/%s" % tag)


def skew_cauchy_bounded_check(m, d):
    """Bounded skew-Cauchy identity, for every mu in the d-by-m box:

    sum_{lam: mu <= lam <= (m^d)} g_lam(q) g^lam_mu(q) t^|lam| (t;q)_{d-lam'_m}
        = g_mu(q) t^|mu|.
    """
    SingularityFamily("node", m)  # rejects m < 1
    with timed() as tm:
        bad = hall._widened(_skew_cauchy_mismatch, m, d)
    if bad is None:
        return VerificationReport("squaring", {"m": m, "d": d}, "pass", wall_time=tm.elapsed)
    mu, lhs, rhs = bad
    return VerificationReport("squaring", {"m": m, "d": d, "mu": str(mu)},
                              "fail", lhs=str(lhs), rhs=str(rhs),
                              discrepancy=first_discrepancy(lhs, rhs), wall_time=tm.elapsed)


def _skew_cauchy_mismatch(m, d):
    """The first mu whose two sides differ, with both sides decoded, or None.

    Both sides are packed, one value per t-column (see the module
    docstring): the t^f column of the left side sums
    g^lam_mu g_lam (-1)^r q^{C(r,2)} [n r]_q over lam and r with
    |lam| + r = f, n = d - lam'_m.
    """
    weights = []  # (lam, g_lam, {f: t^f column of g_lam t^|lam| (t;q)_{d-lam'_m}})
    for lam in iterate_box(m, d):
        g, n = hall._box_packed(m, d, lam), d - lam.conj_part(m)
        cols = {}
        for r in range(n + 1):
            # [n r]_q is q^{r(n-r)} [n r]_{1/q}
            x, e, b = hall._mul(g, hall._binomial_product(r * (r - 1) // 2 + r * (n - r),
                                                          [(n, r)]))
            cols[lam.size() + r] = (-x if r % 2 else x, e, b)
        weights.append((lam, g, cols))
    zero = hall._PACKED_ZERO
    for mu, g_mu, _ in weights:
        lhs = {}
        for lam, _, cols in weights:
            if lam.contains(mu):
                skew = hall._skew_packed(lam, mu)
                for f, v in cols.items():
                    hall._add_into(lhs, f, hall._mul(v, skew))
        rhs = {mu.size(): g_mu}
        if not all(hall._same(lhs.get(f, zero), rhs.get(f, zero))
                   for f in lhs.keys() | rhs.keys()):
            return mu, hall._decode_columns(lhs), hall._decode_columns(rhs)
    return None


def cusp_t2_check(m, d):
    """Thm-level identity: free cusp numerator is the normalization one at t^2.
    nz_cusp_free is defined by this substitution, so the check restates it."""
    SingularityFamily("cusp", m)  # rejects m < 1
    lhs = nz_cusp_free(m, d)
    rhs = nz_cusp_normalization(m, d).substitute(Q, T * T)
    return compare_report("t2", {"m": m, "d": d}, lhs, rhs)


def node22_closed_form(d):
    """(2,2)-link closed form sum_r (-1)^r q^C(r,2) t^r [d r]_q (t q^{d-r+1}; q)_r.

    Summed on the packed ring of the free node walk: [d r]_q is one int and
    each factor of the Pochhammer symbol one pass over the t-columns.  The
    sum has L1 norm at most sum_r C(d, r) 2^r = 3^d < 2^{2d+1}, so lanes of
    2d + 2 bits hold every coefficient.
    """
    require(0, d=d)
    w = _lanes(2 * d + 2)
    binoms = _qbinomial_ints(d, w)
    total = _Packed({}, 0, w)
    for r in range(d + 1):
        term = _Packed({0: binoms[(d, r)]}, 0, w).shifted(r * (r - 1) // 2, r)
        for k in range(d - r + 1, d + 1):
            term = term.times_one_minus(k, 1)
        total = total + (-term if r % 2 else term)
    return total.decode()


def node22_check(d):
    return compare_report("node22", {"d": d}, node22_closed_form(d), nz_node_free(1, d))


def m_limit_closed_form(kind, d, q_prec, t_prec):
    """The m -> infinity limit series in Z[[q,t]].

    node: (t;q)_d / (q^d t^2;q)_d;  cusp: 1 / (q^d t^2;q)_d.
    """
    SingularityFamily(kind, 1)  # rejects an unknown kind
    num = TruncSeries2.one(q_prec, t_prec)
    if kind == "node":
        num = num.times_poch(0, 1, d)
    return num.times_poch(d, 2, d, power=-1)


def m_limit_check(kind, d, q_prec, t_prec, m_cap=12):
    """Stabilization of nz_*_free in m, and match with the closed-form limit."""
    require(0, d=d)
    require(1, q_prec=q_prec, t_prec=t_prec)
    free = nz_node_free if kind == "node" else nz_cusp_free
    target = m_limit_closed_form(kind, d, q_prec, t_prec)
    with timed() as tm:
        stable_at = None
        for m in range(1, m_cap):
            a = TruncSeries2.from_laurent(free(m, d).substitute(QINV, T), q_prec, t_prec)
            b = TruncSeries2.from_laurent(free(m + 1, d).substitute(QINV, T), q_prec, t_prec)
            if a == b:
                stable_at = m
                break
        if stable_at is None:
            return VerificationReport("mlimit", {"kind": kind, "d": d},
                                      "fail", discrepancy=(q_prec, t_prec),
                                      wall_time=tm.elapsed,
                                      detail="no stabilization up to m=%d" % m_cap)
        equal, window, disc = a.agrees_with(target)
    status = "pass" if equal else "fail"
    return VerificationReport("mlimit",
                              {"kind": kind, "d": d, "window": window},
                              status, lhs=str(a), rhs=str(target),
                              discrepancy=disc, wall_time=tm.elapsed,
                              detail="stable from m=%d" % stable_at)


def positivity_scan(family, m, d):
    """Diagnostic: coefficients of NZ_free(-t) should be nonnegative."""
    with timed() as tm:
        fam = SingularityFamily(family, m) if isinstance(family, str) else family
        flipped = nz(fam, d, "free").substitute(Q, -T)
        bad = sorted(k for k, v in flipped.terms.items() if v < 0)
    if bad:
        return VerificationReport("positivity", {"family": fam.kind, "m": fam.m, "d": d},
                                  "reported", lhs=str(flipped),
                                  discrepancy=bad[0], wall_time=tm.elapsed,
                                  detail="negative coefficients at %s" % (bad[:5],))
    return VerificationReport("positivity", {"family": fam.kind, "m": fam.m, "d": d},
                              "pass", wall_time=tm.elapsed)
