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

and both normalization forms walk m columns over the states (c, 0), c in
[0, d] (hall.column_walk started at (d, 0)), the node multiplying in
(1/q;1/q)_d/(1/q;1/q)_{d-c_1} at the first column only.  The node's free
two-index sum walks the states (a, b) = (lam'_i, mu'_i) from (d, d): g_lam is
as above with c = a, g^lam_mu is q^{sum b(a-b)} times hall_skew's binomials,
and column i adds the monomial q^{d(2a-b) - a^2 + b(a-b)} t^{2a-b}.  The
walk keeps one value per state (a, b), about d^2/2 of them, and with
j = lam'_m and i = mu'_m its values give

    s_j = sum_i [j, i]_{1/q} (1/q;1/q)_j/(1/q;1/q)_i (the walk's value at (j, i)),
    NZ  = sum_j s_j (t;q)^2_{d-j},

summed by Horner over j: acc = s_0, then acc = acc (1 - q^{d-j} t)^2 + s_j for
j = 1..d, so each step multiplies by one three-term factor and no (t;q)^2_{d-j}
is built.

All three walks run on the packed ring of singzeta.packed, one int per
t-column, with one table of binomials [n r]_{1/q} (_binomials) for their
gaps and the free walk's folds; a factor (1 - q^-k) is (x << wk) - x with
the q-shift raised by k.  Their lanes follow the packed ring's rule: the
walk run on L1 norms, [n r] becoming C(n, r), a column monomial keeping the
norm, (1/q;1/q)_d/(1/q;1/q)_{d-c} multiplying it by 2^c, the fold by
C(j, i) 2^{j-i} and each Horner step by 4, the norm of (1 - q^{d-j} t)^2.
That run factors over the d rows of the box, so it has a closed form.  At
q = 1, g_lam(1) counts the tuples of row lengths l_r in [0, m] of type lam,
and g^lam_mu(1) the sub-lengths k_r <= l_r of type mu.  So each sum is the
product over the rows of one row's sum: m + 1 for the cusp's normalization;
1 + 2m for the node's, as a row of length >= 1 is counted by mu'_1 and
doubles; and for the free node sum_{l<m} 4(l+1) over the rows below length m
(each a Horner step) plus 2m + 1 for a full row (k < m doubling in the fold,
or k = m):

    cusp normalization (m+1)^d,  node normalization (2m+1)^d,
    node free (2m^2+4m+1)^d,

each the L1 walk's value exactly, which each walk passes to lane_width.
"""

from functools import cache

from .laurent import LaurentPoly2, ZERO, ONE, Q, QINV, T
from .hall import column_walk, skew_cauchy_mismatch
from .packed import Packed, lane_width, qbinomial_ints
from .report import VerificationReport, compare_report, first_discrepancy, require, timed
from .series import TruncSeries2


class SingularityFamily:
    """One of the two y^2 = x^n germ families, with its derived constants.

    s is the branching number and delta the Serre invariant.
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

    def __str__(self):
        n = 2 * self.m + (1 if self.kind == "cusp" else 0)
        return "%s(m=%d, y^2=x^%d)" % (self.kind, self.m, n)

    __repr__ = __str__


@cache
def nz_cusp_normalization(m, d):
    """NZ of the rank-d normalization module over the cusp germ."""
    return _normalization_walk(m, d)


@cache
def nz_cusp_free(m, d):
    """NZ of the free rank-d module over the cusp germ: the t -> t^2 image."""
    return nz_cusp_normalization(m, d).substitute(Q, T * T)


@cache
def nz_node_normalization(m, d):
    """NZ of the rank-d normalization module over the node germ."""
    return _normalization_walk(m, d, node=True)


def _normalization_walk(m, d, node=False):
    """sum_mu g_mu(q) (q^d t)^|mu|, times (1/q;1/q)_d/(1/q;1/q)_{d-mu'_1} for
    the node, by the one-index column walk of the module docstring, on Packed
    with lanes for the L1 bound (m+1)^d, or (2m+1)^d for the node."""
    require(0, m=m, d=d)
    binoms = _binomials(d, (2 * m + 1 if node else m + 1) ** d)

    def column(i, v, c, _):
        v = v.shifted(2 * d * c - c * c, c)
        return v.times_qinv_poch(d - c, d) if node and i == 1 else v

    one = binoms[(0, 0)]
    states = column_walk(m, (d, 0), one, None, lambda v, c, c2: binoms[(c, c2)] * v, column)
    return _check_poly(sum(states.values(), Packed({}, 0, one.w)).decode())


@cache
def nz_node_free(m, d):
    """NZ of the free rank-d module over the node germ, by the column walk of
    the module docstring."""
    return _node_free_walk(m, d)


def _node_free_walk(m, d, t_prec=None):
    """nz_node_free(m, d), less its terms at t^t_prec and up when t_prec is given.

    The walk runs on Packed with lanes for the L1 bound (2m^2+4m+1)^d; the
    binomials [n r]_{1/q} are built once, by q-Pascal on ints.  Each column
    callback and each Horner step drops the columns at t^t_prec and up.  That
    is exact below t^t_prec, because no factor has a negative t-exponent: the
    binomials and the fold are pure q, the column monomial is t^{2a-b} with
    b <= a, and the Horner factor is (1 - q^{d-j} t)^2, so a dropped term
    never comes back below t^t_prec.
    """
    require(0, m=m, d=d)
    binoms = _binomials(d, (2 * m * m + 4 * m + 1) ** d)

    def column(i, v, a, b):
        return v.shifted(d * (2 * a - b) - a * a + b * (a - b), 2 * a - b, t_prec)

    states = column_walk(m, (d, d), binoms[(0, 0)], binoms,
                         lambda v, a, a2: binoms[(a, a2)] * v, column)
    sums = {}
    for (j, i), v in states.items():
        v = (binoms[(j, i)] * v).times_qinv_poch(i, j)
        sums[j] = sums[j] + v if j in sums else v
    total = sums.get(0, Packed({}, 0, binoms[(0, 0)].w))
    for j in range(1, d + 1):
        total = total.times_one_minus(d - j, 1, t_prec).times_one_minus(d - j, 1, t_prec)
        if j in sums:
            total = total + sums[j]
    return _check_poly(total.decode())


def _binomials(top, bound):
    """{(n, r): [n r]_{1/q}} for 0 <= r <= n <= top, on Packed with lanes for
    the L1 bound bound: [n r]_q at 2^w is q^{r(n-r)} [n r]_{1/q}."""
    w = lane_width(bound)
    return {(n, r): Packed({0: x}, r * (n - r), w) for (n, r), x in qbinomial_ints(top, w).items()}


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


def funceq_report(nz_poly, family, d):
    """Functional equation NZ(t) = (q^{d^2} t^{2d})^delta NZ(q^-d t^-1), exactly."""
    delta = family.delta
    flipped = nz_poly.substitute(Q, LaurentPoly2.monomial(1, -d, -1))
    rhs = LaurentPoly2.monomial(1, d * d * delta, 2 * d * delta) * flipped
    return compare_report("funceq", {"family": family.kind, "m": family.m, "d": d,
                                     "which": "free"},
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

    Both sides are summed on hall's packed coefficients, in
    hall.skew_cauchy_mismatch; a failure names the first failing mu.
    """
    SingularityFamily("node", m)  # rejects m < 1
    with timed() as tm:
        bad = skew_cauchy_mismatch(m, d)
    if bad is None:
        return VerificationReport("squaring", {"m": m, "d": d}, "pass", wall_time=tm.elapsed)
    mu, lhs, rhs = bad
    return VerificationReport("squaring", {"m": m, "d": d, "mu": str(mu)},
                              "fail", lhs=str(lhs), rhs=str(rhs),
                              discrepancy=first_discrepancy(lhs, rhs), wall_time=tm.elapsed)


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
    sum has L1 norm at most sum_r C(d, r) 2^r = 3^d, which sizes the lanes.
    """
    require(0, d=d)
    w = lane_width(3 ** d)
    binoms = qbinomial_ints(d, w)
    total = Packed({}, 0, w)
    for r in range(d + 1):
        term = Packed({0: binoms[(d, r)]}, 0, w).shifted(r * (r - 1) // 2, r)
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
        b = TruncSeries2.from_laurent(free(1, d).substitute(QINV, T), q_prec, t_prec)
        for m in range(1, m_cap):
            a = b
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
    """Diagnostic: coefficients of NZ_free(-t) should be nonnegative; family
    is the kind, 'cusp' or 'node'."""
    params = {"family": family, "m": m, "d": d}
    with timed() as tm:
        flipped = nz(SingularityFamily(family, m), d, "free").substitute(Q, -T)
        bad = sorted(k for k, v in flipped.terms.items() if v < 0)
    if bad:
        return VerificationReport("positivity", params, "reported", lhs=str(flipped),
                                  discrepancy=bad[0], wall_time=tm.elapsed,
                                  detail="negative coefficients at %s" % (bad[:5],))
    return VerificationReport("positivity", params, "pass", wall_time=tm.elapsed)
