"""Cohen-Lenstra series for the y^2 = x^n germs, rank conversions, and limits.

Everything lives in Z[[u,t]] with u = 1/q.  The numerator NZ-hat of the CL
series is

    cusp: sum over mu with parts <= m of t^{2|mu|} / a(mu),
    node: (ut;u)_inf^2 * sum over mu <= lam, lam_1 <= m of
          g^lam_mu(q) (u;u)_{lam'_m} t^{2|lam|-|mu|}
          / (a(lam) (u;u)_{mu'_m} (ut;u)^2_{lam'_m}),

where 1/a(lam) = u^{sum lam'_i^2} prod 1/(u;u)_{lam'_i - lam'_{i+1}}.  Every
node factor splits by column, so the node numerator is a walk over m columns
(hall.column_walk from (top, top)) with state (a, b) = (lam'_i, mu'_i):
1/(u;u)_{a-a2} between columns (none out of the start), g^lam_mu's binomials
as polynomials in u, and at column i the shift u^{a^2 - b(a-b)} t^{2a-b} on
the window.  With j = lam'_m, i = mu'_m and
(ut;u)_inf/(ut;u)_j = (u^{j+1}t;u)_inf,

    NZ-hat = sum_j (u^{j+1}t;u)^2_inf / (u;u)_j
                 sum_i [j, i]_u (u;u)_j/(u;u)_i (the walk's value at (j, i)).

Every factor is a power series in u and t, and a shift has u-order
a^2 - b(a-b) >= (3/4) a^2, because x(a - x) <= a^2/4, and t-order
2a - b >= a.  So the walk starts at the first a with a >= t_prec or
3a^2 >= 4 u_prec, which no column reaches, and a state shifted off the window
is dropped.  No series is inverted, and a negative u-exponent is refused on
the window.  The end factors E_j = (u^{j+1}t;u)^2_inf/(u;u)_j of consecutive
j differ by E_{j-1} = E_j (1 - u^j t)^2 (1 - u^j), so the sum over j is one
Horner pass from j = 0 up, times E_J at the top j = J.  The cusp term of mu
is prod_i u^{c_i^2} t^{2c_i} / (u;u)_{c_i - c_{i+1}} with c_i = mu'_i, i <= m,
and c_{m+1} = 0: the same walk from (top, 0), whose states are (c, 0) with
shift u^{c^2} t^{2c}, each last-column state divided by (u;u)_{c_m}.  It
starts at the first c with 2c >= t_prec or c^2 >= u_prec, which no column
reaches.

Below u^u_prec the numerator is thus a polynomial in t, whatever t_prec is.
special_values builds it once on the window (u_prec, _T_CAP) and reads
NZ-hat(1) and NZ-hat(-1) off its partial sums below t^8, t^16, ..., t^_T_CAP.
Both walks run on the packed ring of singzeta.packed with a u-window, which
describes the ring, its one decode and its rule for lanes.  A pure-u factor
(a u-binomial, a fold factor [j, i]_u (u^{i+1};u)_{j-i}, a 1/(u;u)_n) is one
int product per column; the tables of 1/(u;u)_n, n < top, are built once per
call, each from the one before by (1 + u^n)(1 + u^{2n})(1 + u^{4n}) ...;
u^e t^f shifts the columns and drops those at t^t_prec and up; a factor
1 - u^e t^b (the Horner steps and the end factor (u^{J+1}t;u)^2_inf) is a
column step.

_norm_bound runs the same walk on L1 norms, for lane_width: the norm of [n r]_u
is C(n, r), that of 1/(u;u)_n the sum S_n of its coefficients below
u^u_prec, and a shift keeps a norm while its monomial lies on the window and
gives 0 off it, so the walk's value N_{j,i} at (j, i) bounds the norm of the
packed one.  The term of (j, i) in NZ-hat is, by the identity above, the
value at (j, i) times [j, i]_u (u^{j+1}t;u)^2_inf/(u;u)_i, and the
coefficients of (u^{j+1}t;u)^2_inf are those of (-u^{j+1}t;u)^2_inf up to
sign, whose sum at t = 1 below u^u_prec is P_j.  So
|NZ-hat|_1 <= sum N_{j,i} C(j, i) S_i P_j, and likewise for the cusp
|NZ-hat|_1 <= sum_c N_c S_c.

The full series is the numerator over (ut;u)_inf^s, and cl_series builds it
on the same packed ring before its one decode.  A column-division step
divides by 1 - u^e t: from the lowest column up, column f gains column
f - 1, already divided, e lanes up.  The cusp's full series is its numerator
after the u_prec - 1 steps e = 1 .. u_prec - 1.  For the node,
E_J/(ut;u)^2_inf = 1/((u;u)_J (ut;u)_J^2), so its full series is 1/(u;u)_J
times the Horner total after 2J steps, with no end factor.  Every column
step, times or over 1 - u^e t^b, shifts only a column's lanes below
u^(U-e), as the rest lie past u^U once e lanes up, and skips a column with
none.

The full series gets its own lanes.  1/(ut;u)_inf has nonnegative
coefficients, and at t = 1 they sum below u^u_prec to
p_U = p(0) + ... + p(u_prec - 1), as 1/(u;u)_inf does.  So the cusp's
|full|_1 <= |NZ-hat|_1 p_U, and its lanes in cl_series bound
sum_c N_c S_c p_U.  The node's term of (j, i) in the full series is, by the
two identities above, the value at (j, i) times
[j, i]_u/((u;u)_i (ut;u)_j^2), and the coefficients of 1/(ut;u)_j^2 are
nonnegative, summing at t = 1 below u^u_prec to R_j, those of 1/(u;u)_j^2.
So the node's lanes in cl_series bound sum N_{j,i} C(j, i) S_i (P_j + R_j),
which bounds both the numerator and the full series.  special_values, which
needs only the numerator, keeps the numerator's lanes.  Every other product
or quotient by Pochhammer factors on a window, finite or infinite, is one
TruncSeries2.times_poch pass per factor.

Rank-conversion identities, with [d r]_u = (u;u)_d/((u;u)_{d-r} (u;u)_r) in
Z[u]:

    (A) Z_{R^d}(t)      = sum_r [d r]_q t^r Z_{mR^r}(q^{d-r} t)
    (B) t^d Z_{mR^d}(t) = sum_r (-1)^{d-r} u^{C(d-r,2)} [d r]_u Z_{R^r}(q^{d-r} t)
    (C) Zhat(t)         = sum_D t^D u^{D^2}/(u;u)_D Z_{mR^D}(u^D t)
    (D) Zhat(t)         = sum_D 1/(u;u)_D sum_{r<=D} (-1)^{D-r} u^{C(D-r,2)} [D r]_u
                          Z_{R^r}(u^r t),  inner sum in t^D Z[u^{+-1}][[t]]

using q^l/(q;q)_l = (-1)^l u^{l(l-1)/2}/(u;u)_l.  (A) and (B) divide by
nothing: they are exact sums of LaurentPoly2 in Z[q^{+-1}, t].  (C) and (D)
build each rank's term as an exact LaurentPoly2 too, then put it on the
window with TruncSeries2.from_laurent and divide it once by (u;u)_D.  That
term is a power series in u, because the t^j coefficient of Z_{R^r} or
Z_{mR^r} has q-degree at most rj, so Z(u^r t) has no negative u-exponent.
"""

from functools import reduce
from math import comb
from operator import add

from .laurent import LaurentPoly2, Q, ZERO, qbinomial, qpochhammer
from .quotzeta import SingularityFamily, nz, full_z, _node_free_walk
from .hall import column_walk
from .packed import Packed, lane_width, qbinomial_ints
from . import oracle as oracle_mod
from .report import (VerificationReport, compare_report, require, timed,
                     BudgetExceededError)
from .series import TruncSeries2


class ClSeries:
    """A Cohen-Lenstra numerator and its full series numerator/(ut;u)_inf^s,
    as cl_series builds them."""

    def __init__(self, numerator, full):
        self.numerator = numerator
        self.full = full


def cl_numerator(kind, m, u_prec, t_prec):
    """NZ-hat on the window, checked to have constant term 1."""
    return _cl_walk(kind, m, u_prec, t_prec, False)[0]


def cl_series(kind, m, u_prec, t_prec):
    """The CL numerator and full series of either family on the window."""
    return ClSeries(*_cl_walk(kind, m, u_prec, t_prec, True))


def _cl_walk(kind, m, u_prec, t_prec, with_full):
    """NZ-hat on the window, and with with_full the full series too (else
    None), each decoded once from one packed walk."""
    require(1, u_prec=u_prec, t_prec=t_prec)
    fam = SingularityFamily(kind, m)
    walk = _cusp_numerator if fam.kind == "cusp" else _node_numerator
    numerator, full = walk(m, u_prec, t_prec, with_full)
    numerator = TruncSeries2._adopt(u_prec, t_prec, numerator.digits())
    if numerator.coeffs.get((0, 0)) != 1:
        raise AssertionError("CL numerator must have constant term 1")
    return numerator, full if full is None else TruncSeries2._adopt(u_prec, t_prec, full.digits())


def _walk_top(kind, u_prec, t_prec):
    """The column length the walk starts at: the first c with 2c >= t_prec or
    c^2 >= u_prec for the cusp, the first a with a >= t_prec or
    3a^2 >= 4 u_prec for the node."""
    top = 0
    if kind == "cusp":
        while 2 * top < t_prec and top * top < u_prec:
            top += 1
    else:
        while top < t_prec and 3 * top * top < 4 * u_prec:
            top += 1
    return top


def _walk(m, start, one, binoms, inverses, shifted):
    """The walk of either family in the ring of one, from (top, top) for the
    node, (top, 0) for the cusp: gaps by the table {n: 1/(u;u)_n},
    binomials by {(n, r): [n r]_u} (None for the cusp), and
    shifted(v, e, f) = v u^e t^f on the window."""
    top = start[0]
    return column_walk(m, start, one, binoms,
                       lambda v, a, a2: v if a in (top, a2) else inverses[a - a2] * v,
                       lambda i, v, a, b: shifted(v, a * a - b * (a - b), 2 * a - b))


def _cusp_numerator(m, u_prec, t_prec, with_full):
    """The cusp sum of the module docstring on the packed window: each
    last-column state c divided by (u;u)_c.  With with_full, also the full
    series, that sum divided by (ut;u)_inf in u_prec - 1 column-division
    steps (else None)."""
    top = _walk_top("cusp", u_prec, t_prec)
    one, inverses = _packed_tables(u_prec, top, _norm_bound("cusp", m, u_prec, t_prec, with_full))
    states = _walk(m, (top, 0), one, None, inverses, lambda v, e, f: v.shifted(e, f, t_prec))
    total = reduce(add, (inverses[c] * v for (c, _), v in states.items()))
    return total, total.over_one_minus(range(1, u_prec), t_prec) if with_full else None


def _node_numerator(m, u_prec, t_prec, with_full):
    """The node sum of the module docstring on the packed window: the walk,
    its fold, a Horner pass over j and the end factor, each a column step
    or one product per column.  With with_full, also the full series (else
    None): 1/(u;u)_J times the Horner total over (ut;u)_J^2, in 2J
    column-division steps, as E_J/(ut;u)^2_inf = 1/((u;u)_J (ut;u)_J^2)."""
    top = _walk_top("node", u_prec, t_prec)
    one, inverses = _packed_tables(u_prec, top, _norm_bound("node", m, u_prec, t_prec, with_full))
    binoms = {k: one.with_lanes(x) for k, x in qbinomial_ints(top, one.w).items()}
    states = _walk(m, (top, top), one, binoms, inverses,
                   lambda v, e, f: v.shifted(e, f, t_prec))
    sums = {}
    for (j, i), v in states.items():
        fold = binoms[(j, i)]
        for k in range(i + 1, j + 1):
            fold = fold.times_one_minus(k, 0)
        sums[j] = sums[j] + fold * v if j in sums else fold * v
    last = max(sums)
    total = sums[0]
    for j in range(1, last + 1):
        total = total.times_one_minus(j, 1, t_prec).times_one_minus(j, 1, t_prec)
        total = total.times_one_minus(j, 0)
        if j in sums:
            total = total + sums[j]
    full = None
    if with_full:
        full = inverses[last] * total.over_one_minus(
            [k for k in range(1, last + 1) for _ in (0, 1)], t_prec)
    for k in range(last + 1, u_prec):
        total = total.times_one_minus(k, 1, t_prec).times_one_minus(k, 1, t_prec)
    return inverses[last] * total, full


def _packed_tables(u_prec, top, bound):
    """The packed ring modulo u^u_prec in lanes for the L1 bound bound: its 1
    and the table {n: 1/(u;u)_n} for n < top.  1/(u;u)_n is
    1/(u;u)_{n-1} times (1 + u^n)(1 + u^{2n})(1 + u^{4n}) ..., one step per
    factor below u^u_prec."""
    one = Packed.on_window(u_prec, lane_width(bound))
    inverses, v = {}, one
    for n in range(top):
        e = n
        while 0 < e < u_prec:
            v, e = v.times_one_plus(e), 2 * e
        inverses[n] = v
    return one, inverses


def _inverse_sums(u_prec, top, power=1):
    """{n: S_n} for n < top, S_n the sum below u^u_prec of the coefficients
    of 1/(u;u)_n^power; S_{u_prec-1} is that of 1/(u;u)_inf^power, for
    power 1 the sum p(0) + ... + p(u_prec - 1)."""
    counts = [1] + [0] * (u_prec - 1)
    sums = {}
    for n in range(top):
        for _ in range(power) if n else ():
            for k in range(n, u_prec):
                counts[k] += counts[k - n]
        sums[n] = sum(counts)
    return sums


def _norm_bound(kind, m, u_prec, t_prec, with_full):
    """A bound on the L1 norm of NZ-hat on the window, and with with_full on
    that of the full series too (module docstring): the walk runs again on
    L1 norms (ints)."""
    top = _walk_top(kind, u_prec, t_prec)
    sums = _inverse_sums(u_prec, top)

    def shifted(v, e, f):
        return v if e < u_prec and f < t_prec else 0

    if kind == "cusp":
        states = _walk(m, (top, 0), 1, None, sums, shifted)
        bound = sum(sums[c] * v for (c, _), v in states.items())
        return bound * _inverse_sums(u_prec, u_prec)[u_prec - 1] if with_full else bound
    states = _walk(m, (top, top), 1, {(n, r): comb(n, r) for n in range(top + 1)
                                      for r in range(n + 1)}, sums, shifted)
    # ends[j]: the sum below u^u_prec of (-u^{j+1}t;u)^2_inf at t = 1, P_j,
    # plus with with_full that of 1/(u;u)_j^2, R_j
    ends, counts = {}, [1] + [0] * (u_prec - 1)
    for j in range(u_prec - 1, -1, -1):
        ends[j] = sum(counts)
        for _ in (0, 1) if j else ():
            counts[j:] = [a + b for a, b in zip(counts[j:], counts)]
    if with_full:
        for j, r in _inverse_sums(u_prec, min(top + 1, u_prec), 2).items():
            ends[j] += r
    return sum(v * comb(j, i) * sums[i] * ends[j] for (j, i), v in states.items())


def node22_phi11(u_prec, t_prec):
    """The 1-phi-1 sum_k (-1)^k u^C(k,2) (t;u)_k/(u;u)_k (ut)^k on the window.

    It is the CL numerator of the (2,2)-link germ y^2 = x^2, the node at
    m = 1.  Term k has u-order k(k+1)/2 and t-order k, so the sum stops at the
    first k that leaves the window.
    """
    total = TruncSeries2(u_prec, t_prec)
    k = 0
    while k < t_prec and k * (k + 1) // 2 < u_prec:
        term = TruncSeries2(u_prec, t_prec, {(k * (k + 1) // 2, k): (-1) ** k})
        total = total + term.times_poch(0, 1, k).times_poch(1, 0, k, power=-1)
        k += 1
    return total


# -- full Quot zeta helpers ----------------------------------------------------


def z_series(kind, m, d, t_prec, module="free"):
    """Z_{R^d} (or the normalization's) as a t-list of pure-q polynomials."""
    fam = SingularityFamily(kind, m)
    return full_z(nz(fam, d, module), fam.s, d, t_prec)


# -- rank conversion identities ---------------------------------------------------


def convert_rank(z_list, direction, u_prec, t_prec):
    """Apply one of the four conversion identities.

    z_list holds the per-rank inputs, each a full-Z t-list of pure-q
    LaurentPoly2.  Directions:

      quot_to_mhilb: inputs Z_{R^r}, r = 0..d   -> Z_{mR^d} via (B)
      mhilb_to_quot: inputs Z_{mR^r}, r = 0..d  -> Z_{R^d} via (A)
      cl_from_mhilb: inputs Z_{mR^r}, r < t_prec -> Zhat via (C)
      cl_from_quot:  inputs Z_{R^r},  r < t_prec -> Zhat via (D)

    (A) and (B) divide by nothing: they are exact sums of LaurentPoly2 and
    return t-lists of t_prec pure-q LaurentPoly2, and (B) asserts that its
    whole result lies in Z[q].  d is len(z_list) - 1 for these two, and the
    inputs of (B) must extend to t-degree t_prec + d.  (C) and (D) return a
    TruncSeries2 on (u^u_prec, t^t_prec).  Each builds the term of rank D
    exactly, puts it on the window and divides it once by (u;u)_D.  The term
    is a power series in u, because the t^j coefficient of Z_{R^r} or
    Z_{mR^r} has q-degree at most rj; from_laurent raises if it is not.
    """
    if direction == "mhilb_to_quot":
        d = len(z_list) - 1
        total = ZERO
        for r, z in enumerate(z_list):
            zr = _rank_input(z, r, t_prec - r)
            total = total + (LaurentPoly2.monomial(1, 0, r) * qbinomial(d, r)
                             * _t_times_qpow(zr, d - r))
        return _to_t_list(total, t_prec)
    if direction == "quot_to_mhilb":
        d = len(z_list) - 1
        total = ZERO
        for r, z in enumerate(z_list):
            zr = _rank_input(z, r, t_prec + d)
            total = total + _alternating_term(_t_times_qpow(zr, d - r), d, r)
        _assert_t_divisible(total, d)
        low = min(total.terms, default=(0, 0))
        if low[0] < 0:
            raise AssertionError("Z_{mR^%d} left Z[q] at q^%d t^%d" % (d, low[0], low[1] - d))
        return _to_t_list(total * LaurentPoly2.monomial(1, 0, -d), t_prec)
    if direction == "cl_from_mhilb":
        total = TruncSeries2(u_prec, t_prec)
        for D, z in enumerate(z_list[:t_prec]):
            part = _t_times_qpow(_rank_input(z, D, t_prec - D), -D)
            total = total + _over_upoch(LaurentPoly2.monomial(1, -D * D, D) * part, D,
                                        u_prec, t_prec)
        return total
    if direction == "cl_from_quot":
        prepared = [_t_times_qpow(_rank_input(z, r, t_prec), -r)
                    for r, z in enumerate(z_list[:t_prec])]
        total = TruncSeries2(u_prec, t_prec)
        for D in range(len(prepared)):
            inner = ZERO
            for r in range(D + 1):
                inner = inner + _alternating_term(prepared[r], D, r)
            _assert_t_divisible(inner, D)
            total = total + _over_upoch(inner, D, u_prec, t_prec)
        return total
    raise ValueError("unknown direction %r" % direction)


def _rank_input(z, r, t_need):
    """The rank-r input, a t-list of pure-q LaurentPoly2, below t^t_need as
    one LaurentPoly2 in (q, t)."""
    if not all(poly.is_pure_q() for poly in z):
        raise ValueError("Z coefficients must be pure q-polynomials")
    if len(z) < t_need:
        raise ValueError("rank %d input too short in t (need %d)" % (r, t_need))
    return LaurentPoly2._adopt({(a, j): c for j, poly in enumerate(z) if j < t_need
                                for (a, _), c in poly.terms.items()})


def _to_t_list(poly, t_prec):
    """The t^0 .. t^(t_prec-1) coefficients of poly as pure-q LaurentPoly2."""
    cols = [{} for _ in range(t_prec)]
    for (a, j), c in poly.terms.items():
        if j < t_prec:
            cols[j][(a, 0)] = c
    return [LaurentPoly2._adopt(col) for col in cols]


def _t_times_qpow(poly, e):
    """The substitution t -> q^e t."""
    return poly.substitute(Q, LaurentPoly2.monomial(1, e, 1))


def _alternating_term(z, d, r):
    """(-1)^l u^C(l,2) [d r]_u z with l = d - r, u = 1/q, exactly, as
    [d r]_u = u^{rl} [d r]_q."""
    l = d - r
    sign = -1 if l % 2 else 1
    return LaurentPoly2.monomial(sign, -(l * (l - 1) // 2) - r * l, 0) * qbinomial(d, r) * z


def _over_upoch(part, n, u_prec, t_prec):
    """The exact power series part on the window, divided by (u;u)_n."""
    return TruncSeries2.from_laurent(part, u_prec, t_prec).times_poch(1, 0, n, power=-1)


def _assert_t_divisible(poly, d):
    """Internal check: no term below t^d."""
    low = sorted(j for (_, j) in poly.terms if j < d)
    if low:
        raise AssertionError("expected divisibility by t^%d, found t^%d" % (d, low[0]))


def _first_mismatch(d_max, sides):
    """The first (rank, t-degree) at which the two sequences sides(rank) differ,
    over ranks 1..d_max in order, or None; no rank past it is built."""
    for dd in range(1, d_max + 1):
        got, want = sides(dd)
        for j, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return dd, j
    return None


def conversion_check(m, d_max, u_prec, t_prec, with_oracle=False,
                     budget=oracle_mod.DEFAULT_BUDGET):
    """Round-trip and cross-consistency checks of the conversion identities.

    Node family.  Builds Z_{mR^r} from the quot series via (B), converts back
    via (A), and compares both CL assemblies with the direct CL series; with
    with_oracle also matches Z_{mR^d} coefficients at q=2 against the census of
    the m*(R/m^{tprec})^d models.
    """
    require(0, d=d_max)
    require(1, u_prec=u_prec, t_prec=t_prec)
    reports = []
    need = max(t_prec, d_max + 1)
    # (B) at rank dd reads Z_{R^r} to t-degree need + dd
    zq_long = [z_series("node", m, r, 2 * need - 1) for r in range(need)]
    mhilb = {dd: convert_rank(zq_long[:dd + 1], "quot_to_mhilb", u_prec, need)
             for dd in range(need)}
    with timed() as tm:
        # zq_long[dd] is Z_{R^dd} exactly to t-degree 2 need - 2 >= t_prec - 1
        disc = _first_mismatch(d_max, lambda dd: (
            convert_rank([mhilb[r] for r in range(dd + 1)], "mhilb_to_quot", u_prec, t_prec),
            zq_long[dd][:t_prec]))
    reports.append(VerificationReport("conversion-roundtrip", {"m": m, "d_max": d_max},
                                      "pass" if disc is None else "fail",
                                      discrepancy=disc, wall_time=tm.elapsed))
    cl_a = convert_rank([mhilb[r] for r in range(t_prec)], "cl_from_mhilb", u_prec, t_prec)
    cl_b = convert_rank([z[:t_prec] for z in zq_long[:t_prec]], "cl_from_quot", u_prec, t_prec)
    direct_cl = cl_series("node", m, u_prec, t_prec).full
    reports.append(compare_report("conversion-cl-from-mhilb", {"m": m}, cl_a, direct_cl))
    reports.append(compare_report("conversion-cl-agreement", {"m": m}, cl_a, cl_b))
    if with_oracle:
        with timed() as tm:
            disc = _first_mismatch(d_max, lambda dd: (
                oracle_mod.quot_coeffs_oracle("node", m, dd, 2, t_prec,
                                              module="max_ideal", budget=budget),
                (mhilb[dd][k].eval_int(2) for k in range(t_prec))))
        reports.append(VerificationReport("conversion-oracle", {"m": m, "p": 2},
                                          "pass" if disc is None else "fail",
                                          discrepancy=disc, wall_time=tm.elapsed))
    return reports


# -- rank -> infinity limit -------------------------------------------------------


def scaled_z_trunc(kind, m, d, u_prec, t_prec):
    """Z_{R^d}(u^d t) on the window, asserting nonnegative u-exponents.

    The node's NZ is walked only below t^t_prec (quotzeta._node_free_walk);
    the cusp's is nz's.
    """
    fam = SingularityFamily(kind, m)
    free = _node_free_walk(m, d, t_prec) if fam.kind == "node" else nz(fam, d, "free")
    scaled = _t_times_qpow(free.below_t(t_prec), -d)
    if any(a > 0 for a, _ in scaled.terms):
        raise AssertionError("NZ(u^d t) has a negative u-exponent")
    return TruncSeries2.from_laurent(scaled, u_prec, t_prec).times_poch(1, 1, d, power=-fam.s)


def limit_check(kind, m, d_list, u_prec, t_prec):
    """Thm-level rank limit: consecutive d agree and match the CL series.

    Rank d fixes the limit only below u^{d+1}.  The quotients of colength 1
    are the points of P^{d-1}, so the t-coefficient of Z_{R^d}(u^d t) is
    u^d [d]_q = u + ... + u^d, and ranks d and d + 1 differ at u^{d+1} t.  So
    a u_prec above min(d_list) + 1 with t_prec >= 2 fails with "consecutive
    ranks disagree" (d_list [0, 1] and u_prec 3 do).
    """
    if len(d_list) < 2:
        raise ValueError("need at least two ranks")
    repeated = [d for i, d in enumerate(d_list) if d in d_list[:i]]
    if repeated:
        raise ValueError("d_list repeats rank %d" % repeated[0])
    require(1, u_prec=u_prec, t_prec=t_prec)
    with timed() as tm:
        scaled = [scaled_z_trunc(kind, m, d, u_prec, t_prec) for d in d_list]
        for a, b in zip(scaled, scaled[1:]):
            equal, window, disc = a.agrees_with(b)
            if not equal:
                return VerificationReport(
                    "limit", {"kind": kind, "m": m, "d_list": tuple(d_list)},
                    "fail", lhs=str(a), rhs=str(b), discrepancy=disc,
                    wall_time=tm.elapsed, detail="consecutive ranks disagree")
        cl = cl_series(kind, m, u_prec, t_prec)
        equal, window, disc = scaled[-1].agrees_with(cl.full)
    if equal:
        return VerificationReport("limit", {"kind": kind, "m": m, "d_list": tuple(d_list),
                                            "window": window}, "pass", wall_time=tm.elapsed)
    return VerificationReport("limit", {"kind": kind, "m": m, "d_list": tuple(d_list)},
                              "fail", lhs=str(scaled[-1]), rhs=str(cl.full),
                              discrepancy=disc, wall_time=tm.elapsed,
                              detail="stable value differs from CL series")


# -- matrix-pair counting ----------------------------------------------------------


def matrix_count_formula(n):
    """#{(A,B): AB=BA, A^2=B^3} over F_q as a polynomial in q:

    sum_{j<=n/2} (-1)^j q^{(3j^2-j)/2 + n(n-2j)} (q;q)_n / ((q;q)_j (q;q)_{n-2j}).
    """
    require(0, n=n)
    total = LaurentPoly2()
    for j in range(n // 2 + 1):
        sign = -1 if j % 2 else 1
        e = (3 * j * j - j) // 2 + n * (n - 2 * j)
        ratio = qbinomial(n, j) * qpochhammer(LaurentPoly2.monomial(1, n - 2 * j + 1, 0), Q, j)
        total = total + LaurentPoly2.monomial(sign, e, 0) * ratio
    return total


def matrix_count_check(n, p, budget=oracle_mod.DEFAULT_BUDGET):
    """matrix_count_formula(n) at q=p against the brute-force count over F_p."""
    return compare_report("matrix-count", {"n": n, "p": p},
                          matrix_count_formula(n).eval_int(p),
                          oracle_mod.matrix_pair_count(n, p, budget=budget))


# -- special values -----------------------------------------------------------------


def andrews_gordon_product(m, u_prec):
    """prod over n not congruent to 0, +-(m+1) mod M = 2m+3 of 1/(1-u^n), that
    is (u^{m+1};u^M)inf (u^{m+2};u^M)inf (u^M;u^M)inf / (u;u)inf."""
    M = 2 * m + 3
    one = TruncSeries2.one(u_prec, 1)
    return (one.times_poch(m + 1, 0, step=M).times_poch(m + 2, 0, step=M)
            .times_poch(M, 0, step=M).times_poch(1, 0, power=-1))


def node_minus1_product(m, u_prec):
    """(u^2;u^2)inf (u^{m+1};u^{m+1})inf^2 / ((u;u)inf^2 (u^{2m+2};u^{2m+2})inf)."""
    one = TruncSeries2.one(u_prec, 1)
    return (one.times_poch(2, 0, step=2).times_poch(m + 1, 0, step=m + 1, power=2)
            .times_poch(1, 0, power=-2).times_poch(2 * m + 2, 0, step=2 * m + 2, power=-1))


_T_START, _T_CAP = 8, 2048


def _read_pm_one(numerator, u_prec):
    """NZ-hat(1) and NZ-hat(-1) as u-adic limits of partial sums of numerator.

    The partial sum at t_prec sums the terms below t^t_prec.  t_prec doubles
    from _T_START, and each sign stops at the first t_prec whose value
    repeats the previous one.  Returns {sign: (value, t_prec used)}.
    """
    def window_sum(sign, low, high):
        acc = {}
        for (i, j), c in numerator.coeffs.items():
            if low <= j < high:
                acc[(i, 0)] = acc.get((i, 0), 0) + (c if sign > 0 or j % 2 == 0 else -c)
        return TruncSeries2(u_prec, 1, acc)

    values = {}
    for sign in (1, -1):
        t_prec = _T_START
        value = window_sum(sign, 0, t_prec)
        while t_prec < _T_CAP:
            step = window_sum(sign, t_prec, 2 * t_prec)
            value, t_prec = value + step, 2 * t_prec
            if not step:
                break
        else:
            raise BudgetExceededError("t=%+d evaluation did not stabilize below t_prec=%d"
                                      % (sign, _T_CAP), progress=(u_prec, _T_CAP))
        values[sign] = (value, t_prec)
    return values


def special_values(kind, m, u_prec):
    """The t = +-1 identities for NZ-hat; conjecture-level ones are 'reported'.

    One numerator on the window (u^u_prec, t^_T_CAP) serves every partial
    sum.  Below u^u_prec it is a polynomial in t (see the module docstring):
    the cusp walk starts at c^2 >= u_prec, the node walk at 3a^2 >= 4 u_prec,
    and the node's end factors are one Horner pass, so the wide t-window
    costs no more than the numerator's top t-degree.
    """
    reports = []
    with timed() as tm:
        values = _read_pm_one(cl_numerator(kind, m, u_prec, _T_CAP), u_prec)
        if kind == "cusp":
            target = andrews_gordon_product(m, u_prec)
            for sign in (1, -1):
                val, used_t = values[sign]
                reports.append(compare_report(
                    "special-cusp-AG", {"m": m, "t": sign, "u_prec": u_prec,
                                        "t_prec_used": used_t}, val, target))
        else:
            val, used_t = values[1]
            reports.append(compare_report(
                "special-node-plus1", {"m": m, "u_prec": u_prec, "t_prec_used": used_t},
                val, TruncSeries2.one(u_prec, 1)))
            val, used_t = values[-1]
            reports.append(compare_report(
                "special-node-minus1", {"m": m, "u_prec": u_prec, "t_prec_used": used_t},
                val, node_minus1_product(m, u_prec), conjectural=(m >= 2)))
    for r in reports:
        r.wall_time = tm.elapsed / max(1, len(reports))
    return reports
