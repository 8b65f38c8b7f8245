"""Hall polynomials: closed forms, a general algorithm, and the Hall-sum scans.

g^lambda_{mu nu}(q) counts submodules of type mu and cotype nu in a finite
DVR-module of type lambda.  The nu-summed g^lambda_mu has the closed form

    g^lambda_mu(q) = q^{sum mu'_i (lam'_i - mu'_i)}
                     prod_i [lam'_i - mu'_{i+1} choose lam'_i - mu'_i]_{1/q},

and for a box lambda = (m^d) it collapses to an m-independent q^-1-multinomial.
The fully general g^lambda_{mu nu} is computed by the vertical-strip Pieri rule
in the Hall algebra, where u_mu u_nu = sum_lambda g^lambda_{mu nu} u_lambda:
u_mu times u_(1^m) has a closed form, the products of columns
u_(1^nu'_1) ... u_(1^nu'_k) are unitriangular over the u_nu, and their inverse
carries u_mu u_nu into chains of Pieri steps (Macdonald, Symmetric Functions
and Hall Polynomials, Ch. II Sec. 4 and Ch. III Sec. 3).  All arithmetic is
exact; every closed form is assembled division-free and asserted to land in
Z[q].

The Hall algebra, and the products of q^-1-binomials that hall_skew and
hall_box are, run on ints at q = 2^w (the ring of singzeta.packed, one
column).  A coefficient is a triple (x, e, b): the value is q^e x(q), so
[n r]_{1/q} = q^{-r(n-r)} [n r]_q keeps its int from packed.qbinomial_ints;
and b bounds the L1 norm of x, a product multiplying the bounds and a sum
adding them.  These values outlive a call, in caches, so no walk sizes their
lanes in advance; the bound is carried instead.  Every zero test, equality
test, lowest-lane test (the Z[q] assertions, the leading coefficient 1 of a
column product) and decode first checks it: while b < 2^(w-1) the int is 0
only for the zero polynomial, so two values whose difference passes the
check are equal exactly when that difference is 0 (_same).  If it does not
fit, _widened reruns the call at lanes of twice the bits, so no input loses
exactness or raises.  Each call starts at _START_W = 64 bits: the bounds of
the cached column products and inverses reach about 22 bits at
|lambda| <= 6 and 51 at |lambda| <= 9.

hall_skew, hall_box, hall_pair_expansion and hall_general decode from the
packed values, each in one _widened call.  The lane width w is an argument
of every function that packs, compares or decodes, never module state.
Five functions memoize theirs with functools.cache, keyed on part tuples
and on w, their last argument: g^lambda_mu (_skew_packed), the column
products and their inverses (_times_columns, _column_inverse), the
expansions {lambda: g^lambda_{mu nu}} (_pair_packed) and the tables of
[n r]_q for r <= n <= top (_binoms).  An entry holds at its own width, so
a rerun at a wider one clears nothing: the entries at the narrower width
are never read again.  The packed format binds this module only: no other
module reads a packed value.

So the scans of criteria 6 and 7 live here too, each returning its first
mismatch (case, lhs, rhs), both sides decoded, or None.  skew_cauchy_mismatch
sums each t-column of both sides of the bounded skew-Cauchy identity, as
(t;q)_n is a sum of q-binomials; completeness_mismatch and symmetry_mismatch
add and compare the packed g^lam_{mu nu} of the pairs with |lam| <= 6; and
box_vs_skew_mismatch compares the packed box multinomial with g^{(m^d)}_mu.
Each runs in one _widened call and compares by _same: a pass is exact and
decodes nothing, only a failing pair is decoded, and a bound that does not
fit widens the lanes and reruns the whole scan.

The brute-force counts over F_p that criterion 7 checks these polynomials
against, oracle.hall_count_oracle, live with the census they read, so
nothing here imports the oracle.

g^lambda_mu and the box multinomial are products over the columns of lambda
and mu, so a sum of them over mu <= lambda is a walk over column states
(lambda'_i, mu'_i), column_walk.  Started at (top, top) it sums over both
partitions: the node's free numerator (quotzeta.nz_node_free) and CL
numerator (clzeta._node_numerator), and the latter's lane bound.  Started at
(top, 0) it sums over lambda alone, as every binomial is then [a a] = 1:
both normalization numerators (quotzeta._normalization_walk) and the cusp's
CL numerator (clzeta._cusp_numerator), and the latter's lane bound.  The
walk runs in the caller's ring: it takes the caller's 1, table of binomials
(which the callers share with their gaps and folds) and gap and column
factors, and returns the last-column states, which each caller folds in its
own ring.
"""

from functools import cache
from math import comb

from .laurent import LaurentPoly2, ZERO, qpoch_qinv_ratio
from .packed import lane_digits_into, qbinomial_ints
from .partitions import Partition, conjugate_parts, iterate_box, partitions_of, subpartitions
from .report import require


# -- packed coefficients -------------------------------------------------------
#
# A packed coefficient (x, e, b) stands for q^e x(q), x read at q = 2^w, with
# b a carried bound on the L1 norm of x(q); see the module docstring.

_START_W = 64  # the lane bits _widened starts each call at
_PACKED_ONE = (1, 0, 1)
_PACKED_ZERO = (0, 0, 0)


class _LaneOverflow(Exception):
    """A carried bound does not fit in the lanes of w bits."""


def _mul(a, b):
    return a[0] * b[0], a[1] + b[1], a[2] * b[2]


def _add_into(acc, key, value, w):
    """acc[key] += value on packed coefficients, the shifts aligned to the lower."""
    old = acc.get(key)
    if old is None:
        acc[key] = value
        return
    (x, e, b), (y, f, c) = old, value
    if e > f:
        x, e, y, f = y, f, x, e
    acc[key] = x + (y << w * (f - e)), e, b + c


def _lanes(v, w):
    """v's int once its carried bound is checked: its w-bit lanes hold the
    coefficients exactly, so a zero test, a lowest-lane test or a decode of
    it is exact.  Raises _LaneOverflow otherwise."""
    if v[2].bit_length() >= w:
        raise _LaneOverflow
    return v[0]


def _same(a, b, w):
    """Whether the packed a and b are one polynomial: their difference, of
    bound at most the sum of theirs, is zero."""
    (x, e, c), (y, f, d) = a, b
    if e > f:
        x, e, y, f = y, f, x, e
    return not _lanes((x - (y << w * (f - e)), e, c + d), w)


def _low_lane(v, w):
    """The q-exponent of v's lowest term (v != 0)."""
    x = _lanes(v, w)
    return ((x & -x).bit_length() - 1) // w + v[1]


def _is_one(v, w):
    x, e = _lanes(v, w), v[1]
    return e <= 0 and x == 1 << w * -e


def _decode(v, w):
    return _decode_columns({0: v}, w)


def _decode_columns(cols, w):
    """{f: packed coefficient of t^f} as one LaurentPoly2 in q and t."""
    terms = {}
    for f, v in cols.items():
        x = _lanes(v, w)
        if x:
            lane_digits_into(terms, x, w, v[1], f)
    return LaurentPoly2._adopt(terms)


def _nonzero(acc, w):
    return {key: v for key, v in acc.items() if _lanes(v, w)}


@cache
def _binoms(top, w):
    """{(n, r): [n r]_q at q = 2^w} for 0 <= r <= n <= top."""
    return qbinomial_ints(top, w)


def _binomial_product(e, pairs, w):
    """q^e prod [n r]_{1/q} over the pairs (n, r), packed: [n r]_{1/q} is
    q^{-r(n-r)} [n r]_q, of L1 norm C(n, r)."""
    x, b = 1, 1
    for n, r in pairs:
        if 0 < r < n:
            x, e, b = x * _binoms(n, w)[n, r], e - r * (n - r), b * comb(n, r)
    return x, e, b


def _in_zq(g, error, args, w):
    """The packed g != 0, asserted to lie in Z[q] (else the error text error % args)."""
    if _low_lane(g, w) < 0:
        raise AssertionError(error % args)
    return g


def _widened(fn):
    """fn(w) at w = _START_W, rerun at twice the bits for as long as a
    carried bound does not fit.  Nothing is cleared: every cached packed
    value is keyed on its w."""
    w = _START_W
    while True:
        try:
            return fn(w)
        except _LaneOverflow:
            w *= 2


# -- closed forms and column walks ---------------------------------------------

def hall_skew(lam, mu):
    """The nu-summed Hall polynomial g^lambda_mu(q); 0 when mu is not inside lambda."""
    if not lam.contains(mu):
        return ZERO
    return _widened(lambda w: _decode(_skew_packed(lam.parts, mu.parts, w), w))


@cache
def _skew_packed(lam, mu, w):
    """g^lam_mu packed in w-bit lanes, for part tuples mu inside lam."""
    lc, mc = conjugate_parts(lam) + (0,), conjugate_parts(mu)
    width = len(lc) - 1
    mc += (0,) * (width + 1 - len(mc))
    return _in_zq(_binomial_product(sum(m * (l - m) for l, m in zip(lc, mc)),
                                    [(lc[i] - mc[i + 1], lc[i] - mc[i]) for i in range(width)], w),
                  "hall_skew left Z[q]: %s, %s", (lam, mu), w)


def column_walk(columns, start, one, binoms, gap, column):
    """A Hall sum as a walk over columns, grouped by its last column.

    Sums over lam with lam'_1 <= top and at most `columns` columns, and over
    mu inside lam, the product over columns i = 1..columns of

        (gap from lam'_{i-1} to lam'_i) [lam'_{i-1} - mu'_i, lam'_{i-1} - mu'_{i-1}]_{1/q}
            (column factor of column i at (lam'_i, mu'_i))

    with (lam'_0, mu'_0) = start, (top, top) for a two-index sum; the
    binomials are hall_skew's.  From (top, 0) mu'_i stays 0 and every
    binomial is [a a] = 1: the walk is a one-index sum over lam alone, its
    sum over b is the states themselves, and binoms is None.  A step from
    the state (a, b) = (lam'_i, mu'_i) to (a2, b2), a2 <= a and
    b2 <= min(b, a2), sums over b per (a, b2), then over a per (a2, b2),
    then applies the column factor.  The walk runs in the caller's
    ring: one is its 1 (the start value), binoms[(n, r)] is [n r]_{1/q} in it
    for 0 <= r <= n <= top, and the callbacks gap(v, a, a2) and
    column(i, v, a, b) multiply v by the gap and column factors; a state
    that is 0 after its column is dropped.  Returns the last-column states
    {(lam'_columns, mu'_columns): value}; each caller folds them in its own
    ring.
    """
    states = {start: one}
    for i in range(1, columns + 1):
        by_b2 = states  # one-index: b2 = b = 0, and [a a] = 1
        if binoms is not None:
            by_b2 = {}
            for (a, b), v in states.items():
                for b2 in range(b + 1):
                    # [n 0] = [n n] = 1 needs no product
                    n, r = a - b2, a - b
                    _accumulate(by_b2, (a, b2), v if r in (0, n) else binoms[(n, r)] * v)
        steps = {}
        for (a, b2), w in by_b2.items():
            for a2 in range(b2, a + 1):
                _accumulate(steps, (a2, b2), gap(w, a, a2))
        states = {key: column(i, w, *key) for key, w in steps.items()}
        states = {key: v for key, v in states.items() if v}
    return states


def _accumulate(acc, key, value):
    acc[key] = acc[key] + value if key in acc else value


def hall_box(m, d, mu):
    """g^{(m^d)}_mu(q) by the box formula; independent of m once m >= mu_1.

    The Pochhammer ratio q^{d|mu|} / (q^{sum mu'_i^2} prod (1/q;1/q)_{gaps})
    * (1/q;1/q)_d / (1/q;1/q)_{d-mu'_1} is exactly the q^-1-multinomial over
    the column gaps of mu together with d - mu'_1, so no division occurs.
    """
    require(0, m=m, d=d)
    if not Partition.box(m, d).contains(mu):
        raise ValueError("%s does not fit in the %dx%d box" % (mu, d, m))
    return _widened(lambda w: _decode(_box_packed(m, d, mu, w), w))


def _box_packed(m, d, mu, w):
    """hall_box(m, d, mu) packed in w-bit lanes, for mu inside the box."""
    conj = conjugate_parts(mu.parts)
    gaps = [conj[i] - (conj[i + 1] if i + 1 < len(conj) else 0) for i in range(len(conj))]
    pairs, total = [], 0
    for a in gaps + [d - (conj[0] if conj else 0)]:
        total += a
        pairs.append((total, a))
    return _in_zq(_binomial_product(d * mu.size() - sum(c * c for c in conj), pairs, w),
                  "hall_box left Z[q]: m=%d d=%d %s", (m, d, mu), w)


def surjection_count(d, mu):
    """Number of surjections R^d ->> M for M of type mu, as a polynomial in q.

    Equals q^{d|mu|} (1/q;1/q)_d / (1/q;1/q)_{d-mu'_1}; zero when mu needs more
    than d generators.
    """
    require(0, d=d)
    top = mu.conj_part(1)
    if top > d:
        return ZERO
    result = LaurentPoly2.monomial(1, d * mu.size(), 0) * qpoch_qinv_ratio(d, top)
    if not result.is_polynomial():
        raise AssertionError("surjection count left Z[q]")
    return result


# -- the Hall algebra ----------------------------------------------------------
#
# An element sum_lam c_lam u_lam is a dict {part tuple: packed coefficient}.


def _n_stat(parts):
    return sum(i * p for i, p in enumerate(parts))


def _vertical_strips(mu, m):
    """All lam with lam/mu a vertical m-strip, as part tuples.

    A box may go to each row; within a run of equal parts of mu (and the m
    empty rows below it) the boxes go to the run's first rows.
    """
    runs = [(p, mu.count(p)) for p in sorted(set(mu), reverse=True)] + [(0, m)]

    def rec(r, left):
        if r == len(runs):
            if not left:
                yield ()
            return
        p, count = runs[r]
        for k in range(min(count, left) + 1):
            for rest in rec(r + 1, left - k):
                yield (p + 1,) * k + (p,) * (count - k) + rest

    for lam in rec(0, m):
        yield tuple(p for p in lam if p)


def _pieri(mu, m, w):
    """u_mu times u_(1^m): {lam: g^lam_{mu (1^m)}(q)} by the vertical-strip Pieri rule,

        g^lam_{mu (1^m)} = q^{n(lam)-n(mu)-C(m,2)} prod_i [lam'_i-lam'_{i+1}, lam'_i-mu'_i]_{1/q}

    (Macdonald Ch. II Sec. 4), with n(lam) = sum (i-1) lam_i.
    """
    mc = conjugate_parts(mu)
    out = {}
    for lam in _vertical_strips(mu, m):
        lc = conjugate_parts(lam) + (0,)
        out[lam] = _in_zq(_binomial_product(
            _n_stat(lam) - _n_stat(mu) - m * (m - 1) // 2,
            [(lc[i] - lc[i + 1], lc[i] - (mc[i] if i < len(mc) else 0))
             for i in range(len(lc) - 1)], w),
            "Pieri coefficient left Z[q]: %s, %s, %d", (lam, mu, m), w)
    return out


@cache
def _times_columns(mu, kappa, w):
    """u_mu times the column product u_(1^kappa'_1) ... u_(1^kappa'_k), by Pieri steps.

    Cached per (mu, kappa, w); the product is that of kappa without its last
    column, times the last column.
    """
    cols = conjugate_parts(kappa)
    if len(cols) <= 1:
        return _pieri(mu, cols[0], w) if cols else {mu: _PACKED_ONE}
    got = {}
    rest = tuple(p - 1 if p == len(cols) else p for p in kappa)
    for rho, c in _times_columns(mu, tuple(p for p in rest if p), w).items():
        for lam, g in _times_columns(rho, (1,) * cols[-1], w).items():
            _add_into(got, lam, _mul(c, g), w)
    return _nonzero(got, w)


@cache
def _column_inverse(nu, w):
    """{kappa: D_{nu kappa}} with u_nu = sum_kappa D_{nu kappa} (column product of kappa).

    The column product of nu is u_nu plus dominance-lower terms, with
    coefficient exactly 1 at u_nu (Macdonald Ch. II Sec. 4), so the system is
    unitriangular and D follows by recursion over the lower terms.
    """
    product = _times_columns((), nu, w)
    lead = product.get(nu, _PACKED_ZERO)
    if not _is_one(lead, w):
        raise AssertionError("column product of %s has leading coefficient %s"
                             % (nu, _decode(lead, w)))
    got = {nu: _PACKED_ONE}
    for rho, a in product.items():
        if rho != nu:
            for kappa, d in _column_inverse(rho, w).items():
                x, e, b = _mul(a, d)
                _add_into(got, kappa, (-x, e, b), w)
    return _nonzero(got, w)


def hall_pair_expansion(mu, nu):
    """{lambda: g^lambda_{mu nu}(q)}, the product u_mu u_nu in the Hall algebra;
    lambda with g = 0 are left out."""
    return _widened(lambda w: {Partition(lam): _decode(g, w)
                               for lam, g in _pair_packed(mu.parts, nu.parts, w).items()})


@cache
def _pair_packed(mu, nu, w):
    """{lam: g^lam_{mu nu} packed in w-bit lanes} on part tuples, lam with
    g = 0 left out.

    u_nu is written in column products by _column_inverse, and u_mu times each
    column product is a chain of Pieri steps.
    """
    acc = {}
    for kappa, d in _column_inverse(nu, w).items():
        for lam, g in _times_columns(mu, kappa, w).items():
            _add_into(acc, lam, _mul(d, g), w)
    return _nonzero(acc, w)


def hall_general(lam, mu, nu):
    """g^lambda_{mu nu}(q); vanishes unless |lambda| = |mu|+|nu| and mu,nu inside
    lambda, as every lambda of the expansion of u_mu u_nu is such."""
    return _widened(
        lambda w: _decode(_pair_packed(mu.parts, nu.parts, w).get(lam.parts, _PACKED_ZERO), w))


# -- the scans of criteria 6 and 7 ---------------------------------------------


def skew_cauchy_mismatch(m, d):
    """The first mu in the d-by-m box where the bounded skew-Cauchy identity
    of quotzeta.skew_cauchy_bounded_check fails, as (mu, lhs, rhs), or None.

    Both sides are packed, one value per t-column: as
    (t;q)_n = sum_r (-1)^r q^{C(r,2)} [n r]_q t^r, the t^f column of the left
    side sums g^lam_mu g_lam (-1)^r q^{C(r,2)} [n r]_q over lam and r with
    |lam| + r = f, n = d - lam'_m.
    """
    def scan(w):
        weights = []  # (lam, g_lam, {f: t^f column of g_lam t^|lam| (t;q)_{d-lam'_m}})
        for lam in iterate_box(m, d):
            g, n = _box_packed(m, d, lam, w), d - lam.conj_part(m)
            cols = {}
            for r in range(n + 1):
                # [n r]_q is q^{r(n-r)} [n r]_{1/q}
                x, e, b = _mul(g, _binomial_product(r * (r - 1) // 2 + r * (n - r), [(n, r)], w))
                cols[lam.size() + r] = (-x if r % 2 else x, e, b)
            weights.append((lam, g, cols))
        for mu, g_mu, _ in weights:
            lhs = {}
            for lam, _, cols in weights:
                if lam.contains(mu):
                    skew = _skew_packed(lam.parts, mu.parts, w)
                    for f, v in cols.items():
                        _add_into(lhs, f, _mul(v, skew), w)
            rhs = {mu.size(): g_mu}
            if not all(_same(lhs.get(f, _PACKED_ZERO), rhs.get(f, _PACKED_ZERO), w)
                       for f in lhs.keys() | rhs.keys()):
                return mu, _decode_columns(lhs, w), _decode_columns(rhs, w)
        return None
    return _widened(scan)


def box_vs_skew_mismatch():
    """The first (m, d, mu), m, d <= 3, where hall_box(m, d, mu) is not
    hall_skew((m^d), mu), as ((m, d, mu), box, skew), or None."""
    def scan(w):
        for m in (1, 2, 3):
            for d in (1, 2, 3):
                lam = (m,) * d
                for mu in iterate_box(m, d):
                    box, skew = _box_packed(m, d, mu, w), _skew_packed(lam, mu.parts, w)
                    if not _same(box, skew, w):
                        return (m, d, str(mu)), _decode(box, w), _decode(skew, w)
        return None
    return _widened(scan)


def _pair_table(by_size, w):
    """{(mu, nu): _pair_packed(mu, nu, w)} on part tuples, over the sizes of by_size."""
    top = len(by_size) - 1
    return {(mu.parts, nu.parts): _pair_packed(mu.parts, nu.parts, w)
            for a in range(top + 1) for mu in by_size[a]
            for b in range(top + 1 - a) for nu in by_size[b]}


def completeness_mismatch():
    """The first (lam, mu), |lam| <= 6, where sum_nu g^lam_{mu nu} is not
    g^lam_mu, as ((lam, mu), sum, g^lam_mu), or None."""
    def scan(w):
        by_size = [partitions_of(n) for n in range(0, 7)]
        totals = {}  # (lam, mu) -> sum over nu of g^lam_{mu nu}
        for (mu, _), expansion in _pair_table(by_size, w).items():
            for lam, g in expansion.items():
                _add_into(totals, (lam, mu), g, w)
        for n in range(0, 7):
            for lam in by_size[n]:
                for mu in subpartitions(lam):
                    total = totals.get((lam.parts, mu.parts), _PACKED_ZERO)
                    skew = _skew_packed(lam.parts, mu.parts, w)
                    if not _same(total, skew, w):
                        return (str(lam), str(mu)), _decode(total, w), _decode(skew, w)
        return None
    return _widened(scan)


def symmetry_mismatch():
    """The first (lam, mu, nu), |lam| <= 6, where g^lam_{mu nu} is not
    g^lam_{nu mu}, as ((lam, mu, nu), g^lam_{mu nu}, g^lam_{nu mu}), or None."""
    def scan(w):
        by_size = [partitions_of(n) for n in range(0, 7)]
        pairs = _pair_table(by_size, w)
        for n in range(0, 7):
            sides = [(mu, nu, pairs[mu.parts, nu.parts], pairs[nu.parts, mu.parts])
                     for a in range(n + 1) for mu in by_size[a] for nu in by_size[n - a]]
            for lam in by_size[n]:
                for mu, nu, expansion, mirrored in sides:
                    g = expansion.get(lam.parts, _PACKED_ZERO)
                    mirror = mirrored.get(lam.parts, _PACKED_ZERO)
                    if g is not mirror and not _same(g, mirror, w):
                        return (str(lam), str(mu), str(nu)), _decode(g, w), _decode(mirror, w)
        return None
    return _widened(scan)
