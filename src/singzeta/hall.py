"""Hall polynomials: closed forms, a general algorithm, and an oracle hook.

g^lambda_{mu nu}(q) counts submodules of type mu and cotype nu in a finite
DVR-module of type lambda.  The nu-summed g^lambda_mu has the closed form

    g^lambda_mu(q) = q^{sum mu'_i (lam'_i - mu'_i)}
                     prod_i [lam'_i - mu'_{i+1} choose lam'_i - mu'_i]_{1/q},

and for a box lambda = (m^d) it collapses to an m-independent q^-1-multinomial.
The fully general g^lambda_{mu nu} is computed by expanding a product of
Hall-Littlewood P-polynomials in ell(mu)+ell(nu) variables and converting the
structure constants f^lambda_{mu nu}(xi) via

    g^lambda_{mu nu}(q) = q^{n(lambda)-n(mu)-n(nu)} f^lambda_{mu nu}(1/q),

with n(lambda) = sum (i-1) lambda_i.  All arithmetic is exact; every closed
form is assembled division-free and asserted to land in Z[q].

g^lambda_mu and the box multinomial are products over the columns of lambda
and mu, so a sum of them over mu <= lambda is a walk over column states
(lambda'_i, mu'_i): column_walk serves both of the node's two-index sums, over
the box (quotzeta.nz_node_free) and over lambda_1 <= m (clzeta.cl_node).
box_walk is the one-index walk over the states mu'_i alone; it serves three
sums, both normalization numerators (quotzeta._normalization_walk) and the
cusp's CL numerator (clzeta._cusp_numerator).  Both walks take the same
callbacks: lift into the caller's ring, and gap and column factors.
"""

from .laurent import (LaurentPoly2, ZERO, ONE, T, QINV, qbinomial_qinv,
                      qmultinomial_qinv, qpoch_qinv_ratio)
from .oracle import DEFAULT_BUDGET, dvr_type_cotype_census
from .partitions import Partition


def _conj_with_pad(lam, upto):
    return [lam.conj_part(i) for i in range(1, upto + 1)]


def hall_skew(lam, mu):
    """The nu-summed Hall polynomial g^lambda_mu(q); 0 when mu is not inside lambda."""
    if not lam.contains(mu):
        return ZERO
    width = lam.part(1)
    lc = _conj_with_pad(lam, width + 1)
    mc = _conj_with_pad(mu, width + 1)
    e = sum(m * (l - m) for l, m in zip(lc, mc))
    result = LaurentPoly2.monomial(1, e, 0)
    for i in range(width):
        result = result * qbinomial_qinv(lc[i] - mc[i + 1], lc[i] - mc[i])
    if not result.is_polynomial():
        raise AssertionError("hall_skew left Z[q]: %s, %s" % (lam, mu))
    return result


def column_walk(columns, top, lift, gap, column):
    """A two-index Hall sum as a walk over columns, grouped by its last column.

    Sums over lam with lam'_1 <= top and at most `columns` columns, and over
    mu inside lam, the product over columns i = 1..columns of

        (gap from lam'_{i-1} to lam'_i) [lam'_{i-1} - mu'_i, lam'_{i-1} - mu'_{i-1}]_{1/q}
            (column factor at (lam'_i, mu'_i))

    with lam'_0 = mu'_0 = top, times [j, i]_{1/q} (1/q;1/q)_j/(1/q;1/q)_i at
    (j, i) = (lam'_columns, mu'_columns); the binomials are hall_skew's.  A step
    from the state (a, b) = (lam'_i, mu'_i) to (a2, b2), a2 <= a and
    b2 <= min(b, a2), sums over b per (a, b2), then over a per (a2, b2), then
    applies the column factor.  The callbacks are box_walk's: lift carries a
    Laurent polynomial into the caller's ring, gap(v, a, a2) and
    column(v, a, b) multiply v by the gap and column factors, and a state
    that is 0 after its column is dropped.  Returns {j: the sum over lam with
    lam'_columns = j}.
    """
    binoms = {(n, r): lift(qbinomial_qinv(n, r)) for n in range(top + 1) for r in range(n + 1)}
    states = {(top, top): lift(ONE)}
    for _ in range(columns):
        by_b2 = {}
        for (a, b), v in states.items():
            for b2 in range(b + 1):
                _accumulate(by_b2, (a, b2), binoms[(a - b2, a - b)] * v)
        steps = {}
        for (a, b2), w in by_b2.items():
            for a2 in range(b2, a + 1):
                _accumulate(steps, (a2, b2), gap(w, a, a2))
        states = {key: column(w, *key) for key, w in steps.items()}
        states = {key: v for key, v in states.items() if v}
    sums = {}
    for (j, i), v in states.items():
        _accumulate(sums, j, lift(qbinomial_qinv(j, i) * qpoch_qinv_ratio(j, j - i)) * v)
    return sums


def box_walk(columns, top, lift, gap, column):
    """A one-index sum over partitions as a walk over columns.

    Sums over mu with mu'_1 <= top and at most `columns` columns the product
    over columns i = 1..columns of

        (gap from c_{i-1} to c_i) (column factor of column i at c_i),

    with c_i = mu'_i and c_0 = top.  The callbacks are column_walk's: lift
    carries a Laurent polynomial into the caller's ring (the start value is
    lift(1)), gap(v, c, c2) multiplies v by the gap factor, and
    column(v, i, c) by the column factor, which may depend on i; a state
    that is 0 after its column is dropped.  A step sums gap(v, c, c2) over
    c >= c2 per state c2, then applies the column factor.  Returns the
    last-column states {c_columns: value}.
    """
    states = {top: lift(ONE)}
    for i in range(1, columns + 1):
        steps = {}
        for c, v in states.items():
            for c2 in range(c + 1):
                _accumulate(steps, c2, gap(v, c, c2))
        states = {c2: column(w, i, c2) for c2, w in steps.items()}
        states = {c2: v for c2, v in states.items() if v}
    return states


def _accumulate(acc, key, value):
    acc[key] = acc[key] + value if key in acc else value


def hall_box(m, d, mu):
    """g^{(m^d)}_mu(q) by the box formula; independent of m once m >= mu_1.

    The Pochhammer ratio q^{d|mu|} / (q^{sum mu'_i^2} prod (1/q;1/q)_{gaps})
    * (1/q;1/q)_d / (1/q;1/q)_{d-mu'_1} is exactly the q^-1-multinomial over
    the column gaps of mu together with d - mu'_1, so no division occurs.
    """
    if not Partition.box(m, d).contains(mu):
        raise ValueError("%s does not fit in the %dx%d box" % (mu, d, m))
    conj = mu.conjugate().parts
    gaps = [conj[i] - (conj[i + 1] if i + 1 < len(conj) else 0) for i in range(len(conj))]
    top = conj[0] if conj else 0
    e = d * mu.size() - sum(c * c for c in conj)
    result = LaurentPoly2.monomial(1, e, 0) * qmultinomial_qinv(gaps + [d - top])
    if not result.is_polynomial():
        raise AssertionError("hall_box left Z[q]: m=%d d=%d %s" % (m, d, mu))
    return result


def surjection_count(d, mu):
    """Number of surjections R^d ->> M for M of type mu, as a polynomial in q.

    Equals q^{d|mu|} (1/q;1/q)_d / (1/q;1/q)_{d-mu'_1}; zero when mu needs more
    than d generators.
    """
    top = mu.conj_part(1)
    if top > d:
        return ZERO
    result = LaurentPoly2.monomial(1, d * mu.size(), 0) * qpoch_qinv_ratio(d, top)
    if not result.is_polynomial():
        raise AssertionError("surjection count left Z[q]")
    return result


# -- Hall-Littlewood structure constants ----------------------------------------
#
# Symmetric polynomials in N variables are stored in monomial-symmetric
# coordinates: {padded descending exponent tuple: coefficient in Z[xi]}, with
# xi-polynomials carried by LaurentPoly2 in its q slot.


def _horizontal_strips(lam):
    """All mu with lam/mu a horizontal strip (interlacing condition)."""
    rows = lam.parts
    n = len(rows)

    def rec(i, prefix):
        if i == n:
            yield Partition(prefix)
            return
        hi = rows[i]
        lo = rows[i + 1] if i + 1 < n else 0
        upper = min(hi, prefix[-1]) if prefix else hi
        for p in range(lo, upper + 1):
            yield from rec(i + 1, prefix + (p,))

    yield from rec(0, ())


def _psi(lam, mu):
    """Branching coefficient prod_{i: m_i(mu)=m_i(lam)+1} (1 - xi^{m_i(mu)})."""
    mult_l, mult_m = {}, {}
    for p in lam.parts:
        mult_l[p] = mult_l.get(p, 0) + 1
    for p in mu.parts:
        mult_m[p] = mult_m.get(p, 0) + 1
    result = ONE
    for i, mm in mult_m.items():
        if mm == mult_l.get(i, 0) + 1:
            result = result * (ONE - LaurentPoly2.monomial(1, mm, 0))
    return result


_HLP_CACHE = {}


def _hl_p_expansion(lam, n):
    """Monomial-symmetric coordinates of P_lambda in n variables.

    The coefficient of m_kappa is the coefficient of the weakly decreasing
    representative composition, so we just filter the composition dict.
    """
    key = (lam.parts, n)
    got = _HLP_CACHE.get(key)
    if got is None:
        got = {expo: c for expo, c in _hl_composition_expansion(lam, n).items()
               if expo == tuple(sorted(expo, reverse=True))}
        _HLP_CACHE[key] = got
    return got


_HLC_CACHE = {}


def _hl_composition_expansion(lam, n):
    """{composition tuple of length n: xi-poly} for P_lambda(x_1..x_n; xi)."""
    key = (lam.parts, n)
    got = _HLC_CACHE.get(key)
    if got is not None:
        return got
    if lam.length() > n:
        result = {}
    elif n == 0:
        result = {(): ONE}
    else:
        result = {}
        for mu in _horizontal_strips(lam):
            sub = _hl_composition_expansion(mu, n - 1)
            if not sub:
                continue
            coeff = _psi(lam, mu)
            x_pow = lam.size() - mu.size()
            for expo, c in sub.items():
                k = expo + (x_pow,)
                term = coeff * c
                prev = result.get(k)
                result[k] = term if prev is None else prev + term
        result = {k: v for k, v in result.items() if not v.is_zero()}
    _HLC_CACHE[key] = result
    return result


def _n_stat(lam):
    return sum(i * p for i, p in enumerate(lam.parts))


_HALL_PAIR_CACHE = {}


def hall_pair_expansion(mu, nu):
    """{lambda: f^lambda_{mu nu}(xi)} from the product P_mu * P_nu.

    Uses ell(mu)+ell(nu) variables (enough for every lambda with a nonzero
    constant) and solves the triangular system by repeatedly stripping the
    lexicographically largest monomial-symmetric component, which is dominance-
    maximal because P_lambda = m_lambda + (dominance-lower terms).
    """
    key = (mu.parts, nu.parts)
    got = _HALL_PAIR_CACHE.get(key)
    if got is not None:
        return got
    n = mu.length() + nu.length()
    a = _hl_composition_expansion(mu, n)
    b = _hl_composition_expansion(nu, n)
    prod = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = tuple(x + y for x, y in zip(e1, e2))
            term = c1 * c2
            prev = prod.get(k)
            prod[k] = term if prev is None else prev + term
    # monomial-symmetric coordinates: keep only the sorted representatives
    rem = {}
    for expo, c in prod.items():
        srt = tuple(sorted(expo, reverse=True))
        if expo == srt and not c.is_zero():
            rem[srt] = c
    out = {}
    while rem:
        top = max(rem)
        c = rem.pop(top)
        if c.is_zero():
            continue
        lam = Partition(p for p in top if p)
        out[lam] = c
        for expo, pc in _hl_p_expansion(lam, n).items():
            if expo == top:
                continue
            delta = -c * pc
            prev = rem.get(expo)
            total = delta if prev is None else prev + delta
            if total.is_zero():
                rem.pop(expo, None)
            else:
                rem[expo] = total
    _HALL_PAIR_CACHE[key] = out
    return out


def hall_general(lam, mu, nu):
    """g^lambda_{mu nu}(q); vanishes unless |lambda| = |mu|+|nu| and mu,nu inside lambda."""
    if lam.size() != mu.size() + nu.size():
        return ZERO
    if not (lam.contains(mu) and lam.contains(nu)):
        return ZERO
    f = hall_pair_expansion(mu, nu).get(lam)
    if f is None:
        return ZERO
    shift = _n_stat(lam) - _n_stat(mu) - _n_stat(nu)
    g = LaurentPoly2.monomial(1, shift, 0) * f.substitute(QINV, T)
    if not g.is_polynomial():
        raise AssertionError("hall_general left Z[q]: %s %s %s" % (lam, mu, nu))
    return g


def hall_count_oracle(lam, mu, nu, p, budget=DEFAULT_BUDGET):
    """Exact submodule count over F_p by exhaustive invariant-subspace search.

    Counts submodules of type mu (and cotype nu when given) of the module
    (+) F_p[T]/T^{lam_i}; delegated to the oracle module's census.
    """
    census = dvr_type_cotype_census(lam, p, budget=budget)
    if nu is None:
        return sum(c for (tm, _), c in census.items() if tm == mu.parts)
    return census.get((mu.parts, nu.parts), 0)
