import random
import re
from math import isqrt

import pytest

import cl_reference
import series_reference as ref
from series_reference import mul
from singzeta import clzeta
from singzeta.hall import hall_skew
from singzeta.laurent import (ONE, Q, QINV, T, ZERO, LaurentPoly2, qbinomial,
                              qpoch_qinv_ratio)
from singzeta.partitions import partitions_of, subpartitions
from singzeta.quotzeta import SingularityFamily, nz
from singzeta.report import BudgetExceededError
from singzeta.series import TruncSeries2
from singzeta.clzeta import (cl_series, convert_rank, limit_check, matrix_count_formula,
                             node22_phi11, special_values, z_series,
                             scaled_z_trunc, andrews_gordon_product,
                             node_minus1_product)
from singzeta.tables import TABLE3, table3_entry_bounds


def inv_upoch(n, u_prec):
    """1/(u;u)_n as a t-free series below u^u_prec."""
    return TruncSeries2.one(u_prec, 1).times_poch(1, 0, n, power=-1)


def ut_poch_inf(a, u_prec, t_prec):
    """(u^a t; u)_inf on the window."""
    return TruncSeries2.one(u_prec, t_prec).times_poch(a, 1)


def test_cl_cusp_low_coefficients():
    series = cl_series("cusp", 1, 8, 4)
    assert series.numerator.coeffs[(0, 0)] == 1
    # t^2 coefficient is u/(1-u) = u + u^2 + ...
    col = series.numerator.t_coefficient(2)
    assert col == {i: 1 for i in range(1, 8)}
    assert series.numerator.t_coefficient(1) == {}


def test_cl_full_vs_numerator():
    series = cl_series("node", 1, 6, 4)
    rebuilt = mul(series.numerator, ref.power(ut_poch_inf(1, 6, 4), -2))
    assert rebuilt == series.full


def test_cl_node_table3_coefficients():
    for m in (1, 2, 3):
        bounds = table3_entry_bounds(m)
        u_prec = max(bounds.values()) + 1
        numerator = cl_series("node", m, u_prec, 6).numerator
        for j, col in TABLE3[m].items():
            got = numerator.t_coefficient(j)
            for a, c in col:
                assert got.get(a, 0) == c, (m, j, a)


def _cl_node_term_by_term(m, u_prec, t_prec):
    """The node numerator as one series term per (lam, mu), no lam-level prune:
    (ut;u)^2_inf sum g^lam_mu (u;u)_{lam'_m} t^{2|lam|-|mu|}
                     / (a(lam) (u;u)_{mu'_m} (ut;u)^2_{lam'_m})."""
    def u_series(poly, shift):
        out = {}
        for (a, b), c in poly.terms.items():
            assert shift - a >= 0
            if shift - a < u_prec and b < t_prec:
                out[(shift - a, b)] = c
        return TruncSeries2(u_prec, t_prec, out)

    def inv_u_poch(n):
        return TruncSeries2(u_prec, t_prec, inv_upoch(n, u_prec).coeffs)

    total = TruncSeries2(u_prec, t_prec)
    for lam in [lam for n in range(t_prec) for lam in partitions_of(n, m)]:
        lam_conj = lam.conjugate().parts
        sum_sq = sum(c * c for c in lam_conj)
        lam_m = lam.conj_part(m)
        inv_a_tail = TruncSeries2.one(u_prec, t_prec)
        for i, c in enumerate(lam_conj):
            gap = c - (lam_conj[i + 1] if i + 1 < len(lam_conj) else 0)
            inv_a_tail = mul(inv_a_tail, inv_u_poch(gap))
        ut_poch = ONE
        for k in range(1, lam_m + 1):
            ut_poch = ut_poch * (ONE - LaurentPoly2.monomial(1, -k, 1))
        inv_ut_sq = ref.power(u_series(ut_poch, 0), -2)
        for mu in subpartitions(lam):
            t_order = 2 * lam.size() - mu.size()
            if t_order >= t_prec:
                continue
            mu_conj = mu.conjugate().parts
            if sum_sq - sum(mc * (lc - mc) for lc, mc in zip(lam_conj, mu_conj)) >= u_prec:
                continue
            term = u_series(hall_skew(lam, mu) * qpoch_qinv_ratio(lam_m, lam_m), sum_sq)
            term = mul(term, inv_a_tail, inv_u_poch(mu.conj_part(m)), inv_ut_sq)
            total = total + mul(term, TruncSeries2(u_prec, t_prec, {(0, t_order): 1}))
    return mul(ref.power(ut_poch_inf(1, u_prec, t_prec), 2), total)


def test_cl_node_matches_term_by_term_sum():
    for m in (1, 2, 3):
        for u_prec, t_prec in ((13, 8), (21, 8), (13, 16), (5, 12)):
            want = _cl_node_term_by_term(m, u_prec, t_prec)
            got = cl_series("node", m, u_prec, t_prec).numerator
            assert (got.u_prec, got.t_prec) == (want.u_prec, want.t_prec) == (u_prec, t_prec)
            assert got.coeffs == want.coeffs, (m, u_prec, t_prec)


def test_cl_node_matches_term_by_term_sum_at_window_edges():
    # the walk starts at the first column length a with a >= t_prec or
    # 3a^2 >= 4 u_prec (1, 2, 2 and 3 here), and drops the states it shifts
    # off these small windows
    for m in range(1, 5):
        for u_prec, t_prec in ((1, 1), (1, 6), (2, 3), (5, 3)):
            want = _cl_node_term_by_term(m, u_prec, t_prec)
            got = cl_series("node", m, u_prec, t_prec).numerator
            assert (got.u_prec, got.t_prec) == (u_prec, t_prec)
            assert got.coeffs == want.coeffs, (m, u_prec, t_prec)


def _cl_node_per_j(m, u_prec, t_prec):
    """The node numerator with each end factor (u^{j+1}t;u)^2_inf/(u;u)_j built
    on its own and multiplied onto the walk's sum at j."""
    total = TruncSeries2(u_prec, t_prec)
    for (j, i), s in cl_reference.node_states(m, u_prec, t_prec).items():
        fold = TruncSeries2.from_laurent(
            qbinomial(j, i).substitute(QINV, T) * qpoch_qinv_ratio(j, j - i), u_prec, t_prec)
        tail = TruncSeries2(u_prec, t_prec, inv_upoch(j, u_prec).coeffs)
        total = total + mul(s, fold, mul(tail, ref.power(ut_poch_inf(j + 1, u_prec, t_prec), 2)))
    return total


def test_cl_node_horner_matches_per_j_products():
    for m in (1, 2, 3, 4):
        for u_prec, t_prec in ((1, 1), (5, 3), (13, 16), (30, 8), (25, 20)):
            got = cl_series("node", m, u_prec, t_prec).numerator
            assert got == _cl_node_per_j(m, u_prec, t_prec)


def _cl_cusp_per_mu(m, u_prec, t_prec):
    """The cusp numerator as one term u^{sum mu'_i^2} t^{2|mu|} / prod (u;u)_gap
    per mu with parts <= m; |mu|^2 <= m sum mu'_i^2 caps |mu|."""
    total = TruncSeries2(u_prec, t_prec)
    top = min((t_prec - 1) // 2, isqrt(m * (u_prec - 1)))
    for mu in [mu for n in range(top + 1) for mu in partitions_of(n, m)]:
        conj = mu.conjugate().parts
        order = sum(c * c for c in conj)
        if order >= u_prec:
            continue
        term = TruncSeries2(u_prec, t_prec, {(order, 2 * mu.size()): 1})
        for i, c in enumerate(conj):
            gap = c - (conj[i + 1] if i + 1 < len(conj) else 0)
            term = mul(term, TruncSeries2(u_prec, t_prec, inv_upoch(gap, u_prec).coeffs))
        total = total + term
    return total


def test_cl_cusp_walk_matches_per_mu_sum():
    # the walk starts at the first c with 2c >= t_prec or c^2 >= u_prec
    for m in range(1, 5):
        for u_prec, t_prec in ((1, 1), (1, 6), (2, 3), (5, 3), (13, 16), (21, 8), (60, 30)):
            want = _cl_cusp_per_mu(m, u_prec, t_prec)
            got = cl_series("cusp", m, u_prec, t_prec).numerator
            assert (got.u_prec, got.t_prec) == (want.u_prec, want.t_prec) == (u_prec, t_prec)
            assert got.coeffs == want.coeffs, (m, u_prec, t_prec)


def test_packed_numerators_match_the_dict_walks():
    # both families on seeded windows, against the walks on TruncSeries2; the
    # cusp at (40, 12) has a coefficient of 8 bits in its 16-bit lanes
    rng = random.Random(23)
    windows = [("cusp", 3, 60, 2048), ("node", 4, 60, 30), ("node", 1, 60, 2048),
               ("cusp", 1, 40, 12)]
    windows += [(rng.choice(("cusp", "node")), rng.randint(1, 4), rng.randint(1, 60),
                 rng.choice((1, 2, 8, 16, 30, 2048))) for _ in range(45)]
    for kind, m, u_prec, t_prec in windows:
        want = (cl_reference.cusp_numerator if kind == "cusp"
                else cl_reference.node_numerator)(m, u_prec, t_prec)
        got = clzeta.cl_numerator(kind, m, u_prec, t_prec)
        assert (got.u_prec, got.t_prec) == (u_prec, t_prec)
        assert got.coeffs == want.coeffs, (kind, m, u_prec, t_prec)


def test_cl_lanes_hold_every_coefficient():
    # the packed walks decode right only if every coefficient lies strictly
    # between -2^(w-1) and 2^(w-1), w from the helper the ring's width rounds
    # up; the helper bounds the L1 norm, which bounds every coefficient
    for kind in ("cusp", "node"):
        for m in range(1, 5):
            for u_prec, t_prec in ((1, 1), (5, 3), (13, 8), (21, 8), (13, 16), (60, 30),
                                   (40, 2048)):
                numerator = clzeta.cl_numerator(kind, m, u_prec, t_prec)
                norm = sum(abs(c) for c in numerator.coeffs.values())
                assert norm <= clzeta._norm_bound(kind, m, u_prec, t_prec, False)


def test_cl_numerator_makes_no_series_product(monkeypatch):
    # the walks, folds and end factors all run on packed ints; times_poch is
    # the series type's only product
    calls = []
    real = TruncSeries2.times_poch

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(TruncSeries2, "times_poch", counting)
    for kind in ("cusp", "node"):
        assert clzeta.cl_numerator(kind, 3, 21, 8).coeffs[(0, 0)] == 1
    assert len(calls) == 0


def test_full_series_is_the_numerator_over_the_pochhammer():
    # cl_series divides on the packed ring; the dict ring's times_poch is the
    # reference, on the benchmark's windows and a wider one, and the L1 norm
    # of the full series fits its lanes
    for kind, s in (("cusp", 1), ("node", 2)):
        for m in (1, 2, 3):
            for u_prec, t_prec in ((13, 8), (21, 8), (13, 16), (60, 30)):
                series = cl_series(kind, m, u_prec, t_prec)
                want = series.numerator.times_poch(1, 1, power=-s)
                assert (series.full.u_prec, series.full.t_prec) == (u_prec, t_prec)
                assert series.full.coeffs == want.coeffs, (kind, m, u_prec, t_prec)
                norm = sum(abs(c) for c in want.coeffs.values())
                assert norm <= clzeta._norm_bound(kind, m, u_prec, t_prec, True)


def test_end_factor_skip_keeps_the_node_numerator():
    # at u^200 most end-factor steps shift a column wholly off the window
    assert clzeta.cl_numerator("node", 1, 200, 2048) == node22_phi11(200, 2048)


def test_cl_series_rejects_unknown_kind():
    # m < 1 is covered through the CLI in test_cli.test_usage_errors
    with pytest.raises(ValueError, match="kind must be 'cusp' or 'node'"):
        cl_series("tacnode", 1, 5, 4)


def test_node22_phi11_is_the_node_cl_numerator():
    # the 1-phi-1 sum of the (2,2)-link germ against the node walk at m = 1,
    # on every window up to (24, 11), including those where the sum stops at
    # k(k+1)/2 >= u_prec before k reaches t_prec
    for u_prec in range(1, 25):
        for t_prec in range(1, 12):
            got = node22_phi11(u_prec, t_prec)
            assert (got.u_prec, got.t_prec) == (u_prec, t_prec)
            assert got == cl_series("node", 1, u_prec, t_prec).numerator, (u_prec, t_prec)


def test_cl_node_sigma_orders_monotone():
    for m in (1, 2, 3):
        coeffs = cl_series("node", m, 16, 8).numerator.coeffs
        seq = [min(i for i, jj in coeffs if jj == j) for j in sorted({j for _, j in coeffs})]
        assert seq == sorted(seq)


def test_z_series_matches_oracle_shape():
    z = z_series("node", 1, 1, 4)
    assert z == [ONE, ONE, ONE + Q, ONE + 2 * Q]


def test_scaled_z_constant_term():
    s = scaled_z_trunc("node", 1, 4, 5, 3)
    assert s.coeffs[(0, 0)] == 1


def _scaled_z_factor_by_factor(kind, m, d, u_prec, t_prec):
    """Z_{R^d}(u^d t) dividing by each (1 - u^j t)^s in turn."""
    fam = SingularityFamily(kind, m)
    scaled = nz(fam, d, "free").substitute(Q, LaurentPoly2.monomial(1, -d, 1))
    prod = TruncSeries2.from_laurent(scaled, u_prec, t_prec)
    for j in range(1, d + 1):
        factor = TruncSeries2(u_prec, t_prec, {(0, 0): 1, (j, 1): -1})
        prod = mul(prod, ref.power(factor, -fam.s))
    return prod


def test_scaled_z_matches_factor_by_factor():
    # NZ has t-degree at most 2md <= 12 here, so on (6, 13) the node walk's
    # t-window drops nothing
    for kind in ("cusp", "node"):
        for m in (1, 2, 3):
            for d in range(6 - m):
                assert max(b for _, b in nz(SingularityFamily(kind, m), d).terms) < 13
                for u_prec, t_prec in ((5, 3), (9, 1), (25, 4), (6, 13)):
                    assert (scaled_z_trunc(kind, m, d, u_prec, t_prec)
                            == _scaled_z_factor_by_factor(kind, m, d, u_prec, t_prec))


def test_limit_check():
    assert limit_check("node", 1, [4, 5], 5, 3).passed
    assert limit_check("cusp", 1, [4, 5], 5, 4).passed
    # rank d fixes the limit below u^{d+1} and no further
    for kind in ("cusp", "node"):
        for m in (1, 2):
            for d in range(5):
                assert limit_check(kind, m, [d, d + 1], d + 1, 3).passed, (kind, m, d)
                rep = limit_check(kind, m, [d, d + 1], d + 2, 3)
                assert rep.status == "fail", (kind, m, d)
                assert rep.discrepancy == (d + 1, 1), (kind, m, d)
                assert rep.detail == "consecutive ranks disagree"
    with pytest.raises(ValueError):
        limit_check("node", 1, [4], 5, 3)


def test_conversion_roundtrip():
    u_prec, t_prec, d = 6, 4, 3
    zq = [z_series("node", 1, r, t_prec + d) for r in range(d + 1)]
    mhilb = [convert_rank(zq[:dd + 1], "quot_to_mhilb", u_prec, t_prec) for dd in range(d + 1)]
    back = convert_rank(mhilb, "mhilb_to_quot", u_prec, t_prec)
    assert back == z_series("node", 1, d, t_prec)
    # (A) needs Z_{mR^r} only to t^(t_prec - r)
    short = [z[:t_prec - r] for r, z in enumerate(mhilb)]
    assert convert_rank(short, "mhilb_to_quot", u_prec, t_prec) == back


def test_conversion_d0_identity():
    z0 = [z_series("node", 1, 0, 4)]
    out = convert_rank(z0, "mhilb_to_quot", 6, 4)
    assert out == [ONE, ZERO, ZERO, ZERO]


def test_conversion_cl_agreement():
    u_prec, t_prec = 6, 4
    zq = [z_series("node", 1, r, 2 * t_prec) for r in range(t_prec)]
    mhilb = [convert_rank([z[:t_prec + dd] for z in zq[:dd + 1]], "quot_to_mhilb", u_prec, t_prec)
             for dd in range(t_prec)]
    cl_a = convert_rank(mhilb, "cl_from_mhilb", u_prec, t_prec)
    cl_b = convert_rank([z[:t_prec] for z in zq], "cl_from_quot", u_prec, t_prec)
    assert cl_a == cl_b == cl_series("node", 1, u_prec, t_prec).full


def test_quot_to_mhilb_keeps_every_term():
    # (B) lands in Z[q]: a q^-1 added to Z_{R^2} is reported, not cut off
    zq = [z_series("node", 1, r, 5) for r in range(3)]
    zq[2][2] = zq[2][2] + LaurentPoly2.monomial(1, -1, 0)
    with pytest.raises(AssertionError, match=re.escape("Z_{mR^2} left Z[q]")):
        convert_rank(zq, "quot_to_mhilb", 1, 3)


def _convert_by_qpoch_pairs(z_list, direction, u_prec, t_prec):
    """convert_rank's (B), (C) and (D) dividing every term by (u;u)_l (u;u)_r
    (by (u;u)_D in (C)), each 1/(u;u)_n a generic inverse on a window.

    The exact parts are LaurentPoly2.  (B) builds [d r]_u = (u;u)_d/((u;u)_l
    (u;u)_r) on a window above its u-degree l r, and brings it back to a
    LaurentPoly2, so the sum stays exact."""
    zs = [sum((LaurentPoly2.monomial(1, 0, j) * c for j, c in enumerate(z)), ZERO)
          for z in z_list]

    def over(part, ns, u_win, t_win):
        series = TruncSeries2.from_laurent(part, u_win, t_win)
        for n in ns:
            series = mul(series, ref.inverse(TruncSeries2.one(u_win, t_win).times_poch(1, 0, n)))
        return series

    def t_times_qpow(z, e):
        return z.substitute(Q, LaurentPoly2.monomial(1, e, 1))

    def alternating(z, l):
        return z * LaurentPoly2.monomial(-1 if l % 2 else 1, -(l * (l - 1) // 2), 0)

    if direction == "quot_to_mhilb":
        d = len(zs) - 1
        total = ZERO
        for r, zr in enumerate(zs):
            binom = over(qpoch_qinv_ratio(d, d), (d - r, r), (d - r) * r + 1, 1)
            binom = LaurentPoly2({(-i, 0): c for (i, _), c in binom.coeffs.items()})
            total = total + alternating(binom * t_times_qpow(zr, d - r), d - r)
        return [LaurentPoly2({(a, 0): c for (a, j), c in total.terms.items() if j == k + d})
                for k in range(t_prec)]
    total = TruncSeries2(u_prec, t_prec)
    for D, zD in enumerate(zs[:t_prec]):
        if direction == "cl_from_mhilb":
            part = LaurentPoly2.monomial(1, -D * D, D) * t_times_qpow(zD, -D)
            total = total + over(part, (D,), u_prec, t_prec)
        else:
            for r in range(D + 1):
                part = alternating(t_times_qpow(zs[r], -r), D - r)
                total = total + over(part, (D - r, r), u_prec, t_prec)
    return total


def test_convert_rank_matches_division_by_qpoch_pairs():
    # windows outside criterion 12's (1, 3, 6, 4), ranks d <= 4, the family
    # seeded; (C) and (D) sum over the ranks D <= 4 they are given
    rng = random.Random(2023)
    d = 4
    for u_prec, t_prec in ((3, 2), (8, 6), (10, 5)):
        for m in (1, 2, 3):
            kind = rng.choice(("cusp", "node"))
            zq = [z_series(kind, m, r, t_prec + d) for r in range(d + 1)]
            mhilb = []
            for dd in range(d + 1):
                args = ([z[:t_prec + dd] for z in zq[:dd + 1]], "quot_to_mhilb", u_prec, t_prec)
                got = convert_rank(*args)
                assert got == _convert_by_qpoch_pairs(*args), (kind, m, dd, u_prec, t_prec)
                mhilb.append(got)
            for direction, inputs in (("cl_from_mhilb", mhilb),
                                      ("cl_from_quot", [z[:t_prec] for z in zq])):
                got = convert_rank(inputs, direction, u_prec, t_prec)
                want = _convert_by_qpoch_pairs(inputs, direction, u_prec, t_prec)
                assert got == want, (direction, kind, m, u_prec, t_prec)


def test_conversion_check_seeded_sweep():
    # past criterion 12's box: m in {1, 2}, d <= 4, windows up to (u^8, t^5)
    rng = random.Random(4)
    for _ in range(8):
        point = (rng.choice((1, 2)), rng.randint(0, 4), rng.randint(1, 8), rng.randint(1, 5))
        for report in clzeta.conversion_check(*point):
            assert report.status != "fail", (point, report.name)


def test_matrix_count_formula_values():
    assert matrix_count_formula(0) == ONE
    assert matrix_count_formula(1) == Q
    assert str(matrix_count_formula(2)) == "-q + q^3 + q^4"


def test_special_values_quick():
    reports = special_values("node", 1, 9)
    assert all(r.passed for r in reports)
    reports = special_values("cusp", 1, 9)
    assert all(r.passed for r in reports)
    reports = special_values("node", 2, 9)
    assert {r.name: r.status for r in reports}["special-node-minus1"] == "reported"


def test_special_values_deep_in_the_identities():
    for m in (1, 2, 3):
        assert all(r.passed for r in special_values("cusp", m, 60)), m
    assert all(r.passed for r in special_values("node", 1, 60))


def test_special_values_build_one_numerator_per_call(monkeypatch):
    calls = []
    real = clzeta.cl_numerator

    def counting(kind, m, u_prec, t_prec):
        calls.append((kind, m, u_prec, t_prec))
        return real(kind, m, u_prec, t_prec)

    monkeypatch.setattr(clzeta, "cl_numerator", counting)
    reports = special_values("node", 1, 9)
    assert calls == [("node", 1, 9, clzeta._T_CAP)]
    assert [r.params["t_prec_used"] for r in reports] == [16, 16]
    assert all(r.passed for r in reports)


def test_special_values_keep_each_sign_stopping_point():
    # NZ-hat(1) repeats from t_prec 8 to 16, NZ-hat(-1) only from 16 to 32
    numerator = TruncSeries2(5, clzeta._T_CAP, {(0, 0): 1, (1, 8): -1, (1, 9): 1})
    values = clzeta._read_pm_one(numerator, 5)
    assert values[1] == (TruncSeries2.one(5, 1), 16)
    assert values[-1] == (TruncSeries2(5, 1, {(0, 0): 1, (1, 0): -2}), 32)


def test_special_values_stop_at_the_t_cap():
    # a term in every doubling window [2^k, 2^{k+1}), k = 3..10, moves the
    # partial sums at +1; paired with one at t^{2^k + 1}, only those at -1
    starts = [1 << k for k in range(3, 11)]
    for sign, coeffs in ((1, {(1, s): 1 for s in starts}),
                         (-1, {**{(1, s): 1 for s in starts},
                               **{(1, s + 1): -1 for s in starts}})):
        numerator = TruncSeries2(5, clzeta._T_CAP, {(0, 0): 1, **coeffs})
        message = "t=%+d evaluation did not stabilize below t_prec=%d" % (sign, clzeta._T_CAP)
        with pytest.raises(BudgetExceededError, match=re.escape(message)) as err:
            clzeta._read_pm_one(numerator, 5)
        assert err.value.progress == (5, clzeta._T_CAP)


def _eval_pm_one_by_doubling(kind, m, u_prec):
    """NZ-hat(+-1) with the numerator rebuilt at each t_prec = 8, 16, ...: each
    sign stops at the first t_prec whose partial sum repeats the previous one.
    Returns {sign: (value, t_prec used)}."""
    prev, done = {}, {}
    for t_prec in (8 << k for k in range(9)):
        numerator = cl_series(kind, m, u_prec, t_prec).numerator
        for sign in (1, -1):
            if sign in done:
                continue
            acc = {}
            for (i, j), c in numerator.coeffs.items():
                acc[(i, 0)] = acc.get((i, 0), 0) + (c if sign > 0 or j % 2 == 0 else -c)
            val = TruncSeries2(u_prec, 1, acc)
            if prev.get(sign) == val:
                done[sign] = (val, t_prec)
            prev[sign] = val
        if len(done) == 2:
            break
    return done


def test_special_values_match_the_doubling_reader():
    rng = random.Random(14)
    cases = [("node", 3, 30), ("cusp", 3, 30)]
    cases += [(rng.choice(("cusp", "node")), rng.randint(1, 3), rng.randint(1, 30))
              for _ in range(10)]
    for kind, m, u_prec in cases:
        got = clzeta._read_pm_one(clzeta.cl_numerator(kind, m, u_prec, clzeta._T_CAP), u_prec)
        assert got == _eval_pm_one_by_doubling(kind, m, u_prec), (kind, m, u_prec)


def _andrews_gordon_by_residues(m, u_prec):
    """1 / prod (1 - u^n) over 0 < n < u_prec, n not 0, +-(m+1) mod 2m+3."""
    mod = 2 * m + 3
    excluded = {0, (m + 1) % mod, (m + 2) % mod}
    poly = TruncSeries2.one(u_prec, 1)
    for n in range(1, u_prec):
        if n % mod not in excluded:
            poly = mul(poly, TruncSeries2(u_prec, 1, {(0, 0): 1, (n, 0): -1}))
    return ref.inverse(poly)


def test_andrews_gordon_matches_residue_product():
    for m in (1, 2, 3):
        for u_prec in range(1, 26):
            assert andrews_gordon_product(m, u_prec) == _andrews_gordon_by_residues(m, u_prec)


def test_products():
    # RR: 1/((u;u^5)(u^4;u^5)) has coefficients 1,1,1,1,2,2,3,... (partitions
    # into parts = 1,4 mod 5)
    ag = andrews_gordon_product(1, 9)
    assert [ag.coeffs.get((i, 0), 0) for i in range(9)] == [1, 1, 1, 1, 2, 2, 3, 3, 4]
    prod = node_minus1_product(1, 8)
    assert prod.coeffs[(0, 0)] == 1
