import random
from math import comb

import pytest

from singzeta import hall
from singzeta.hall import column_walk, hall_box, hall_skew
from singzeta.laurent import (LaurentPoly2, ZERO, ONE, Q, T, qbinomial,
                              qpochhammer, qpoch_qinv_ratio)
from singzeta.partitions import iterate_box, subpartitions
from singzeta import quotzeta
from singzeta.quotzeta import (SingularityFamily, nz, nz_cusp_free,
                               nz_cusp_normalization, nz_node_free,
                               nz_node_normalization, full_z, funceq_check,
                               funceq_report, specialize, specialization_report,
                               skew_cauchy_bounded_check, cusp_t2_check,
                               node22_closed_form, node22_check, m_limit_check,
                               positivity_scan)
from test_hall import _restart, narrow_lanes  # noqa: F401 (narrow_lanes is a fixture)


def test_family_constants():
    cusp = SingularityFamily("cusp", 2)
    node = SingularityFamily("node", 2)
    assert (cusp.s, cusp.delta) == (1, 2)
    assert (node.s, node.delta) == (2, 2)
    with pytest.raises(ValueError):
        SingularityFamily("line", 1)


def test_nz_cusp_normalization_examples():
    assert nz_cusp_normalization(1, 1) == ONE + Q * T
    # d=1: sum_{i<=m} (q t)^i
    assert str(nz_cusp_normalization(3, 1)) == "1 + q*t + q^2*t^2 + q^3*t^3"
    assert nz_cusp_normalization(4, 0) == ONE
    assert str(nz_cusp_normalization(1, 2)) == "1 + q^2*t + q^3*t + q^4*t^2"


def test_nz_cusp_free_examples():
    assert nz_cusp_free(1, 1) == ONE + Q * T * T
    assert nz_cusp_free(2, 0) == ONE
    for m in (1, 2):
        for d in (1, 2, 3):
            assert nz_cusp_free(m, d) == nz_cusp_normalization(m, d).substitute(Q, T * T)


def test_nz_node_normalization_examples():
    assert str(nz_node_normalization(1, 1)) == "1 - t + q*t"
    assert nz_node_normalization(3, 0) == ONE
    assert str(nz_node_normalization(1, 2)) == (
        "1 - t - q*t + q*t^2 + q^2*t - q^2*t^2 + q^3*t - q^3*t^2 + q^4*t^2")


def test_nz_node_free_examples():
    assert str(nz_node_free(1, 1)) == "1 - t + q*t^2"
    assert str(nz_node_free(2, 1)) == "1 - t + q*t^2 - q*t^3 + q^2*t^4"
    assert nz_node_free(3, 0) == ONE


def _node_free_double_sum(m, d):
    """The node's free numerator as written: one term per pair mu <= lam."""
    total = ZERO
    for lam in iterate_box(m, d):
        lam_m = lam.conj_part(m)
        for mu in subpartitions(lam):
            k = lam.size() - mu.size()
            total = total + (hall_box(m, d, lam) * hall_skew(lam, mu)
                             * qpochhammer(T, Q, d - lam_m) ** 2
                             * LaurentPoly2.monomial(1, d * k, lam.size() + k)
                             * qpoch_qinv_ratio(lam_m, lam_m - mu.conj_part(m)))
    return total


def test_nz_node_free_matches_double_sum():
    for m in range(1, 6):
        for d in range(0, 7 - m):
            quotzeta._NZ_CACHE.clear()
            assert nz_node_free(m, d).terms == _node_free_double_sum(m, d).terms, (m, d)
    # three seeded (m, d) just past that grid, where m + d = 7
    for m, d in random.Random(0).sample([(m, 7 - m) for m in range(1, 7)], 3):
        quotzeta._NZ_CACHE.clear()
        assert nz_node_free(m, d).terms == _node_free_double_sum(m, d).terms, (m, d)
    # past the bench grid too: two independent sums, each on its own lanes
    # (86 and 49 bits at d = 30)
    for d in (*range(8), 20, 30):
        quotzeta._NZ_CACHE.clear()
        assert nz_node_free(1, d) == node22_closed_form(d), d


def test_node_free_walk_cut_is_the_full_numerator_below_t():
    for m in range(1, 7):
        for d in range(0, 8 - m):
            full = nz_node_free(m, d)
            for t_prec in range(1, 5):
                assert quotzeta._node_free_walk(m, d, t_prec) == full.below_t(t_prec), (m, d)


def test_node_free_lanes_hold_every_coefficient(monkeypatch):
    # a packed walk decodes right only if |NZ|_1 < 2^(w-1); each walk's lanes
    # are those for the L1 bound it asks _binomials for, from the closed forms
    asked, binomials = [], quotzeta._binomials
    monkeypatch.setattr(quotzeta, "_binomials",
                        lambda top, bound: asked.append(bound) or binomials(top, bound))
    for m in range(1, 9):
        for d in range(0, 10 - m):
            asked.clear()
            norm = sum(abs(c) for c in quotzeta._node_free_walk(m, d).terms.values())
            assert asked == [(2 * m * m + 4 * m + 1) ** d], (m, d)
            assert norm <= asked[0], (m, d)
            for node, row in ((False, m + 1), (True, 2 * m + 1)):
                asked.clear()
                norm = sum(abs(c) for c in quotzeta._normalization_walk(m, d, node).terms.values())
                assert asked == [row ** d], (m, d, node)
                assert norm <= asked[0], (m, d, node)


def test_node_free_lanes_come_from_the_sum_of_norms():
    # the L1-norm walk is the double sum with every factor replaced by its
    # norm: g_lam and g^lam_mu have nonnegative coefficients, so their norm is
    # their coefficient sum; (1/q;1/q)_j/(1/q;1/q)_i has j - i factors of norm
    # 2, and (t;q)^2_{d-j} has d - j Horner factors of norm 4
    for m in range(1, 5):
        for d in range(0, 7 - m):
            bound = 0
            for lam in iterate_box(m, d):
                j = lam.conj_part(m)
                for mu in subpartitions(lam):
                    i = mu.conj_part(m)
                    bound += (sum(hall_box(m, d, lam).terms.values())
                              * sum(hall_skew(lam, mu).terms.values())
                              * 2 ** (j - i + 2 * (d - j)))
            assert bound == (2 * m * m + 4 * m + 1) ** d, (m, d)


def test_lane_bounds_are_the_l1_walks_in_closed_form():
    # each walk run on L1 norms (ints): [n r] has norm C(n, r), a column
    # monomial norm 1 and the node's first-column factor
    # (1/q;1/q)_d/(1/q;1/q)_{d-c} norm 2^c; the free node's fold has norm
    # C(j, i) 2^{j-i} and each of its d - j Horner steps norm 4.  The sums
    # factor over the d rows (module docstring)
    for m in range(0, 9):
        for d in range(0, 11):
            norms = {(n, r): comb(n, r) for n in range(d + 1) for r in range(n + 1)}
            for node, row in ((False, m + 1), (True, 2 * m + 1)):
                states = column_walk(m, (d, 0), 1, None, lambda v, c, c2: norms[(c, c2)] * v,
                                     lambda i, v, c, _: v << c if node and i == 1 else v)
                assert sum(states.values()) == row ** d, (m, d, node)
            states = column_walk(m, (d, d), 1, norms, lambda v, a, a2: norms[(a, a2)] * v,
                                 lambda i, v, a, b: v)
            bound = sum((v * norms[(j, i)]) << (j - i + 2 * (d - j))
                        for (j, i), v in states.items())
            assert bound == (2 * m * m + 4 * m + 1) ** d, (m, d)


def test_nz_forms_reject_a_negative_m():
    for form in (nz_cusp_normalization, nz_cusp_free, nz_node_normalization, nz_node_free):
        for d in (2, 3):
            with pytest.raises(ValueError, match="m must be at least 0, got -1"):
                form(-1, d)
    assert not [key for key in quotzeta._NZ_CACHE if key[1] < 0]


def test_column_walk_from_top_0_counts_the_partitions_in_a_box():
    # started at (top, 0) the walk sums over lam alone, reading no binomial:
    # with unit factors every lam in the columns-by-top box counts once
    for columns in range(5):
        for top in range(6):
            seen = set()

            def column(i, v, a, b):
                seen.add(i)
                return v

            states = column_walk(columns, (top, 0), 1, None, lambda v, a, a2: v, column)
            assert all(b == 0 for _, b in states), (columns, top)
            assert sum(states.values()) == comb(columns + top, top), (columns, top)
            assert seen == set(range(1, columns + 1))


def test_node_free_walk_makes_no_laurent_product(monkeypatch):
    # the free node walk and both normalization walks run on packed ints alone,
    # from a cold cache
    calls = []
    product = LaurentPoly2.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(LaurentPoly2, "__mul__", counting)
    monkeypatch.setattr(LaurentPoly2, "__rmul__", counting)
    quotzeta._NZ_CACHE.clear()
    for form in (nz_node_free, nz_cusp_normalization, nz_node_normalization):
        form(4, 4)
    assert len(calls) == 0


def _normalization_sum(m, d, node):
    """A normalization numerator as written: one term per mu in the box."""
    total = ZERO
    for mu in iterate_box(m, d):
        term = hall_box(m, d, mu) * LaurentPoly2.monomial(1, d * mu.size(), mu.size())
        total = total + (term * qpoch_qinv_ratio(d, mu.conj_part(1)) if node else term)
    return total


def test_normalization_walks_match_the_sums_over_mu():
    # the grid, and (4, 7) past the bench grid
    grid = [(m, d) for m in range(1, 7) for d in range(0, min(6, 9 - m) + 1)]
    for m, d in grid + [(4, 7)]:
        quotzeta._NZ_CACHE.clear()
        cusp = _normalization_sum(m, d, node=False)
        assert nz_cusp_normalization(m, d).terms == cusp.terms, (m, d)
        assert nz_cusp_free(m, d).terms == cusp.substitute(Q, T * T).terms, (m, d)
        node = _normalization_sum(m, d, node=True)
        assert nz_node_normalization(m, d).terms == node.terms, (m, d)


def test_degree_bound():
    for kind in ("cusp", "node"):
        for m in (1, 2, 3):
            fam = SingularityFamily(kind, m)
            for d in (1, 2, 3):
                for module in ("free", "normalization"):
                    # (2c + s) d, c = 2ms the conductor colength over the branches
                    t_degree = max(b for _, b in nz(fam, d, module).terms)
                    assert t_degree <= (4 * m + 1) * fam.s * d


def test_full_z_geometric():
    coeffs = full_z(ONE, 1, 1, 3)
    assert coeffs == [ONE, ONE, ONE]


def test_full_z_solomon_d2():
    coeffs = full_z(ONE, 1, 2, 3)
    assert coeffs == [ONE, ONE + Q, ONE + Q + Q * Q]


def test_full_z_node():
    # (1 - t + q t^2)/(1-t)^2 = (1 - t + q t^2) * sum (k+1) t^k
    #                         = 1 + t + (1+q) t^2 + (1+2q) t^3 + ...
    coeffs = full_z(nz_node_free(1, 1), 2, 1, 4)
    assert coeffs == [ONE, ONE, ONE + Q, ONE + 2 * Q]


def test_full_z_nonnegative_coefficients():
    for kind in ("cusp", "node"):
        for m in (1, 2):
            fam = SingularityFamily(kind, m)
            for d in (1, 2):
                for module in ("free", "normalization"):
                    for c in full_z(nz(fam, d, module), fam.s, d, 5):
                        assert all(v >= 0 for v in c.terms.values())


def test_full_z_matches_the_q_binomial_theorem():
    # 1/(t;q)_d = sum_n [n+d-1, n]_q t^n, whose t^n coefficient has q-degree
    # n(d - 1): the bound that sizes full_z's q-window.  With nonnegative NZ
    # nothing cancels, so a window one short loses the top coefficient.
    rng = random.Random(19)
    for _ in range(80):
        d, s, t_prec = rng.randint(0, 5), rng.choice((1, 2)), rng.randint(1, 10)
        nz_poly = LaurentPoly2({(rng.randint(0, 12), rng.randint(0, 6)): rng.randint(0, 9)
                                for _ in range(rng.randint(1, 8))})
        inverse = ONE
        if d:
            inverse = sum((qbinomial(n + d - 1, n) * LaurentPoly2.monomial(1, 0, n)
                           for n in range(t_prec)), ZERO)
        want = nz_poly * inverse ** s
        assert full_z(nz_poly, s, d, t_prec) == [
            LaurentPoly2({(a, 0): c for (a, j), c in want.terms.items() if j == k})
            for k in range(t_prec)], (nz_poly, s, d, t_prec)


def test_full_z_rejects_a_negative_rank():
    with pytest.raises(ValueError, match="d must be at least 0, got -1"):
        full_z(ONE, 2, -1, 4)


def test_funceq_examples():
    assert funceq_check(SingularityFamily("node", 1), 1).passed
    assert funceq_check(SingularityFamily("cusp", 1), 1).passed
    assert funceq_check(SingularityFamily("node", 3), 0).passed


def test_funceq_mutation_detected():
    # note q*t itself is a fixed point of the d=1 involution, so bump the
    # constant term instead: its mirror is the t^2 coefficient
    fam = SingularityFamily("node", 1)
    corrupted = nz_node_free(1, 1) + ONE
    report = funceq_report(corrupted, fam, 1)
    assert report.status == "fail" and report.params["which"] == "free"
    assert report.discrepancy is not None


def test_specialize_examples():
    assert specialize(nz_node_free(1, 2), "t_eq_1") == LaurentPoly2.monomial(1, 4, 0)
    assert specialize(nz_cusp_free(1, 1), "lambda_eq_1") == ONE + T * T
    assert specialize(nz_node_free(1, 1), "lambda_eq_1") == ONE - T + T * T
    with pytest.raises(ValueError):
        specialize(ONE, "q_eq_2")


def test_node_t1_both_modules():
    for m in (1, 2, 3):
        for d in (1, 2, 3):
            want = LaurentPoly2.monomial(1, m * d * d, 0)
            assert specialize(nz_node_free(m, d), "t_eq_1") == want
            assert specialize(nz_node_normalization(m, d), "t_eq_1") == want


def test_specialization_report():
    assert specialization_report(SingularityFamily("node", 2), 2).passed
    assert specialization_report(SingularityFamily("cusp", 2), 2).passed


def test_funceq_and_specializations_beyond_the_acceptance_grid():
    # criteria 4 and 16 stop at m, d <= 3; six seeded (m, d) with m + d in {8, 9}
    pairs = [(m, size - m) for size in (8, 9) for m in range(1, size)]
    for m, d in random.Random(0).sample(pairs, 6):
        for kind in ("cusp", "node"):
            family = SingularityFamily(kind, m)
            assert funceq_check(family, d).passed, (kind, m, d)
            assert specialization_report(family, d).passed, (kind, m, d)


def test_funceq_and_specializations_of_larger_nodes():
    # past the bench grid, on lanes sized by the L1-norm walk (46, 41 and 51
    # bits at (4, 8), (6, 6) and (3, 10))
    for m, d in ((4, 5), (6, 6), (4, 8), (3, 10)):
        family = SingularityFamily("node", m)
        assert funceq_check(family, d).passed, (m, d)
        assert specialization_report(family, d).passed, (m, d)


def _past_the_acceptance_box(kinds, m_top, d_top, k, seed=4):
    """k (kind, m, d) drawn by a fixed seed from m <= m_top, d <= d_top, less
    the acceptance box m, d <= 3."""
    points = [(kind, m, d) for kind in kinds for m in range(1, m_top + 1)
              for d in range(1, d_top + 1) if m > 3 or d > 3]
    return random.Random(seed).sample(points, k)


def test_seeded_sweep_of_funceq_and_specializations():
    # criteria 4 and 16 stop at m, d <= 3; 16 of the 32 points of the box
    # m, d <= 5 past it
    for kind, m, d in _past_the_acceptance_box(("cusp", "node"), 5, 5, 16):
        family = SingularityFamily(kind, m)
        assert funceq_check(family, d).passed, (kind, m, d)
        assert specialization_report(family, d).passed, (kind, m, d)


def test_seeded_sweep_of_skew_cauchy():
    # criterion 6 stops at m, d <= 3; 6 of the 11 points of the box m <= 4,
    # d <= 5 past it
    for _, m, d in _past_the_acceptance_box(("node",), 4, 5, 6):
        assert skew_cauchy_bounded_check(m, d).passed, (m, d)


def test_remark_t2_vs_qt_differ_at_d2():
    # the two changes of variable agree at d=1 but not at d=2
    norm = nz_cusp_normalization(1, 1)
    assert norm.substitute(Q, T * T) == norm.substitute(Q * T, T)
    norm2 = nz_cusp_normalization(1, 2)
    assert norm2.substitute(Q, T * T) != norm2.substitute(Q * T, T)


def test_skew_cauchy_examples():
    assert skew_cauchy_bounded_check(1, 1).passed
    assert skew_cauchy_bounded_check(1, 2).passed
    assert skew_cauchy_bounded_check(3, 2).passed


def test_skew_cauchy_beyond_the_criterion_box():
    for m, d in ((2, 6), (4, 4), (4, 5)):
        assert skew_cauchy_bounded_check(m, d).passed, (m, d)


def _skew_packed_off_by_q(monkeypatch):
    """Make the packed g^[2,1]_[1], which criterion 6 reads, q too high."""
    real = hall._skew_packed

    def skew_packed(lam, mu):
        value = real(lam, mu)
        if (lam.parts, mu.parts) == ((2, 1), (1,)):
            sums = {0: value}
            hall._add_into(sums, 0, (1, 1, 1))
            value = sums[0]
        return value

    monkeypatch.setattr(hall, "_skew_packed", skew_packed)


def test_skew_cauchy_names_the_failing_mu(monkeypatch):
    # g^lam_mu off by +q at lam = [2,1], mu = [1] only: the sum at mu = [1]
    # gains q times that lam's weight g_lam(q) t^3 (t;q)_1, whose lowest term
    # is t^3, so the first difference is at q t^3
    _skew_packed_off_by_q(monkeypatch)
    rep = skew_cauchy_bounded_check(2, 2)
    assert rep.status == "fail"
    assert rep.params == {"m": 2, "d": 2, "mu": "[1]"}
    assert rep.discrepancy == (1, 3)


def test_skew_cauchy_widens_its_lanes(narrow_lanes, monkeypatch):
    # 8-bit lanes overflow: criterion 6 passes at the widened lanes, and the
    # fault above is named there as at 64 bits (the box (3, 3) widens to 16)
    from singzeta import acceptance
    assert all(rep.passed for rep in acceptance.criterion_6_skew_cauchy())
    assert hall._W > 8
    _skew_packed_off_by_q(monkeypatch)
    seen = []
    for bits in (64, 8):
        _restart(bits)
        rep = skew_cauchy_bounded_check(3, 3)
        seen.append((rep.status, rep.params, rep.discrepancy, rep.lhs, rep.rhs))
    assert hall._W > 8
    assert seen[0] == seen[1]
    assert seen[1][:3] == ("fail", {"m": 3, "d": 3, "mu": "[1]"}, (2, 3))


def test_skew_cauchy_makes_no_laurent_product(monkeypatch):
    # once hall's caches are warm, criterion 6 passes on packed ints alone
    from singzeta import acceptance
    acceptance.criterion_6_skew_cauchy()
    calls = []
    product = LaurentPoly2.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(LaurentPoly2, "__mul__", counting)
    monkeypatch.setattr(LaurentPoly2, "__rmul__", counting)
    assert all(rep.passed for rep in acceptance.criterion_6_skew_cauchy())
    assert len(calls) == 0


def test_skew_cauchy_computes_each_pair_once(monkeypatch):
    # criterion 6 asks for g^lam_mu 330 times over its nine boxes, for 175
    # distinct (lam, mu); the packed cache computes each of them once
    from singzeta import acceptance
    asked, computed, ask, compute = [], [], hall._skew_packed, hall._skew_product

    def asking(lam, mu):
        asked.append((lam.parts, mu.parts))
        return ask(lam, mu)

    def computing(lam, mu):
        computed.append((lam.parts, mu.parts))
        return compute(lam, mu)

    monkeypatch.setattr(hall, "_skew_packed", asking)
    monkeypatch.setattr(hall, "_skew_product", computing)
    monkeypatch.setattr(hall, "_HALL_SKEW_CACHE", {})
    assert all(rep.passed for rep in acceptance.criterion_6_skew_cauchy())
    assert (len(asked), len(set(asked))) == (330, 175)
    assert sorted(computed) == sorted(set(asked))


def test_cusp_t2_check():
    assert cusp_t2_check(3, 4).passed


def test_cusp_t2_check_seeded_sweep():
    # past criterion 5's box (m <= 3, d <= 4): m <= 5, d <= 8
    rng = random.Random(4)
    for _ in range(8):
        point = (rng.randint(1, 5), rng.randint(0, 8))
        assert cusp_t2_check(*point).passed, point


def test_node22_closed_form():
    assert node22_closed_form(0) == ONE
    assert str(node22_closed_form(1)) == "1 - t + q*t^2"
    for d in range(6):
        assert node22_check(d).passed


def test_node22_check_seeded_sweep():
    # past criterion 15's box (d <= 5): six seeded points with 6 <= d <= 25
    rng = random.Random(4)
    for _ in range(6):
        d = rng.randint(6, 25)
        assert node22_check(d).passed, d


def test_node22_closed_form_matches_the_sum_as_written():
    for d in range(9):
        want = ZERO
        for r in range(d + 1):
            want = want + (LaurentPoly2.monomial((-1) ** r, r * (r - 1) // 2, r) * qbinomial(d, r)
                           * qpochhammer(LaurentPoly2.monomial(1, d - r + 1, 1), Q, r))
        assert node22_closed_form(d).terms == want.terms, d


def test_m_limit():
    rep = m_limit_check("node", 1, 4, 5)
    assert rep.passed
    assert m_limit_check("cusp", 1, 4, 5).passed
    assert m_limit_check("node", 2, 3, 4).passed
    # d=0: both sides are 1
    assert m_limit_check("node", 0, 3, 3).passed
    # no stabilization below the cap: a failing report, built while timed
    rep = m_limit_check("node", 2, 8, 8, m_cap=2)
    assert rep.status == "fail"
    assert rep.detail == "no stabilization up to m=2"


def test_m_limit_rejects_an_unknown_kind():
    for build in (m_limit_check, quotzeta.m_limit_closed_form):
        with pytest.raises(ValueError, match="kind must be 'cusp' or 'node'"):
            build("bogus", 2, 4, 5)


def test_positivity_scan():
    assert positivity_scan("node", 1, 1).passed
    assert positivity_scan("node", 2, 1).passed
    assert positivity_scan("cusp", 1, 2).passed
    assert positivity_scan("node", 2, 2).passed
