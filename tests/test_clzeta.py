import pytest

from singzeta.laurent import ONE, Q, parse_poly
from singzeta.series import poch_inf
from singzeta.clzeta import (cl_cusp, cl_node, convert_rank,
                             extract_polynomial_coefficients, limit_check,
                             matrix_count_formula, special_values, z_series,
                             scaled_z_trunc, andrews_gordon_product,
                             node_minus1_product)
from singzeta.tables import TABLE3, table3_entry_bounds


def test_cl_cusp_low_coefficients():
    series = cl_cusp(1, 8, 4)
    assert series.numerator.coeffs[(0, 0)] == 1
    # t^2 coefficient is u/(1-u) = u + u^2 + ...
    col = series.numerator.t_coefficient(2)
    assert col == {i: 1 for i in range(1, 8)}
    assert series.numerator.t_coefficient(1) == {}


def test_cl_full_vs_numerator():
    series = cl_node(1, 6, 4)
    rebuilt = series.numerator * poch_inf(1, 1, 6, 4).inverse() ** 2
    assert rebuilt == series.full


def test_cl_node_table3_coefficients():
    for m in (1, 2, 3):
        bounds = table3_entry_bounds(m)
        u_prec = max(bounds.values()) + 1
        numerator = cl_node(m, u_prec, 6).numerator
        for j, col in TABLE3[m].items():
            got = numerator.t_coefficient(j)
            for a, c in col:
                assert got.get(a, 0) == c, (m, j, a)


def test_cl_node_sigma_orders_monotone():
    for m in (1, 2, 3):
        orders = cl_node(m, 16, 8).numerator.t_coefficient_orders()
        seq = [orders[j] for j in sorted(orders)]
        assert seq == sorted(seq)


def test_z_series_matches_oracle_shape():
    z = z_series("node", 1, 1, 4)
    assert z == [ONE, ONE, ONE + Q, ONE + 2 * Q]


def test_scaled_z_constant_term():
    s = scaled_z_trunc("node", 1, 4, 5, 3)
    assert s.coeffs[(0, 0)] == 1


def test_limit_check():
    assert limit_check("node", 1, [4, 5], 5, 3).passed
    assert limit_check("cusp", 1, [4, 5], 5, 4).passed
    with pytest.raises(ValueError):
        limit_check("node", 1, [4], 5, 3)


def test_conversion_roundtrip():
    u_prec, t_prec, d = 6, 4, 3
    zq = [z_series("node", 1, r, t_prec + d) for r in range(d + 1)]
    mhilb = []
    for dd in range(d + 1):
        ls = convert_rank(zq[:dd + 1], "quot_to_mhilb", u_prec, t_prec)
        mhilb.append(extract_polynomial_coefficients(ls, u_prec))
    back = convert_rank(mhilb, "mhilb_to_quot", u_prec, t_prec)
    direct = z_series("node", 1, d, t_prec)
    for j in range(t_prec):
        assert back.t_coefficient_poly(j) == direct[j]
    # (A) needs Z_{mR^r} only to t^(t_prec - r)
    short = [z[:t_prec - r] for r, z in enumerate(mhilb)]
    assert convert_rank(short, "mhilb_to_quot", u_prec, t_prec) == back


def test_conversion_d0_identity():
    z0 = [z_series("node", 1, 0, 4)]
    out = convert_rank(z0, "mhilb_to_quot", 6, 4)
    assert out.t_coefficient_poly(0) == ONE
    assert all(out.t_coefficient_poly(j).is_zero() for j in (1, 2, 3))


def test_conversion_cl_agreement():
    u_prec, t_prec = 6, 4
    zq = [z_series("node", 1, r, 2 * t_prec) for r in range(t_prec)]
    mhilb = []
    for dd in range(t_prec):
        ls = convert_rank([z[:t_prec + dd] for z in zq[:dd + 1]],
                          "quot_to_mhilb", u_prec, t_prec)
        mhilb.append(extract_polynomial_coefficients(ls, u_prec))
    cl_a = convert_rank(mhilb, "cl_from_mhilb", u_prec, t_prec).truncate(u_prec, t_prec)
    cl_b = convert_rank([z[:t_prec] for z in zq], "cl_from_quot",
                        u_prec, t_prec).truncate(u_prec, t_prec)
    direct = cl_node(1, u_prec, t_prec).full
    assert cl_a == cl_b == direct.truncate(u_prec, t_prec)


def test_matrix_count_formula_values():
    assert matrix_count_formula(0) == ONE
    assert matrix_count_formula(1) == Q
    assert matrix_count_formula(2) == parse_poly("-q + q^3 + q^4")


def test_special_values_quick():
    reports = special_values("node", 1, 9)
    assert all(r.passed for r in reports)
    reports = special_values("cusp", 1, 9)
    assert all(r.passed for r in reports)
    reports = special_values("node", 2, 9)
    assert {r.name: r.status for r in reports}["special-node-minus1"] == "reported"


def test_products():
    # RR: 1/((u;u^5)(u^4;u^5)) has coefficients 1,1,1,1,2,2,3,... (partitions
    # into parts = 1,4 mod 5)
    ag = andrews_gordon_product(1, 9)
    assert [ag.coeffs.get((i, 0), 0) for i in range(9)] == [1, 1, 1, 1, 2, 2, 3, 3, 4]
    prod = node_minus1_product(1, 8)
    assert prod.coeffs[(0, 0)] == 1
