import json
import random

import pytest

import series_reference as ref
from series_reference import mul, shift
from singzeta.laurent import LaurentPoly2, ONE, Q, QINV, T, qpochhammer
from singzeta.series import TruncSeries2, WindowError


def poch(a, b, u_prec, t_prec, n=None, step=1):
    """(u^a t^b; u^step)_n on the window; n None gives the infinite product."""
    return TruncSeries2.one(u_prec, t_prec).times_poch(a, b, n, step)


def inv_upoch(n, u_prec):
    """1/(u;u)_n as a t-free series below u^u_prec."""
    return TruncSeries2.one(u_prec, 1).times_poch(1, 0, n, power=-1)


def test_mul_example():
    a = TruncSeries2(8, 8, {(0, 0): 1, (1, 1): 1})
    b = TruncSeries2(8, 8, {(0, 0): 1, (1, 1): -1})
    assert mul(a, b) == TruncSeries2(8, 8, {(0, 0): 1, (2, 2): -1})


def test_window_intersection_compare():
    big = poch(1, 0, 10, 4)
    small = poch(1, 0, 6, 3)
    equal, window, disc = big.agrees_with(small)
    assert equal and window == (6, 3) and disc is None


def test_window_monotonicity():
    assert poch(1, 1, 12, 9).truncate(7, 5) == poch(1, 1, 7, 5)


def test_poch_inf_pentagonal():
    # (u;u)_inf = 1 - u - u^2 + u^5 + u^7 - u^12 - ...
    series = poch(1, 0, 13, 1)
    expected = {(0, 0): 1, (1, 0): -1, (2, 0): -1, (5, 0): 1, (7, 0): 1, (12, 0): -1}
    assert series.coeffs == expected


def test_poch_window_cut_and_refusals():
    assert poch(1, 0, 6, 1).coeffs == {(0, 0): 1, (1, 0): -1, (2, 0): -1, (5, 0): 1}
    assert poch(1, 1, 6, 2).coeffs == {(0, 0): 1, **{(i, 1): -1 for i in range(1, 6)}}
    # a factor whose monomial is outside the t-window is never used
    assert poch(1, 1, 6, 1) == TruncSeries2.one(6, 1)
    # a finite product may have a constant argument: (1; u)_2 = 0
    assert poch(0, 0, 5, 5, 2) == TruncSeries2(5, 5)
    for args, kw in (((0, 0, 5, 5), {}),  # (1; u)_inf
                     ((1, 1, None, 5), {}),  # never leaves an exact u-window
                     ((-1, 0, 5, 5), {"n": 2}),
                     ((1, 0, 5, 5), {"n": 2, "step": 0})):
        with pytest.raises(WindowError):
            poch(*args, **kw)


def test_finite_poch_matches_laurent_qpochhammer():
    rng = random.Random(11)
    for _ in range(200):
        a, b, step, n = rng.randint(0, 5), rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 6)
        u_prec = rng.randint(1, 12)
        t_prec = rng.randint(1, 6)
        want = qpochhammer(LaurentPoly2.monomial(1, -a, b),
                           LaurentPoly2.monomial(1, -step, 0), n)
        assert (poch(a, b, u_prec, t_prec, n, step)
                == TruncSeries2.from_laurent(want, u_prec, t_prec)), (a, b, step, n, u_prec)


def _generic_times_poch(x, a, b, n, step, power):
    """x times (u^a t^b; u^step)_n ** power by the reference product and inverse."""
    factor = poch(a, b, x.u_prec, x.t_prec, n, step)
    return mul(x, ref.power(factor, power))


def test_times_poch_matches_generic_products():
    rng = random.Random(12)
    for b in (0, 1, 2):
        for power in (1, -1, 2, -2):
            for infinite in (False, True):
                for _ in range(6):
                    u_prec, t_prec = rng.randint(1, 12), rng.randint(1, 6)
                    a, step = rng.randint(0 if b else 1, 4), rng.randint(1, 3)
                    n = None if infinite else rng.randint(0, 5)
                    x = TruncSeries2(u_prec, t_prec, {
                        (rng.randrange(u_prec), rng.randrange(t_prec)):
                        rng.randint(-9, 9) for _ in range(rng.randint(0, 8))})
                    case = (x, a, b, n, step, power)
                    assert x.times_poch(a, b, n, step, power) == _generic_times_poch(*case), case


def test_times_poch_refusals():
    x = TruncSeries2(6, 4, {(0, 0): 1, (2, 1): 3})
    # (1; u)_inf and division by (1; u)_2 = 0
    for case in ((x, 0, 0, None, 1, 1), (x, 0, 0, 2, 1, -1)):
        for build in (_generic_times_poch, TruncSeries2.times_poch):
            with pytest.raises(WindowError):
                build(*case)
    assert x.times_poch(0, 0, 2) == TruncSeries2(6, 4)


def test_poch_inf_constant_term():
    assert poch(1, 1, 9, 5).coeffs[(0, 0)] == 1


def test_euler_identities():
    # (ut;u)_inf equals its alternating sum side, and the product of the
    # product-form with sum_k (ut)^k/(u;u)_k is 1 (both on a 12x8 window)
    u_prec, t_prec = 12, 8
    prod = poch(1, 1, u_prec, t_prec)
    alt = TruncSeries2(u_prec, t_prec)
    direct = TruncSeries2(u_prec, t_prec)
    for k in range(t_prec):
        inv = TruncSeries2(u_prec, t_prec, inv_upoch(k, u_prec).coeffs)
        sign = -1 if k % 2 else 1
        alt = alt + mul(TruncSeries2(u_prec, t_prec, {(k * (k + 1) // 2, k): sign}), inv)
        direct = direct + mul(TruncSeries2(u_prec, t_prec, {(k, k): 1}), inv)
    assert alt == prod
    assert mul(prod, direct) == TruncSeries2.one(u_prec, t_prec)


def test_series_serialization():
    s = poch(1, 1, 5, 4)
    blob = json.loads(json.dumps(s.to_json_obj()))
    assert TruncSeries2(blob["u_prec"], blob["t_prec"],
                        {(i, j): int(v) for i, j, v in blob["terms"]}) == s


def test_from_laurent_variants():
    p = ONE - LaurentPoly2.monomial(1, -1, 1)  # 1 - t/q
    s = TruncSeries2.from_laurent(p, 5, 5)
    assert s.coeffs == {(0, 0): 1, (1, 1): -1}
    for p in (ONE + Q, ONE + LaurentPoly2.monomial(1, 0, -1)):
        with pytest.raises(WindowError):
            TruncSeries2.from_laurent(p, 5, 5)
    # a series in q enters with q in the place of u
    qt = TruncSeries2.from_laurent((ONE + Q * T).substitute(QINV, T), 5, 5)
    assert qt.coeffs == {(0, 0): 1, (1, 1): 1}


def test_product_precision_tracking():
    # u^2 A times u^3 B, each known below u^5, is known below u^7:
    # O(u^5) u^3 B and u^2 A O(u^5) start at u^8 and u^7
    a = shift(TruncSeries2(5, 4, inv_upoch(1, 5).coeffs), 2).truncate(5, 4)
    b = shift(TruncSeries2(5, 4, inv_upoch(2, 5).coeffs), 3).truncate(5, 4)
    prod = mul(a, b)
    assert prod.u_prec == 7 and prod.coeffs == {(5, 0): 1, (6, 0): 2}
    inv1, inv2 = (TruncSeries2(10, 4, inv_upoch(n, 10).coeffs) for n in (1, 2))
    assert prod == shift(mul(inv1, inv2), 5).truncate(7, 4)


def test_window_refusals():
    capped = TruncSeries2(4, 3, inv_upoch(2, 4).coeffs)
    for window in ((6, 3), (4, 4), (None, 3)):
        with pytest.raises(WindowError):
            capped.truncate(*window)
    for window in ((None, 3), (3, None), (0, 3), (3, 0)):
        with pytest.raises(WindowError):
            TruncSeries2(*window)
    for coeffs in ({(-1, 0): 1}, {(0, -1): 1}):
        with pytest.raises(WindowError):
            TruncSeries2(3, 3, coeffs)
    with pytest.raises(WindowError):
        shift(capped, -1)
    assert shift(capped, 1).u_prec == 5
