from functools import lru_cache

import pytest

import os
import pathlib
import subprocess
import sys

from singzeta import hall
from singzeta.laurent import ZERO, ONE, Q, QINV, T, LaurentPoly2
from singzeta.partitions import Partition, iterate_box, partitions_of, subpartitions
from singzeta.hall import (hall_skew, hall_box, hall_general,
                           surjection_count, hall_pair_expansion)
from singzeta.oracle import hall_count_oracle, surjective_homs_count

P = Partition


def test_hall_skew_examples():
    lam = P([3, 2, 1])
    assert hall_skew(lam, lam) == ONE
    assert hall_skew(lam, P()) == ONE
    assert hall_skew(P([1, 1]), P([1])) == ONE + Q
    assert hall_skew(P([2]), P([1])) == ONE
    assert hall_skew(P([2, 1]), P([1])) == ONE + Q
    assert hall_skew(P([2]), P([1, 1])) == ZERO  # not contained


def test_hall_box_examples():
    assert hall_box(1, 1, P([1])) == ONE
    assert hall_box(5, 3, P()) == ONE
    assert hall_box(1, 2, P([1])) == ONE + Q
    with pytest.raises(ValueError):
        hall_box(1, 1, P([2]))


def test_hall_box_matches_skew_and_m_independence():
    for m in (1, 2, 3):
        for d in (1, 2, 3):
            for mu in iterate_box(m, d):
                val = hall_box(m, d, mu)
                assert val == hall_skew(P.box(m, d), mu)
                if mu.part(1) <= m:
                    assert val == hall_box(m + 2, d, mu)


def test_hall_general_examples():
    assert hall_general(P([2]), P([1]), P([1])) == ONE
    assert hall_general(P([1, 1]), P([1]), P([1])) == ONE + Q
    assert hall_general(P([2]), P([1]), P([2])) == ZERO
    assert hall_general(P([2, 1]), P([2]), P([1])) == Q
    assert hall_general(P([2, 1]), P([1]), P([1, 1])) == ONE
    assert str(hall_general(P([1, 1, 1]), P([1]), P([1, 1]))) == "1 + q + q^2"


def test_hall_pair_expansion_trivial():
    assert hall_pair_expansion(P(), P()) == {P(): ONE}


# -- reference: g^lambda_{mu nu} from Hall-Littlewood structure constants ----
#
# P_mu P_nu = sum_lambda f^lambda_{mu nu}(xi) P_lambda in ell(mu)+ell(nu)
# variables, and g^lambda_{mu nu}(q) = q^{n(lambda)-n(mu)-n(nu)} f(1/q).
# Polynomials are {exponent tuple: xi-polynomial}, xi in LaurentPoly2's q slot.


def _n_stat(lam):
    return sum(i * p for i, p in enumerate(lam.parts))


def _hl_horizontal_strips(rows, prefix=()):
    """All mu (part tuples, zeros kept) with rows/mu a horizontal strip."""
    i = len(prefix)
    if i == len(rows):
        yield prefix
        return
    lo = rows[i + 1] if i + 1 < len(rows) else 0
    for p in range(lo, (min(rows[i], prefix[-1]) if prefix else rows[i]) + 1):
        yield from _hl_horizontal_strips(rows, prefix + (p,))


def _hl_psi(lam, mu):
    """Branching coefficient prod_{i: m_i(mu) = m_i(lam)+1} (1 - xi^{m_i(mu)})."""
    result = ONE
    for i in set(p for p in mu if p):
        if mu.count(i) == lam.count(i) + 1:
            result = result * (ONE - LaurentPoly2.monomial(1, mu.count(i), 0))
    return result


@lru_cache(maxsize=None)
def _hl_compositions(lam, n):
    """{composition of length n: xi-polynomial} for P_lam(x_1..x_n; xi)."""
    if len(lam) > n:
        return {}
    if n == 0:
        return {(): ONE}
    out = {}
    for mu in _hl_horizontal_strips(lam):
        mu = tuple(p for p in mu if p)
        coeff = _hl_psi(lam, mu)
        for expo, c in _hl_compositions(mu, n - 1).items():
            key = expo + (sum(lam) - sum(mu),)
            out[key] = out.get(key, ZERO) + coeff * c
    return {k: v for k, v in out.items() if v}


def _hl_pair_expansion(mu, nu):
    """{lambda: g^lambda_{mu nu}(q)} by stripping the largest monomial-symmetric term."""
    n = mu.length() + nu.length()
    rem = {}
    for e1, c1 in _hl_compositions(mu.parts, n).items():
        for e2, c2 in _hl_compositions(nu.parts, n).items():
            k = tuple(x + y for x, y in zip(e1, e2))
            if k == tuple(sorted(k, reverse=True)):
                rem[k] = rem.get(k, ZERO) + c1 * c2
    out = {}
    while rem:
        top = max(rem)
        f = rem.pop(top)
        if not f:
            continue
        lam = P(top)
        out[lam] = LaurentPoly2.monomial(1, _n_stat(lam) - _n_stat(mu) - _n_stat(nu), 0) \
            * f.substitute(QINV, T)
        for expo, pc in _hl_compositions(top[:len(lam.parts)], n).items():
            if expo != top and expo == tuple(sorted(expo, reverse=True)):
                rem[expo] = rem.get(expo, ZERO) - f * pc
    return out


def test_hall_pair_expansion_matches_hall_littlewood_reference():
    for n in range(8):
        for a in range(n + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(n - a):
                    assert hall_pair_expansion(mu, nu) == _hl_pair_expansion(mu, nu), (mu, nu)


@pytest.fixture
def lane_widths(monkeypatch):
    """The packed Hall algebra started at 8-bit lanes; returns the set of lane
    widths its checks ran at, so a test can see that a call widened."""
    monkeypatch.setattr(hall, "_START_W", 8)
    seen = set()
    lanes = hall._lanes

    def recorded(v, w):
        seen.add(w)
        return lanes(v, w)

    monkeypatch.setattr(hall, "_lanes", recorded)
    return seen


def test_hall_pair_expansion_widens_its_lanes(lane_widths):
    # 8-bit lanes overflow at once; every pair must come out as at 64 bits
    for n in range(8):
        for a in range(n + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(n - a):
                    assert hall_pair_expansion(mu, nu) == _hl_pair_expansion(mu, nu), (mu, nu)
    assert max(lane_widths) > 8


def test_hall_pair_expansion_at_size_nine_at_both_widths(lane_widths, monkeypatch):
    # the column inverse of (8) carries a 45-bit bound, so 8-bit lanes double
    # three times; its large terms cancel down to two lambda
    mu, nu = P([1]), P([8])
    narrow = hall_pair_expansion(mu, nu)
    assert sorted(lane_widths) == [8, 16, 32, 64]
    monkeypatch.setattr(hall, "_START_W", 64)
    assert hall_pair_expansion(mu, nu) == narrow == _hl_pair_expansion(mu, nu)
    assert narrow == {P([9]): ONE, P([8, 1]): Q}


def test_closed_forms_widen_their_lanes(lane_widths, monkeypatch):
    # the box multinomials at d = 8 reach 2520, past 8-bit lanes
    boxes = [(m, d, mu) for m in (1, 2, 3) for d in (1, 3, 8) for mu in iterate_box(m, d)]
    narrow = [(hall_box(m, d, mu), hall_skew(P.box(m, d), mu)) for m, d, mu in boxes]
    assert max(lane_widths) > 8
    monkeypatch.setattr(hall, "_START_W", 64)
    assert narrow == [(hall_box(m, d, mu), hall_skew(P.box(m, d), mu)) for m, d, mu in boxes]
    assert all(box == skew for box, skew in narrow)


def test_import_builds_no_packed_table():
    # start-up stays free of packed work: the tables are built on first use
    code = ("import singzeta.cli; from singzeta import hall; "
            "print(hall._START_W, [f.cache_info().currsize for f in (hall._binoms,"
            " hall._skew_packed, hall._times_columns, hall._column_inverse, hall._pair_packed)])")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(hall.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "64 [0, 0, 0, 0, 0]\n"), out.stderr


def _recorded_skew_cases(monkeypatch):
    """The (lam, mu) part tuples of every g^lam_mu the packed scans read."""
    cases = []
    skew_packed = hall._skew_packed

    def recorded(lam, mu, w):
        cases.append((lam, mu))
        return skew_packed(lam, mu, w)

    monkeypatch.setattr(hall, "_skew_packed", recorded)
    return cases


def test_criterion_07_scans_cover_their_ranges(monkeypatch):
    # each passing scan compares every case of its range once: box-vs-skew the
    # 62 (m, d, mu) with m, d <= 3, completeness every mu inside lam, |lam| <= 6
    cases = _recorded_skew_cases(monkeypatch)
    assert hall.box_vs_skew_mismatch() is None
    assert len(cases) == 62
    assert cases == [((m,) * d, mu.parts) for m in (1, 2, 3) for d in (1, 2, 3)
                     for mu in iterate_box(m, d)]
    cases.clear()
    assert hall.completeness_mismatch() is None
    assert cases == [(lam.parts, mu.parts) for n in range(7) for lam in partitions_of(n)
                     for mu in subpartitions(lam)]


def test_hall_symmetry_small():
    for n in range(5):
        for lam in partitions_of(n):
            for a in range(n + 1):
                for mu in partitions_of(a):
                    for nu in partitions_of(n - a):
                        assert hall_general(lam, mu, nu) == hall_general(lam, nu, mu)


def test_hall_completeness_small():
    for n in range(5):
        for lam in partitions_of(n):
            for a in range(n + 1):
                for mu in partitions_of(a):
                    total = ZERO
                    for nu in partitions_of(n - a):
                        total = total + hall_general(lam, mu, nu)
                    want = hall_skew(lam, mu) if lam.contains(mu) and a <= n else ZERO
                    assert total == want


def test_hall_count_oracle_examples():
    assert hall_count_oracle(P([1, 1]), P([1]), None, 2) == 3
    assert hall_count_oracle(P([2]), P([1]), P([1]), 3) == 1
    assert hall_count_oracle(P([2, 1]), P([2, 1]), P(), 5) == 1


def test_hall_vs_oracle():
    # |lambda| = 5 at p = 5 only, and not 1^5, whose census walks ~42k subspaces
    for p in (2, 3, 5):
        for n in range(6 if p == 5 else 5):
            for lam in (lam for lam in partitions_of(n) if lam.parts != (1,) * 5):
                for a in range(n + 1):
                    for mu in partitions_of(a):
                        for nu in partitions_of(n - a):
                            got = hall_general(lam, mu, nu).eval_int(p)
                            want = hall_count_oracle(lam, mu, nu, p)
                            assert got == want, (lam, mu, nu, p)


def test_hall_vs_oracle_size_six():
    # 1^6 and 2,1^4 left out: their censuses dominate the time
    for lam in partitions_of(6):
        if lam.parts in ((1,) * 6, (2, 1, 1, 1, 1)):
            continue
        for a in range(7):
            for mu in partitions_of(a):
                for nu in partitions_of(6 - a):
                    got = hall_general(lam, mu, nu).eval_int(2)
                    assert got == hall_count_oracle(lam, mu, nu, 2), (lam, mu, nu)


def test_hall_general_with_a_negative_coefficient():
    lam, mu = P([3, 2, 1]), P([2, 1])
    g = hall_general(lam, mu, mu)
    assert str(g) == "-1 + q + 2*q^2"
    assert [g.eval_int(p) for p in (2, 3)] == [9, 20]
    assert [hall_count_oracle(lam, mu, mu, p) for p in (2, 3)] == [9, 20]


def test_surjection_counts():
    for p in (2, 3):
        for d in (1, 2):
            for size in range(4):
                for mu in partitions_of(size):
                    want = surjective_homs_count(mu, d, p)
                    assert surjection_count(d, mu).eval_int(p) == want, (mu, d, p)


def test_surjection_count_polynomial():
    # d=2, mu=(1): q^2 - 1 maps onto F_q
    assert surjection_count(2, P([1])) == Q * Q - ONE
    assert surjection_count(1, P([1, 1])) == ZERO


@pytest.mark.parametrize("call, message", [
    (lambda: surjection_count(-1, P()), "d must be at least 0, got -1"),
    (lambda: hall_box(1, -1, P()), "d must be at least 0, got -1"),
    (lambda: hall_box(-1, 1, P()), "m must be at least 0, got -1"),
], ids=["surjection_count-d", "hall_box-d", "hall_box-m"])
def test_negative_sizes_are_rejected(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
