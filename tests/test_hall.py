import pytest

from singzeta.laurent import ZERO, ONE, Q, parse_poly
from singzeta.partitions import Partition, iterate_box, partitions_of
from singzeta.hall import (hall_skew, hall_box, hall_general, hall_count_oracle,
                           surjection_count, hall_pair_expansion)
from singzeta.oracle import surjective_homs_count

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
    assert hall_general(P([1, 1, 1]), P([1]), P([1, 1])) == parse_poly("1 + q + q^2")


def test_hall_pair_expansion_trivial():
    assert hall_pair_expansion(P(), P()) == {P(): ONE}


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
