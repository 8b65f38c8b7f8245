import math

import pytest

from singzeta.partitions import Partition, iterate_box, partitions_of, subpartitions


def test_conjugate_examples():
    assert Partition().conjugate() == Partition()
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    assert Partition.box(4, 2).conjugate() == Partition.box(2, 4)


def test_conjugate_involution():
    for m in range(4):
        for d in range(4):
            for mu in iterate_box(m, d):
                assert mu.conjugate().conjugate() == mu


def test_contains():
    assert Partition([2, 2]).contains(Partition())
    assert Partition([2, 2]).contains(Partition([2, 1]))
    assert not Partition([2, 2]).contains(Partition([3]))


def test_containment_preserved_by_conjugation():
    for mu in iterate_box(3, 3):
        for lam in iterate_box(3, 3):
            assert lam.contains(mu) == lam.conjugate().contains(mu.conjugate())


def test_iterate_box():
    assert [str(p) for p in iterate_box(1, 1)] == ["[]", "[1]"]
    assert [str(p) for p in iterate_box(1, 2)] == ["[]", "[1]", "[1,1]"]
    # 2x2 box: [], [1], [1,1], [2], [2,1], [2,2]
    assert len(list(iterate_box(2, 2))) == 6


def test_iterate_box_counts_lattice_paths():
    for m in range(5):
        for d in range(5):
            got = list(iterate_box(m, d))
            assert len(got) == len(set(p.parts for p in got))
            assert len(got) == math.comb(m + d, d)


def test_iterate_box_graded_order():
    sizes = [p.size() for p in iterate_box(3, 3)]
    assert sizes == sorted(sizes)


def test_subpartitions():
    got = [str(p) for p in subpartitions(Partition((2, 1)))]
    assert got == ["[]", "[1]", "[1,1]", "[2]", "[2,1]"]
    assert subpartitions(Partition((3, 3))) == list(iterate_box(3, 2))


def test_iterate_bounded_parts():
    # partitions with parts <= m and size <= s, graded by size, then lexicographic
    def bounded(m, s):
        return [mu for n in range(s + 1) for mu in partitions_of(n, m)]

    assert [str(p) for p in bounded(1, 3)] == ["[]", "[1]", "[1,1]", "[1,1,1]"]
    assert [str(p) for p in bounded(2, 2)] == ["[]", "[1]", "[1,1]", "[2]"]
    assert bounded(0, 5) == [Partition()]


def test_partitions_of():
    assert len(partitions_of(6)) == 11
    assert partitions_of(0) == [Partition()]
    assert all(p.size() == 4 for p in partitions_of(4))


def test_parse_and_str():
    assert Partition.parse("3,1") == Partition([3, 1])
    assert Partition.parse("[3,1]") == Partition([3, 1])
    assert Partition.parse("") == Partition()
    assert Partition.parse("2,0") == Partition([2])
    assert Partition.parse("0") == Partition()
    # the order is checked on the parts as typed, zero parts included
    for text in ("1,0,1", "0,1"):
        with pytest.raises(ValueError, match="parts must be weakly decreasing"):
            Partition.parse(text)
    assert str(Partition([3, 1])) == "[3,1]"
    with pytest.raises(ValueError):
        Partition([1, 2])
