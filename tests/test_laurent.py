import json
import random
import re
from fractions import Fraction

import pytest

from singzeta.laurent import (LaurentPoly2, ZERO, ONE, Q, T, QINV, qpochhammer,
                              qbinomial, qpoch_qinv_ratio, UnsupportedSubstitutionError)
from singzeta.partitions import Partition


def rand_poly(rng, terms=6, span=4):
    return LaurentPoly2({(rng.randint(-span, span), rng.randint(-span, span)):
                         rng.randint(-9, 9) for _ in range(terms)})


_MONOMIAL = re.compile(r"(-?)(\d*)\*?(q(?:\^(-?\d+))?)?\*?(t(?:\^(-?\d+))?)?")


def read_poly(text):
    """The LaurentPoly2 whose canonical text is text: monomials c*q^a*t^b,
    with c, q^a and t^b left out where they are 1, joined by ' + ' and ' - '."""
    tokens = text.split(" ")
    terms = {}
    for op, mono in zip(["+"] + tokens[1::2], tokens[::2]):
        neg, c, q, a, t, b = _MONOMIAL.fullmatch(mono).groups()
        key = (int(a or 1) if q else 0, int(b or 1) if t else 0)
        sign = -1 if (op == "-") != (neg == "-") else 1
        terms[key] = terms.get(key, 0) + sign * int(c or 1)
    return LaurentPoly2(terms)


def from_json(obj):
    """The LaurentPoly2 that to_json_obj wrote as obj."""
    assert obj["vars"] == ["q", "t"]
    return LaurentPoly2({(a, b): int(c) for a, b, c in obj["terms"]})


def test_qpochhammer_examples():
    assert qpochhammer(T, Q, 0) == ONE
    assert qpochhammer(T, Q, 2) == ONE - T - Q * T + Q * T * T
    assert qpochhammer(Q, Q, 1) == ONE - Q


def test_qpochhammer_recurrence():
    for n in range(21):
        lhs = qpochhammer(T, Q, n + 1)
        rhs = qpochhammer(T, Q, n) * (ONE - T * LaurentPoly2.monomial(1, n, 0))
        assert lhs == rhs


def test_qbinomial_examples():
    for n in range(6):
        assert qbinomial(n, 0) == ONE
    assert qbinomial(2, 1) == ONE + Q
    assert str(qbinomial(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"
    with pytest.raises(ValueError):
        qbinomial(2, 3)


def test_qbinomial_symmetry():
    for n in range(13):
        for r in range(n + 1):
            assert qbinomial(n, r) == qbinomial(n, n - r)


def _rref_count(n, r, p):
    """Count r-dim subspaces of F_p^n by enumerating reduced echelon forms."""
    from itertools import combinations
    total = 0
    for pivots in combinations(range(n), r):
        free = 0
        for i, col in enumerate(pivots):
            # free entries of row i: columns right of its pivot, not pivots
            free += sum(1 for c in range(col + 1, n) if c not in pivots)
        total += p ** free
    return total


def test_qbinomial_counts_subspaces():
    for n in range(5):
        for r in range(n + 1):
            for p in (2, 3):
                assert qbinomial(n, r).eval_int(p) == _rref_count(n, r, p)


def test_substitute():
    p = ONE - T + Q * T * T
    assert str(p.substitute(Q, LaurentPoly2.monomial(1, -1, -1))) == \
        "q^-1*t^-2 - q^-1*t^-1 + 1"
    assert p.substitute(Q, T) == p
    assert T.substitute(Q, T * T) == T * T
    with pytest.raises(UnsupportedSubstitutionError):
        p.substitute(Q + ONE, T)
    with pytest.raises(UnsupportedSubstitutionError):
        p.substitute(Q, 2 * T)


def test_eval_int():
    assert (ONE + Q * T).eval_int(2, 1) == 3
    assert type((ONE + Q * T).eval_int(2, 1)) is int
    assert QINV.eval_int(2) == Fraction(1, 2)
    assert (Q - ONE).eval_int(3, 0) == 2
    assert (ONE - T + Q * T * T).eval_int(2, 1) == 2
    with pytest.raises(ZeroDivisionError):
        QINV.eval_int(0, 1)
    with pytest.raises(ZeroDivisionError):
        LaurentPoly2.monomial(1, 0, -1).eval_int(2, 0)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO


def _assert_canonical(p):
    for (a, b), c in p.terms.items():
        assert type(a) is int and type(b) is int and type(c) is int, p.terms
        assert c != 0, p.terms
    assert hash(p) == hash(LaurentPoly2(dict(p.terms)))


def test_invariants_after_ops_random():
    rng = random.Random(23)
    for _ in range(60):
        a, b = rand_poly(rng), rand_poly(rng, terms=3, span=2)
        near = -a + b                        # a + near == b: a's terms cancel
        results = [a + near, a - a, a - (a + b), a * b, -a, a ** 3,
                   (ONE - Q) * (ONE + Q) * a,  # the q^1 terms cancel
                   (Q - T).substitute(T, T) * a,  # collapses to 0
                   a.substitute(T, Q), a.substitute(LaurentPoly2.monomial(-1, -1, 1), T)]
        assert a + near == b and results[1] == ZERO and results[7] == ZERO
        for r in results:
            _assert_canonical(r)
        assert hash(a * b) == hash(b * a) and hash(a + near) == hash(b)
        for q in (2, 3, -1):
            t = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))
            av, bv = a.eval_int(q, t), b.eval_int(q, t)
            assert (a + b).eval_int(q, t) == av + bv
            assert (a - b).eval_int(q, t) == av - bv
            assert (a * b).eval_int(q, t) == av * bv
            assert (-a).eval_int(q, t) == -av
            assert (a ** 2).eval_int(q, t) == av ** 2


def test_pow_by_squaring(monkeypatch):
    p = ONE - 2 * Q * T + QINV * T * T
    product = ONE
    for n in range(7):
        assert p ** n == product, n
        product = product * p
    assert p ** 0 == ONE and ZERO ** 0 == ONE
    calls = []
    mul = LaurentPoly2.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly2, "__mul__", counted)
    # one product per square taken and per bit after the first
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (6, 3)):
        calls.clear()
        p ** n
        assert len(calls) == products, n


def test_public_constructor_normalizes():
    p = LaurentPoly2({(1.0, 2): 3.0, ("0", True): "5", (2, 2): 0, (3, 0): False})
    assert p.terms == {(1, 2): 3, (0, 1): 5}
    _assert_canonical(p)
    assert LaurentPoly2({(0, 0): 0}) == ZERO and not LaurentPoly2({(0, 0): 0}).terms


def test_serialization_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        p = rand_poly(rng)
        assert read_poly(str(p)) == p
        assert from_json(json.loads(json.dumps(p.to_json_obj()))) == p


def test_canonical_order():
    p = Q * T * T - T + ONE
    assert str(p) == "1 - t + q*t^2"
    obj = p.to_json_obj()
    assert obj == {"vars": ["q", "t"], "terms": [[0, 0, "1"], [0, 1, "-1"], [1, 2, "1"]]}
    assert str(ZERO) == "0"
    assert read_poly(str(ZERO)) == ZERO


def test_qpoch_qinv_ratio():
    # (1/q;1/q)_3 / (1/q;1/q)_1 = (1-q^-2)(1-q^-3)
    want = (ONE - LaurentPoly2.monomial(1, -2, 0)) * (ONE - LaurentPoly2.monomial(1, -3, 0))
    assert qpoch_qinv_ratio(3, 2) == want
    assert qpoch_qinv_ratio(3, 0) == ONE


def test_grouped_str():
    p = ONE - T - Q * T + (Q ** 3 + Q * Q) * T * T
    assert p.grouped_str() == "1 - (1 + q)*t + (q^2 + q^3)*t^2"


def test_parsers_fuzz():
    # random strings over the partition parser's alphabet end in a value or a
    # ValueError, and the canonical text of a polynomial reads back to it
    rng = random.Random(41)
    for _ in range(3000):
        text = "".join(rng.choice("0123456789,[] -+x") for _ in range(rng.randint(0, 12)))
        try:
            Partition.parse(text)
        except ValueError:
            pass
    for _ in range(300):
        p = rand_poly(rng, terms=rng.randint(0, 8), span=rng.randint(1, 12))
        assert read_poly(str(p)) == p, p
