"""Integer partitions: conjugation, containment, enumeration.

Partitions index every summation in the closed-form zeta formulas.  They are
stored as tuples of weakly decreasing positive parts; the empty partition is
().  All enumeration orders are graded by size and then lexicographic, so
downstream reports are reproducible.

Conjugation is one cached function on part tuples, conjugate_parts, which
Partition.conjugate, conj_part and the Hall algebra's tuple-keyed tables
share.
"""

from functools import cache

from .report import require


@cache
def conjugate_parts(parts):
    """The column lengths lam'_i = #{j : lam_j >= i} of the part tuple parts."""
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)) if parts else ()


class Partition:
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts if p)
        for i in range(len(parts) - 1):
            if parts[i] < parts[i + 1]:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        if parts and parts[-1] < 0:
            raise ValueError("parts must be positive")
        self.parts = parts

    @staticmethod
    def box(m, d):
        """The d-by-m box (m^d): d parts equal to m."""
        return Partition((m,) * d) if m else Partition()

    def size(self):
        return sum(self.parts)

    def length(self):
        return len(self.parts)

    def part(self, i):
        """1-indexed part, 0 beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self):
        """The partition of column lengths lam'_i = #{j : lam_j >= i}."""
        return Partition(conjugate_parts(self.parts))

    def conj_part(self, i):
        """1-indexed column length lam'_i, 0 beyond the last column."""
        cols = conjugate_parts(self.parts)
        return cols[i - 1] if 1 <= i <= len(cols) else 0

    def contains(self, mu):
        """True iff mu_i <= self_i for all i (Young diagram containment)."""
        outer, inner = self.parts, mu.parts
        return len(inner) <= len(outer) and all(b <= a for a, b in zip(outer, inner))

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return (self.size(), self.parts) < (other.size(), other.parts)

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    __repr__ = __str__

    @staticmethod
    def parse(text):
        """Parse `3,1` or `[3,1]` (empty string or `[]` is the empty partition).

        Zero parts are allowed at the end only (`2,0` is [2], `0` is []).
        """
        body = text.strip().strip("[]")
        if not body:
            return Partition()
        try:
            parts = tuple(int(p) for p in body.split(","))
        except ValueError:
            raise ValueError("partition parts must be integers, got %r" % text) from None
        # checked as typed: the constructor drops zero parts before its own check
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        return Partition(parts)


def iterate_box(m, d):
    """All mu contained in the d-by-m box, graded by |mu| then lexicographic."""
    require(0, m=m, d=d)
    yield from subpartitions(Partition.box(m, d))


def subpartitions(lam):
    """All mu contained in lam as diagrams, graded by |mu| then lexicographic."""
    subs = sorted(_sub_rec((), lam.parts))
    subs.sort(key=sum)  # stable: lexicographic within each size
    return [Partition(mu) for mu in subs]


def _sub_rec(prefix, rows):
    yield prefix
    if len(prefix) == len(rows):
        return
    cap = min(rows[len(prefix)], prefix[-1]) if prefix else rows[0]
    for p in range(1, cap + 1):
        yield from _sub_rec(prefix + (p,), rows)


def _sized_rec(prefix, cap, remaining):
    if remaining == 0:
        yield prefix
        return
    top = min(cap, remaining)
    for p in range(1, top + 1):
        yield from _sized_rec(prefix + (p,), p, remaining - p)


def partitions_of(n, max_part=None):
    """All partitions of exactly n (optionally with bounded largest part)."""
    cap = n if max_part is None else max_part
    return [Partition(mu) for mu in sorted(_sized_rec((), cap, n))]
