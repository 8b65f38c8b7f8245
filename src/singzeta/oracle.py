"""Brute-force ground truth over prime fields.

Everything here is independent of the closed-form machinery: finite models of
the curve germs are built as explicit modules over F_p with commuting nilpotent
generator matrices, and submodules are enumerated exhaustively.  A submodule of
codimension n of R^d contains m^n R^d (Nakayama chain: if [M:L] = n then the
descending chain L + m^j M must drop at every step), so codim <= N submodules
of R^d biject with those of the truncated model (R/m^N)^d.  That containment
argument is the whole correctness story for the Quot-coefficient oracle.

Enumeration walks downward from the full module: the children of an invariant
subspace L are its invariant hyperplanes, i.e. hyperplanes of L containing m*L.
Every invariant subspace of codimension k lies under one of codimension k-1
(composition series of the quotient), so the walk is exhaustive; a canonical
reduced-echelon basis is the dedup key.  Only prime fields are supported.
"""

from fractions import Fraction
from math import isqrt

from .partitions import Partition
from .report import BudgetExceededError, VerificationReport, timed

DEFAULT_BUDGET = 10**7


def _require_prime(p):
    """Reject a p that is not prime: the oracle's arithmetic is that of F_p."""
    if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        raise ValueError("p must be prime, got %d" % p)


# -- linear algebra over F_p ---------------------------------------------------


def _rref(vectors, p):
    """Canonical reduced row-echelon basis of the span, as a tuple of tuples."""
    rows = [list(v) for v in vectors if any(v)]
    dim = len(vectors[0]) if vectors else 0
    basis = []  # list of (pivot, row)
    for row in rows:
        for piv, b in basis:
            if row[piv]:
                c = row[piv]
                row = [(x - c * y) % p for x, y in zip(row, b)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [(x * inv) % p for x in row]
        for piv, b in basis:
            if b[lead]:
                c = b[lead]
                b[:] = [(x - c * y) % p for x, y in zip(b, row)]
        basis.append((lead, row))
    basis.sort()
    return tuple(tuple(b) for _, b in basis)


def _mat_apply(mat, vec, p):
    return tuple(sum(r * v for r, v in zip(row, vec)) % p for row in mat)


def _image_basis(mats, basis, p):
    """Echelon basis of sum_g g(span basis)."""
    vecs = [_mat_apply(m, v, p) for m in mats for v in basis]
    return _rref(vecs, p) if vecs else ()


def _join(a, b, p):
    if not a:
        return b
    if not b:
        return a
    return _rref(list(a) + list(b), p)


def _reduce_mod(vec, basis, p):
    row = list(vec)
    for b in basis:
        piv = next(i for i, x in enumerate(b) if x)
        if row[piv]:
            c = row[piv]
            row = [(x - c * y) % p for x, y in zip(row, b)]
    return tuple(row)


# -- module presentations ------------------------------------------------------


class FqModulePresentation:
    """A finite module over a commutative local F_p-algebra.

    Given by the prime, the F_p-dimension, and one dim-by-dim action matrix per
    algebra generator.  Generators must commute; for the local models they are
    also nilpotent (they lie in the maximal ideal) -- both checked at build.
    """

    def __init__(self, p, dim, generators, labels=None, check=True):
        _require_prime(p)
        self.p = p
        self.dim = dim
        self.generators = [tuple(tuple(x % p for x in row) for row in g) for g in generators]
        self.labels = list(labels) if labels else ["g%d" % i for i in range(len(generators))]
        if check:
            self._validate()

    def _validate(self):
        p, n = self.p, self.dim
        for g in self.generators:
            if len(g) != n or any(len(row) != n for row in g):
                raise ValueError("generator matrix is not %dx%d" % (n, n))
        for a in self.generators:
            for b in self.generators:
                if _mat_mul(a, b, p) != _mat_mul(b, a, p):
                    raise ValueError("generator matrices do not commute")
        for g in self.generators:
            power = g
            for _ in range(n + 1):
                if all(all(x == 0 for x in row) for row in power):
                    break
                power = _mat_mul(power, g, p)
            else:
                raise ValueError("generator matrix is not nilpotent")

    def full_basis(self):
        return tuple(tuple(1 if i == j else 0 for j in range(self.dim))
                     for i in range(self.dim))


def _mat_mul(a, b, p):
    n = len(a)
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
                 for row in a)


class SubmoduleCensus:
    """Counts of invariant subspaces graded by (codimension, quotient rank)."""

    def __init__(self, counts, params=None):
        self.counts = dict(counts)
        self.params = dict(params or {})

    def by_codim(self):
        out = {}
        for (n, _), c in self.counts.items():
            out[n] = out.get(n, 0) + c
        return out

    def coefficients(self, max_codim):
        by = self.by_codim()
        return [by.get(n, 0) for n in range(max_codim + 1)]

    def __eq__(self, other):
        return isinstance(other, SubmoduleCensus) and self.counts == other.counts

    def to_json_obj(self):
        obj = {"(%d,%d)" % k: str(v) for k, v in sorted(self.counts.items())}
        return {"census": obj, "params": {k: str(v) for k, v in self.params.items()}}


def enumerate_submodules(module, max_codim, budget=DEFAULT_BUDGET, schedule="lex"):
    """Census of invariant subspaces of codimension <= max_codim.

    Rank of the quotient M/L is dim M - dim(L + m*M).  The DFS is deduplicated
    on canonical echelon bases, so counts are independent of the schedule
    ('lex' or 'revlex' child order, asserted equal by a test).
    """
    p = module.p
    gens = module.generators
    full = module.full_basis()
    m_full = _image_basis(gens, full, p)
    visited = set()
    counts = {}
    work = 0
    stack = [full]
    visited.add(full)
    while stack:
        basis = stack.pop()
        codim = module.dim - len(basis)
        rank = module.dim - len(_join(basis, m_full, p))
        counts[(codim, rank)] = counts.get((codim, rank), 0) + 1
        if codim >= max_codim:
            continue
        for child in _invariant_hyperplanes(basis, gens, p, schedule):
            work += 1
            if work > budget:
                raise BudgetExceededError(
                    "submodule enumeration exceeded budget %d" % budget,
                    progress=SubmoduleCensus(counts))
            if child not in visited:
                visited.add(child)
                stack.append(child)
    return SubmoduleCensus(counts, params={"p": p, "dim": module.dim,
                                           "max_codim": max_codim})


def _invariant_hyperplanes(basis, gens, p, schedule="lex"):
    """All invariant hyperplanes of span(basis): hyperplanes containing m*L."""
    sub = _image_basis(gens, basis, p)
    # complement representatives of m*L inside L
    comp = []
    cur = sub
    for v in basis:
        red = _reduce_mod(v, cur, p)
        if any(red):
            comp.append(v)
            cur = _join(cur, _rref([red], p), p)
    r = len(comp)
    out = []
    for i0 in range(r):
        for tail in _tuples(p, r - 1 - i0):
            phi = (0,) * i0 + (1,) + tail
            kernel = [tuple((c - phi[j] * k) % p for c, k in zip(comp[j], comp[i0]))
                      for j in range(r) if j != i0]
            out.append(_rref(list(sub) + kernel, p))
    if schedule == "revlex":
        out.reverse()
    return out


def _tuples(p, n):
    if n == 0:
        yield ()
        return
    for head in range(p):
        for tail in _tuples(p, n - 1):
            yield (head,) + tail


# -- local models of the curve germs -------------------------------------------


def _kind_m(family):
    if isinstance(family, tuple):
        return family
    return family.kind, family.m


def build_local_model(family, d, N, p, target="free"):
    """Finite F_p-model of a rank-d module over the cusp or node germ.

    target='free':          (R/m^N)^d on the monomial basis {x^i, x^i y},
                            y^2 reduced to x^{2m+1} (cusp) or x^m y (node).
    target='normalization': (Rtilde/T^{2N})^d, one branch for the cusp and two
                            for the node, with x,y acting through T.
    target='max_ideal':     m*(R/m^N)^d, the same free model without the unit
                            monomials (used by the conversion-identity check).
    """
    kind, m = _kind_m(family)
    if N < 1:
        raise ValueError("N must be at least 1")
    if kind not in ("cusp", "node"):
        raise ValueError("unknown family kind %r" % kind)

    if target in ("free", "max_ideal"):
        # monomial x^i has m-adic order i, monomial x^i*y has order i+1
        lo = 1 if target == "max_ideal" else 0
        names = [("x", i) for i in range(lo, N)] + [("y", i) for i in range(N - 1)]
        index = {nm: k for k, nm in enumerate(names)}

        def x_act(nm):
            kindc, i = nm
            tgt = (kindc, i + 1)
            return tgt if tgt in index else None

        if kind == "cusp":
            def y_act(nm):
                kindc, i = nm
                tgt = ("y", i) if kindc == "x" else ("x", i + 2 * m + 1)
                return tgt if tgt in index else None
        else:
            def y_act(nm):
                kindc, i = nm
                tgt = ("y", i) if kindc == "x" else ("y", i + m)
                return tgt if tgt in index else None

        acts = [x_act, y_act]
    elif target == "normalization":
        if kind == "cusp":
            names = [("T", i) for i in range(2 * N)]
            index = {nm: k for k, nm in enumerate(names)}

            def x_act(nm):
                tgt = ("T", nm[1] + 2)
                return tgt if tgt in index else None

            def y_act(nm):
                tgt = ("T", nm[1] + 2 * m + 1)
                return tgt if tgt in index else None
        else:
            names = [("T1", i) for i in range(2 * N)] + [("T2", i) for i in range(2 * N)]
            index = {nm: k for k, nm in enumerate(names)}

            def x_act(nm):
                tgt = (nm[0], nm[1] + 1)
                return tgt if tgt in index else None

            def y_act(nm):
                if nm[0] != "T1":
                    return None
                tgt = ("T1", nm[1] + m)
                return tgt if tgt in index else None

        acts = [x_act, y_act]
    else:
        raise ValueError("unknown target %r" % target)

    block = len(names)
    dim = block * d
    mats = []
    for act in acts:
        mat = [[0] * dim for _ in range(dim)]
        for copy in range(d):
            off = copy * block
            for nm, k in index.items():
                tgt = act(nm)
                if tgt is not None:
                    mat[off + index[tgt]][off + k] = 1
        mats.append(mat)
    return FqModulePresentation(p, dim, mats, labels=["x", "y"])


def quot_coeffs_oracle(family, m, d, p, N, module="free", budget=DEFAULT_BUDGET):
    """t^0..t^N coefficients of the rank-d Quot zeta function at q=p.

    module selects the ambient: 'free' R^d, 'normalization' Rtilde^d, or
    'max_ideal' (m R)^d (the last is exact only to codim N-1).
    """
    kind = family if isinstance(family, str) else family.kind
    model = build_local_model((kind, m), d, N, p, target=module)
    max_codim = N - 1 if module == "max_ideal" else N
    census = enumerate_submodules(model, max_codim, budget=budget)
    return census.coefficients(max_codim)


def solomon_census(d, p, N, budget=DEFAULT_BUDGET):
    """Census of (F_p[T]/T^N)^d under the single generator T."""
    block = N
    dim = N * d
    mat = [[0] * dim for _ in range(dim)]
    for copy in range(d):
        off = copy * block
        for i in range(N - 1):
            mat[off + i + 1][off + i] = 1
    model = FqModulePresentation(p, dim, [mat], labels=["T"])
    return enumerate_submodules(model, N, budget=budget)


# -- DVR-module census for Hall polynomial checks -------------------------------


_DVR_CENSUS_CACHE = {}


def dvr_type_cotype_census(lam, p, budget=DEFAULT_BUDGET):
    """Counts of submodules of (+) F_p[T]/T^{lam_i} by (type, cotype) parts.

    Types are read from rank drops of powers of T on the subspace and on the
    quotient.
    """
    key = (lam.parts, p)
    got = _DVR_CENSUS_CACHE.get(key)
    if got is not None:
        return got
    parts = lam.parts
    dim = sum(parts)
    offs = []
    pos = 0
    for q in parts:
        offs.append(pos)
        pos += q
    mat = [[0] * dim for _ in range(dim)]
    for off, q in zip(offs, parts):
        for i in range(q - 1):
            mat[off + i + 1][off + i] = 1
    model = FqModulePresentation(p, dim, [mat], labels=["T"])

    tmat = model.generators[0]
    full = model.full_basis()
    m_powers = [full]
    while m_powers[-1]:
        m_powers.append(_image_basis([tmat], m_powers[-1], p))

    counts = {}
    visited = set()
    stack = [full]
    visited.add(full)
    work = 0
    while stack:
        basis = stack.pop()
        tm = _module_type(basis, tmat, p)
        cot = _cotype(basis, m_powers, p)
        key2 = (tm, cot)
        counts[key2] = counts.get(key2, 0) + 1
        for child in _invariant_hyperplanes(basis, [tmat], p):
            work += 1
            if work > budget:
                raise BudgetExceededError("DVR census exceeded budget %d" % budget)
            if child not in visited:
                visited.add(child)
                stack.append(child)
    _DVR_CENSUS_CACHE[key] = counts
    return counts


def _module_type(basis, tmat, p):
    """Type of span(basis) as an F_p[T]-module, as a parts tuple."""
    dims = [len(basis)]
    cur = basis
    while cur:
        cur = _image_basis([tmat], cur, p)
        dims.append(len(cur))
    cols = [dims[j - 1] - dims[j] for j in range(1, len(dims))]
    return Partition(cols).conjugate().parts


def _cotype(basis, m_powers, p):
    dims = [len(_join(mp, basis, p)) - len(basis) for mp in m_powers]
    cols = [dims[j - 1] - dims[j] for j in range(1, len(dims)) if dims[j - 1] > dims[j]]
    return Partition(cols).conjugate().parts


def surjective_homs_count(mu, d, p):
    """Exhaustive count of surjections R^d ->> M for M of type mu over F_p.

    A hom is a d-tuple of elements of M; it is onto iff the T-closure of the
    images spans.
    """
    parts = mu.parts
    dim = sum(parts)
    if dim == 0:
        return 1
    offs = []
    pos = 0
    for q in parts:
        offs.append(pos)
        pos += q
    tmat = [[0] * dim for _ in range(dim)]
    for off, q in zip(offs, parts):
        for i in range(q - 1):
            tmat[off + i + 1][off + i] = 1
    elements = list(_tuples(p, dim))
    count = 0
    for combo in _vector_tuples(elements, d):
        vecs = []
        for v in combo:
            w = v
            while any(w):
                vecs.append(w)
                w = _mat_apply(tmat, w, p)
        if len(_rref(vecs, p)) == dim:
            count += 1
    return count


def _vector_tuples(elements, d):
    if d == 0:
        yield ()
        return
    for head in elements:
        for tail in _vector_tuples(elements, d - 1):
            yield (head,) + tail


# -- matrix-pair counting --------------------------------------------------------


def matrix_pair_count(n, p, budget=DEFAULT_BUDGET):
    """#{(A,B) in Mat_n(F_p)^2 : AB = BA, A^2 = B^3} by exhaustive search."""
    _require_prime(p)
    if p ** (2 * n * n) > budget:
        raise BudgetExceededError("matrix enumeration %d^%d exceeds budget"
                                  % (p, 2 * n * n))
    if n == 0:
        return 1
    mats = [tuple(tuple(row) for row in _chunk(flat, n))
            for flat in _tuples(p, n * n)]
    squares = {a: _mat_mul(a, a, p) for a in mats}
    count = 0
    for b in mats:
        b3 = _mat_mul(squares[b], b, p)
        for a in mats:
            if squares[a] == b3 and _mat_mul(a, b, p) == _mat_mul(b, a, p):
                count += 1
    return count


def _chunk(flat, n):
    return [flat[i * n:(i + 1) * n] for i in range(n)]


# -- Coh/Quot invariance ----------------------------------------------------------


def _poch_frac(x, n):
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= 1 - x**k
    return out


def coh_quot_invariance_check(family, m, p, n, r, d_list, budget=DEFAULT_BUDGET):
    """Check that p^{-dn} (1/p;1/p)_{d-r} / (1/p;1/p)_d #Quot^r_{d,n} is d-independent."""
    kind = family if isinstance(family, str) else family.kind
    values = []
    with timed() as tm:
        for d in d_list:
            if r > min(d, n):
                raise ValueError("need r <= min(d, n)")
            model = build_local_model((kind, m), d, max(n, 1), p, target="free")
            census = enumerate_submodules(model, n, budget=budget)
            quot_count = census.counts.get((n, r), 0)
            x = Fraction(1, p)
            val = Fraction(quot_count) * x**(d * n) * _poch_frac(x, d - r) / _poch_frac(x, d)
            values.append(val)
    ok = all(v == values[0] for v in values)
    return VerificationReport(
        "coh-quot-invariance",
        {"family": kind, "m": m, "p": p, "n": n, "r": r, "d_list": tuple(d_list)},
        "pass" if ok else "fail",
        lhs=str(values[0]), rhs=str(values),
        discrepancy=None if ok else (n, r),
        wall_time=tm.elapsed,
        detail="values " + ", ".join(str(v) for v in values))
