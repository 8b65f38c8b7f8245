"""Brute-force ground truth over prime fields.

Everything here is independent of the closed-form machinery: finite models of
the curve germs are built as explicit modules over F_p with commuting nilpotent
generators, and submodules are enumerated exhaustively.  A submodule of
codimension n of R^d contains m^n R^d (Nakayama chain: if [M:L] = n then the
descending chain L + m^j M must drop at every step), so codim <= N submodules
of R^d biject with those of the truncated model (R/m^N)^d.  That containment
argument is the whole correctness story for the Quot-coefficient oracle;
quot_census is the one place that sizes the model by it.

Each generator sends each basis vector to one basis vector or to 0, so it is an
index map: per basis vector, the index of its image or None.  One builder,
_presentation, makes these for every model (germs and Jordan modules alike).
A subspace is a reduced echelon basis {pivot: row}, grown one vector at a time
by _add; its rows sorted by pivot are its canonical key.  One walk, _walk, goes
down from the full module: the children of an invariant subspace L are its
hyperplanes containing m*L, each m*L plus r - 1 kernel vectors.  Every
invariant subspace of codimension k lies under one of codimension k-1
(composition series of the quotient), so the walk is exhaustive; the key
dedups it.  A census only says how to classify each node.  Only prime fields
are supported.
"""

from fractions import Fraction
from itertools import product
from math import isqrt

from .partitions import Partition
from .report import BudgetExceededError, VerificationReport, timed

DEFAULT_BUDGET = 10**7


def _require_prime(p):
    """Reject a p that is not prime: the oracle's arithmetic is that of F_p."""
    if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        raise ValueError("p must be prime, got %d" % p)


# -- linear algebra over F_p ---------------------------------------------------


def _add(rows, vec, p):
    """Add vec to rows, {pivot: row} with a 1 at its pivot and 0 at the others,
    keeping that form; return whether the span grew."""
    for piv, row in rows.items():
        c = vec[piv]
        if c:
            vec = [(x - c * y) % p for x, y in zip(vec, row)]
    lead = next((i for i, x in enumerate(vec) if x), None)
    if lead is None:
        return False
    inv = pow(vec[lead], p - 2, p)
    vec = tuple(x * inv % p for x in vec)
    for piv, row in rows.items():
        c = row[lead]
        if c:
            rows[piv] = tuple((x - c * y) % p for x, y in zip(row, vec))
    rows[lead] = vec
    return True


def _span(vectors, p, rows=()):
    """Reduced echelon basis of span(rows) + span(vectors), as a new dict."""
    rows = dict(rows)
    for v in vectors:
        _add(rows, v, p)
    return rows


def _apply(g, vec, p):
    """g(vec) for an index map g; images add, as two basis vectors may share one."""
    out = [0] * len(g)
    for k, tgt in enumerate(g):
        if tgt is not None and vec[k]:
            out[tgt] += vec[k]
    return [x % p for x in out]


def _image(gens, basis, p):
    """Reduced echelon basis of sum_g g(span basis)."""
    return _span((_apply(g, v, p) for g in gens for v in basis), p)


# -- module presentations ------------------------------------------------------


class FqModulePresentation:
    """A finite module over a commutative local F_p-algebra.

    Given by the prime, the F_p-dimension, and one index map per algebra
    generator: a tuple with one entry per basis vector, the index of its image
    or None for 0.  Generators must commute; for the local models they are also
    nilpotent (they lie in the maximal ideal) -- both checked at build.
    """

    def __init__(self, p, dim, generators, labels=None):
        _require_prime(p)
        self.p, self.dim = p, dim
        self.generators = [tuple(g) for g in generators]
        self.labels = list(labels) if labels else ["g%d" % i for i in range(len(generators))]
        self._validate()

    def _validate(self):
        n = self.dim
        for g in self.generators:
            if len(g) != n or any(t is not None and not 0 <= t < n for t in g):
                raise ValueError("generator is not an index map on %d basis vectors" % n)
        for a in self.generators:
            for b in self.generators:
                if _compose(a, b) != _compose(b, a):
                    raise ValueError("generators do not commute")
        for g in self.generators:
            power = tuple(range(n))
            for _ in range(n):
                power = _compose(g, power)
            if any(t is not None for t in power):
                raise ValueError("generator is not nilpotent")

    def full_basis(self):
        return tuple(tuple(1 if i == j else 0 for j in range(self.dim))
                     for i in range(self.dim))


def _compose(a, b):
    """The index map of a after b."""
    return tuple(None if t is None else a[t] for t in b)


def _presentation(p, names, maps, d, labels):
    """d copies of the basis `names`, one generator per partial map name -> image
    name; a name the map leaves out, or an image outside the basis, goes to 0."""
    index = {nm: k for k, nm in enumerate(names)}
    block = len(names)
    gens = []
    for act in maps:
        g = [None] * (block * d)
        for nm, k in index.items():
            tgt = index.get(act.get(nm))
            if tgt is not None:
                for off in range(0, block * d, block):
                    g[off + k] = off + tgt
        gens.append(g)
    return FqModulePresentation(p, block * d, gens, labels=labels)


def _jordan_module(parts, p, d=1):
    """(+) F_p[T]/T^{q} over q in parts, d times over, under the generator T."""
    names = [(j, i) for j, q in enumerate(parts) for i in range(q)]
    return _presentation(p, names, [{(j, i): (j, i + 1) for j, i in names}], d, ["T"])


# -- the submodule walk ---------------------------------------------------------


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


def _walk(module, max_codim, classify, budget, what, progress=dict):
    """Counts of the invariant subspaces of codim <= max_codim by classify(basis).

    Every child visited costs one unit of budget; past it, BudgetExceededError
    carries progress(counts so far)."""
    if budget < 0:
        raise ValueError("budget must be at least 0, got %d" % budget)
    p, gens = module.p, module.generators
    full = module.full_basis()
    counts = {}
    visited = {full}
    stack = [full]
    work = 0
    while stack:
        basis = stack.pop()
        key = classify(basis)
        counts[key] = counts.get(key, 0) + 1
        if module.dim - len(basis) >= max_codim:
            continue
        for child in _invariant_hyperplanes(basis, gens, p):
            work += 1
            if work > budget:
                raise BudgetExceededError("%s exceeded budget %d" % (what, budget),
                                          progress=progress(counts))
            if child not in visited:
                visited.add(child)
                stack.append(child)
    return counts


def _invariant_hyperplanes(basis, gens, p):
    """All invariant hyperplanes of span(basis), hyperplanes containing m*L, each
    as its canonical key: its reduced echelon rows sorted by pivot."""
    sub = _image(gens, basis, p)
    cur = dict(sub)  # picks complement representatives of m*L inside L
    comp = [v for v in basis if _add(cur, v, p)]
    r = len(comp)
    for i0 in range(r):
        for tail in product(range(p), repeat=r - 1 - i0):
            phi = (0,) * i0 + (1,) + tail
            kernel = ([(c - phi[j] * k) % p for c, k in zip(comp[j], comp[i0])]
                      for j in range(r) if j != i0)
            child = _span(kernel, p, sub)
            yield tuple(child[piv] for piv in sorted(child))


def enumerate_submodules(module, max_codim, budget=DEFAULT_BUDGET):
    """Census of invariant subspaces L of codimension <= max_codim by codim and
    the rank of M/L, which is dim M - dim(L + m*M)."""
    p, dim = module.p, module.dim
    m_full = _image(module.generators, module.full_basis(), p)

    def codim_rank(basis):
        return dim - len(basis), dim - len(_span(basis, p, m_full))

    counts = _walk(module, max_codim, codim_rank, budget, "submodule enumeration",
                   progress=SubmoduleCensus)
    return SubmoduleCensus(counts, params={"p": p, "dim": dim, "max_codim": max_codim})


# -- local models of the curve germs -------------------------------------------


def build_local_model(family, d, N, p, target="free"):
    """Finite F_p-model of a rank-d module over the cusp or node germ.

    target='free':          (R/m^N)^d on the monomial basis {x^i, x^i y},
                            y^2 reduced to x^{2m+1} (cusp) or x^m y (node).
    target='normalization': (Rtilde/T^{2N})^d, one branch for the cusp and two
                            for the node, with x,y acting through T.
    target='max_ideal':     m*(R/m^N)^d, the same free model without the unit
                            monomials (used by the conversion-identity check).
    """
    kind, m = family if isinstance(family, tuple) else (family.kind, family.m)
    if m < 1:
        raise ValueError("m must be at least 1, got %d" % m)
    if d < 0:
        raise ValueError("d must be at least 0, got %d" % d)
    if N < 1:
        raise ValueError("N must be at least 1")
    if kind not in ("cusp", "node"):
        raise ValueError("unknown family kind %r" % kind)

    if target in ("free", "max_ideal"):
        # monomial x^i has m-adic order i, monomial x^i*y has order i+1
        lo = 1 if target == "max_ideal" else 0
        names = [("x", i) for i in range(lo, N)] + [("y", i) for i in range(N - 1)]
        y_on_y = ("x", 2 * m + 1) if kind == "cusp" else ("y", m)
        maps = [{(c, i): (c, i + 1) for c, i in names},
                {(c, i): ("y", i) if c == "x" else (y_on_y[0], i + y_on_y[1])
                 for c, i in names}]
    elif target == "normalization":
        if kind == "cusp":
            names = [("T", i) for i in range(2 * N)]
            maps = [{(b, i): (b, i + 2) for b, i in names},
                    {(b, i): (b, i + 2 * m + 1) for b, i in names}]
        else:
            names = [(b, i) for b in ("T1", "T2") for i in range(2 * N)]
            maps = [{(b, i): (b, i + 1) for b, i in names},
                    {(b, i): (b, i + m) for b, i in names if b == "T1"}]
    else:
        raise ValueError("unknown target %r" % target)
    return _presentation(p, names, maps, d, ["x", "y"])


def quot_census(family, m, d, p, max_codim, module="free", budget=DEFAULT_BUDGET):
    """Census of the codim <= max_codim submodules of the rank-d ambient.

    module selects the ambient: 'free' R^d, 'normalization' Rtilde^d, or
    'max_ideal' (m R)^d.  Its model truncates at N = max(max_codim, 1), or at
    N = max_codim + 1 for 'max_ideal', which is exact only to codim N - 1.
    """
    if max_codim < 0:
        raise ValueError("max_codim must be at least 0, got %d" % max_codim)
    kind = family if isinstance(family, str) else family.kind
    N = max_codim + 1 if module == "max_ideal" else max(max_codim, 1)
    model = build_local_model((kind, m), d, N, p, target=module)
    return enumerate_submodules(model, max_codim, budget=budget)


def quot_coeffs_oracle(family, m, d, p, N, module="free", budget=DEFAULT_BUDGET):
    """t^0..t^N coefficients of the rank-d Quot zeta function at q=p (to t^{N-1}
    for module 'max_ideal'); the ambients are those of quot_census."""
    max_codim = N - 1 if module == "max_ideal" else N
    return quot_census(family, m, d, p, max_codim, module, budget).coefficients(max_codim)


def solomon_census(d, p, N, budget=DEFAULT_BUDGET):
    """Census of (F_p[T]/T^N)^d under the single generator T."""
    if d < 0:
        raise ValueError("d must be at least 0, got %d" % d)
    if N < 0:
        raise ValueError("N must be at least 0, got %d" % N)
    return enumerate_submodules(_jordan_module((N,), p, d), N, budget=budget)


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
    model = _jordan_module(lam.parts, p)
    gens = model.generators
    m_powers = [_span(model.full_basis(), p)]
    while m_powers[-1]:
        m_powers.append(_image(gens, m_powers[-1].values(), p))

    def type_cotype(basis):
        return _module_type(basis, gens, p), _cotype(basis, m_powers, p)

    counts = _walk(model, model.dim, type_cotype, budget, "DVR census")
    _DVR_CENSUS_CACHE[key] = counts
    return counts


def _module_type(basis, gens, p):
    """Type of span(basis) as an F_p[T]-module, as a parts tuple."""
    dims, cur = [len(basis)], basis
    while cur:
        cur = _image(gens, cur, p).values()
        dims.append(len(cur))
    cols = [dims[j - 1] - dims[j] for j in range(1, len(dims))]
    return Partition(cols).conjugate().parts


def _cotype(basis, m_powers, p):
    dims = [len(_span(basis, p, mp)) - len(basis) for mp in m_powers]
    cols = [dims[j - 1] - dims[j] for j in range(1, len(dims)) if dims[j - 1] > dims[j]]
    return Partition(cols).conjugate().parts


def surjective_homs_count(mu, d, p):
    """Exhaustive count of surjections R^d ->> M for M of type mu over F_p.

    A hom is a d-tuple of elements of M; it is onto iff the T-closure of the
    images spans.
    """
    dim = mu.size()
    if dim == 0:
        return 1
    tmap = _jordan_module(mu.parts, p).generators[0]
    count = 0
    for combo in product(product(range(p), repeat=dim), repeat=d):
        vecs = []
        for v in combo:
            while any(v):
                vecs.append(v)
                v = _apply(tmap, v, p)
        if len(_span(vecs, p)) == dim:
            count += 1
    return count


# -- matrix-pair counting --------------------------------------------------------


def _mat_mul(a, b, p):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
                 for row in a)


def matrix_pair_count(n, p, budget=DEFAULT_BUDGET):
    """#{(A,B) in Mat_n(F_p)^2 : AB = BA, A^2 = B^3} by exhaustive search."""
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be at least 0, got %d" % n)
    if budget < 0:
        raise ValueError("budget must be at least 0, got %d" % budget)
    if p ** (2 * n * n) > budget:
        raise BudgetExceededError("matrix enumeration %d^%d exceeds budget"
                                  % (p, 2 * n * n))
    if n == 0:
        return 1
    mats = [tuple(flat[i:i + n] for i in range(0, n * n, n))
            for flat in product(range(p), repeat=n * n)]
    squares = {a: _mat_mul(a, a, p) for a in mats}
    count = 0
    for b in mats:
        b3 = _mat_mul(squares[b], b, p)
        for a in mats:
            if squares[a] == b3 and _mat_mul(a, b, p) == _mat_mul(b, a, p):
                count += 1
    return count


# -- Coh/Quot invariance ----------------------------------------------------------


def _poch_frac(x, n):
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= 1 - x**k
    return out


def coh_quot_invariance_check(family, m, p, n, r, d_list, budget=DEFAULT_BUDGET):
    """Check that p^{-dn} (1/p;1/p)_{d-r} / (1/p;1/p)_d #Quot^r_{d,n} is d-independent."""
    kind = family if isinstance(family, str) else family.kind
    if not d_list:
        raise ValueError("d_list must name at least one rank")
    values = []
    with timed() as tm:
        for d in d_list:
            if r > min(d, n):
                raise ValueError("need r <= min(d, n)")
            census = quot_census(kind, m, d, p, n, budget=budget)
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
