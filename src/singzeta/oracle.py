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
index map; one builder, _presentation, makes these for every model and sorts
the basis by depth, the longest chain of generators that ends at a vector, so
m^j M is spanned by the vectors from levels[j] up.  A vector is one int,
coordinate i in bits [w*i, w*i + w) with 2^(w-1) >= p (_Lanes), by one path for
every prime; index maps move lanes by masked shifts.  A subspace is a reduced
echelon basis {pivot: row} (_add, _span), each row pivoting at its lowest
nonzero lane; its rows sorted by pivot are its canonical key.

One walk, _walk, counts the invariant subspaces K by their annihilators U =
K^perp in the dual M^v, e*_t in lane dim-1-t (Macdonald, Symmetric Functions
and Hall Polynomials, Ch. II 1).  K -> K^perp reverses inclusion and maps the
invariant subspaces onto those stable under every transpose g^T, with codim K =
dim U, so a node at codim c is c rows.  The stable subspaces one dimension
above U are U + <v> over the lines v of (U:m)/U, (U:m) = {v : g^T v in U for
every g}: the annihilators of K's hyperplanes containing m*K, which are K's
invariant hyperplanes, so s = dim (U:m)/U = dim K/mK.  A stable U of dimension
c + 1 contains a stable U' of dimension c (a composition series of U under the
g^T), and U = U' + <v> with v in (U':m), so the walk from U = 0 is exhaustive.
It builds each U once, from its canonical parent U[1:], U's rows but the first:
g(k) = t puts t deeper than k, so every g^T strictly raises a vector's lowest
lane, m*U = sum g^T U is 0 at the first row's pivot, and U[1:] spans a stable
hyperplane of U that contains m*U.  So the children of U are the U + <v> with v
pivoting below U's first pivot (_lines), and the walk keeps no set of the
subspaces it has seen.

(U:m)/U is read off U's rows alone (_socle).  g^T e*_t has support {k : g(k) =
t}, disjoint over t, and a v that is 0 at U's pivots pi lies in (U:m) iff g^T v
= sum_pi v_g(pi) u_pi for every g.  So v is fixed by its values at the socle
units e*_t, t of depth 0, in (U:m) for free, and at the hit set H, the g(pi)
less the pivots: any other hit t is cancelled by its own coordinate, one k
with g(k) = t, which gives v_t.  The candidates v^h, h in H, so built lie in
(U:m) exactly on the kernel of their residuals: |H| <= c*G unknowns for G
generators.  A child's key is (v, *U's rows), with no elimination, and a node
is charged its lines before any child is built, so the budget stops a wide node
at once.  The leaves, at codim max_codim, are never built: a census reads a
leaf only through its row count and pivots, and every child of a head b_i0 of
the basis pivots where b_i0 does, so each head is classified once and its
children are counted together.

The readings are pivot counts.  Each row vanishes below its pivot, so U meets
the span of its top k lanes in the rows pivoting there.  The top levels[j]
lanes are the e*_t that kill m^j M, so those rows count dim M/(K + m^j M): at
j = 1 the rank of M/K; their steps over j are the conjugate of a DVR
submodule's cotype.  Its type is the conjugate of the steps of dim K[T^j]: s
at j = 1, and for j >= 2 the number of e_t with T^j e_t = 0 less the rank of U
masked to their lanes.  The DVR census counts the walk by these raw steps
and conjugates each distinct key once, after the walk.  Only prime fields are
supported.

Hall counts are read off that census in one place, hall_count_oracle: the
number of submodules of type mu, and cotype nu when given, of the DVR-module
of type lambda over F_p, which g^lambda_mu(p) and g^lambda_{mu nu}(p) must
equal.
"""

from functools import cached_property
from itertools import product
from math import gcd, isqrt, prod

from .partitions import conjugate_parts
from .report import BudgetExceededError, VerificationReport, require, timed

DEFAULT_BUDGET = 10**7


def _require_prime(p):
    """Reject a p that is not prime: the oracle's arithmetic is that of F_p."""
    if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        raise ValueError("p must be prime, got %d" % p)


# -- linear algebra over F_p ---------------------------------------------------


class _Lanes:
    """Vectors of F_p^dim packed into one int: coordinate i is bits [w*i, w*i + w),
    with 2^(w-1) >= p, so a lane holds the sum of two residues."""

    def __init__(self, p, dim):
        w = (p - 1).bit_length() + 1
        ones = sum(1 << (w * i) for i in range(dim))
        self.p, self.w, self.mask = p, w, (1 << w) - 1
        self.highs, self.ps = ones << (w - 1), ones * p
        self.offset = ones * ((1 << (w - 1)) - p)  # lane s >= p iff s + offset sets bit w-1
        self.inv = [None] + [pow(c, p - 2, p) for c in range(1, p)]

    def reduce(self, s):
        """s mod p lane by lane, for lanes in [0, 2p)."""
        return s - (((s + self.offset) & self.highs) >> (self.w - 1)) * self.p

    def sub(self, a, b):
        return self.reduce(a + self.ps - b)

    def scale(self, c, v):
        """c*v for 0 <= c < p, by doubling and adding."""
        if c == 1:
            return v
        out = 0
        while c:
            if c & 1:
                out = self.reduce(out + v)
            c, v = c >> 1, self.reduce(v + v)
        return out

    def pack(self, coords):
        return sum((x % self.p) << (self.w * i) for i, x in enumerate(coords))


def _add(rows, vec, lanes):
    """Add vec to rows, {pivot: row} with a 1 at its pivot and 0 at the others,
    keeping that form; return whether the span grew."""
    w, mask = lanes.w, lanes.mask
    # rows are 0 at each other's pivots, so taking one row off vec leaves its
    # other pivot lanes as they were, and each is read in turn
    for i, row in rows.items():
        if c := (vec >> (w * i)) & mask:
            vec = lanes.sub(vec, lanes.scale(c, row))
    if not vec:
        return False
    lead = ((vec & -vec).bit_length() - 1) // w
    vec = lanes.scale(lanes.inv[(vec >> (w * lead)) & mask], vec)
    for piv, row in rows.items():
        c = (row >> (w * lead)) & mask
        if c:
            rows[piv] = lanes.sub(row, lanes.scale(c, vec))
    rows[lead] = vec
    return True


def _span(vectors, lanes, rows=()):
    """Reduced echelon basis of span(rows) + span(vectors), as a new dict."""
    rows = dict(rows)
    for v in vectors:
        _add(rows, v, lanes)
    return rows


def _compile(g, w):
    """An index map as groups of (mask, left, right) lane shifts; the sources of
    one group go to distinct targets, so their shifted lanes OR together."""
    groups = []  # (targets, {shift: mask of its sources})
    for k, t in enumerate(g):
        if t is not None:
            group = next((gr for gr in groups if t not in gr[0]), None)
            if group is None:
                groups.append(group := (set(), {}))
            group[0].add(t)
            group[1][w * (t - k)] = group[1].get(w * (t - k), 0) | ((1 << w) - 1) << (w * k)
    return tuple(tuple((mask, max(s, 0), max(-s, 0)) for s, mask in parts.items())
                 for _, parts in groups)


def _apply(g, vec, lanes):
    """g(vec) for a compiled index map g; groups add, as their targets may meet."""
    out = 0
    for parts in g:
        img = 0
        for mask, left, right in parts:
            img |= ((vec & mask) << left) >> right
        out = lanes.reduce(out + img)
    return out


# -- module presentations ------------------------------------------------------


class FqModulePresentation:
    """A finite module over a commutative local F_p-algebra.

    Given by the prime, the F_p-dimension, and one index map per algebra
    generator: a tuple with one entry per basis vector, the index of its image
    or None for 0.  Generators must commute; for the local models they are also
    nilpotent (they lie in the maximal ideal); both are checked.  The basis is
    then sorted by depth, stably, so `generators` are the given maps renumbered
    in depth order, and levels[j] is the number of vectors of depth < j.
    `compiled`, the maps as lane shifts for _apply, is built on first use.
    """

    def __init__(self, p, dim, generators):
        _require_prime(p)
        self.p, self.dim = p, dim
        self.generators = [tuple(g) for g in generators]
        self._validate()
        # reach is the basis of m^j M at step j: it shrinks until it is stable,
        # so within dim steps, and commuting generators are all nilpotent iff
        # it reaches {}
        depth, reach = [0] * dim, set(range(dim))
        for _ in range(dim):
            reach = {g[k] for g in self.generators for k in reach if g[k] is not None}
            for k in reach:
                depth[k] += 1
        if reach:
            raise ValueError("generator is not nilpotent")
        order = sorted(range(dim), key=depth.__getitem__)
        lane = {k: i for i, k in enumerate(order)}
        self.generators = [tuple(lane.get(g[k]) for k in order) for g in self.generators]
        self.levels = [sum(1 for x in depth if x < j) for j in range(max(depth, default=0) + 2)]
        self.lanes = _Lanes(p, dim)

    @cached_property
    def compiled(self):
        return [_compile(g, self.lanes.w) for g in self.generators]

    def _validate(self):
        n = self.dim
        for g in self.generators:
            if len(g) != n or any(t is not None and not 0 <= t < n for t in g):
                raise ValueError("generator is not an index map on %d basis vectors" % n)
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1:]:
                if _compose(a, b) != _compose(b, a):
                    raise ValueError("generators do not commute")


def _compose(a, b):
    """The index map of a after b."""
    return tuple(None if t is None else a[t] for t in b)


def _presentation(p, names, maps, d):
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
    return FqModulePresentation(p, block * d, gens)


def _jordan_module(parts, p, d=1):
    """(+) F_p[T]/T^{q} over q in parts, d times over, under the generator T."""
    names = [(j, i) for j, q in enumerate(parts) for i in range(q)]
    return _presentation(p, names, [{(j, i): (j, i + 1) for j, i in names}], d)


# -- the submodule walk ---------------------------------------------------------


class SubmoduleCensus:
    """Counts of invariant subspaces graded by (codimension, quotient rank)."""

    def __init__(self, counts, params=None):
        self.counts = dict(counts)
        self.params = dict(params or {})

    def coefficients(self, max_codim):
        out = [0] * (max_codim + 1)
        for (n, _), c in self.counts.items():
            if n <= max_codim:
                out[n] += c
        return out

    def __eq__(self, other):
        return isinstance(other, SubmoduleCensus) and self.counts == other.counts

    def to_json_obj(self):
        obj = {"(%d,%d)" % k: str(v) for k, v in sorted(self.counts.items())}
        return {"census": obj, "params": {k: str(v) for k, v in self.params.items()}}


def _duals(module):
    """The generators on M^v, where lane q is e*_t for t = dim-1-q: per g its
    lane map q -> dim-1-g(t); as (shift, mask) pairs on the wide lanes, block
    i for the i-th g, the gathers of each g^T (lane of g(k) to lane of k in
    block i) and the pushes out of block i (lane of k to lane of g(k)) from
    each hit t's own coordinate, its first (g, k) with g(k) = t; the socle
    units {lane: e*_t}, t of depth 0; all dim lanes; a _Lanes for G + 1 blocks."""
    n, w, mask = module.dim, module.lanes.w, module.lanes.mask
    maps, gathers, pushes, own = [], {}, {}, set()
    for i, g in enumerate(module.generators):
        for k, t in enumerate(g):
            if t is not None:
                s = w * (t - k + n * i)  # t lies deeper than k, so s > 0
                gathers[s] = gathers.get(s, 0) | mask << (w * (n - 1 - t))
                if t not in own:
                    own.add(t)
                    pushes[s] = pushes.get(s, 0) | mask << (w * (n - 1 - k + n * i))
        maps.append(tuple(None if t is None else n - 1 - t for t in reversed(g)))
    units = {n - 1 - t: 1 << (w * (n - 1 - t)) for t in range(module.levels[1])}
    return (maps, tuple(gathers.items()), tuple(pushes.items()), units,
            (1 << (w * n)) - 1, _Lanes(module.p, n * len(maps) + n))


def _socle(rows, lanes, duals):
    """Reduced echelon basis {lane: v} of (U:m)/U for U = span(rows), each v 0
    at U's pivots: the socle units off U's pivots, and the kernel of the hit
    set's candidates v^h, solved by one _span of v^h in the top block over its
    residuals g^T v^h - sum u_pi, block i for the i-th g."""
    maps, gathers, pushes, units, full, wide = duals
    w, mask, bits = lanes.w, lanes.mask, full.bit_length()
    at = {((u & -u).bit_length() - 1) // w: u for u in rows}  # pivot lane: row
    hits = {}  # lane of h: in block g, the sum of the rows u_pi with g(pi) = h
    for i, g in enumerate(maps):
        for q, u in at.items():
            h = g[q]
            if h is not None and h not in at:
                hits[h] = wide.reduce(hits.get(h, 0) + (u << (bits * i)))
    basis = {q: e for q, e in units.items() if q not in at}
    keep, cands = full, []
    for q in (*at, *hits):
        keep ^= mask << (w * q)
    for h, sums in hits.items():
        v = 0
        for s, m in pushes:
            v |= (sums & m) >> s
        v = v & keep | 1 << (w * h)
        img = 0
        for s, m in gathers:
            img |= (v & m) << s
        cands.append(v << (bits * len(maps)) | wide.sub(img, sums))
    # rows pivoting in the top block have no residual: a reduced echelon basis
    # of the kernel, 0 at depth-0 lanes, where the units are the only rows
    top = len(maps) * (bits // w)
    basis.update((q - top, x >> (w * top)) for q, x in _span(cands, wide).items() if q >= top)
    return basis


def _heads(rows, basis):
    """_socle's basis sorted by pivot, and the number of its b_i0 that pivot
    below rows[0], a prefix: the heads of U's children."""
    vecs = [basis[q] for q in sorted(basis)]
    below = (rows[0] & -rows[0] if rows else 0) - 1  # the lanes below rows[0]'s pivot
    return vecs, sum(1 for b in vecs if b & below)


def _lines(rows, basis, lanes):
    """The children of U = span(rows), the U + <v> of which U is the canonical
    parent: v = b_i0 + sum_{j > i0} c_j b_j over _socle's basis, the c's in
    product order, for the heads b_i0.  v is 1 at its pivot, b_i0's, and 0 at
    U's, and U's rows are 0 below their pivots, so the child's key is (v, *rows)."""
    p, reduce = lanes.p, lanes.reduce
    vecs, heads = _heads(rows, basis)
    # when digit j steps up and the digits after it wrap from p-1 to 0, v
    # gains the sum of the vectors from j onwards
    steps = [0]
    for b in reversed(vecs):
        steps.append(reduce(steps[-1] + b))
    for i0 in range(heads):
        v, tail = vecs[i0], [0] * (len(vecs) - 1 - i0)
        while True:
            yield (v, *rows)
            j = len(tail) - 1
            while j >= 0 and tail[j] == p - 1:
                tail[j], j = 0, j - 1
            if j < 0:
                break
            tail[j] += 1
            v = reduce(v + steps[len(tail) - j])


def _walk(module, max_codim, classify, budget, what, progress=dict):
    """Counts of the invariant subspaces K of codim <= max_codim by
    classify(rows, s), rows the key of K^perp and s = dim K/mK, None where K
    is not expanded, and the work (lines of the expanded nodes) the walk took.

    A node is charged its (p^s - 1)/(p - 1) lines when it is expanded, before
    any child is built; past the budget, BudgetExceededError carries
    progress(counts so far).  The leaves, at codim max_codim, are not built:
    a leaf's key must depend only on its row count and pivots, and the
    p^(len(basis) - 1 - i0) children of one head b_i0 all have b_i0's pivot,
    so each head is classified once, as (b_i0, *rows), for all of them."""
    require(0, budget=budget)
    lanes, duals, p = module.lanes, _duals(module), module.p
    counts, stack, work = {}, [()], 0
    while stack:
        rows = stack.pop()
        basis = _socle(rows, lanes, duals) if len(rows) < max_codim else None
        key = classify(rows, None if basis is None else len(basis))
        counts[key] = counts.get(key, 0) + 1
        if basis is None:
            continue
        work += (p ** len(basis) - 1) // (p - 1)
        if work > budget:
            raise BudgetExceededError("%s exceeded budget %d" % (what, budget),
                                      progress=progress(counts))
        if len(rows) + 1 < max_codim:
            stack.extend(_lines(rows, basis, lanes))
            continue
        vecs, heads = _heads(rows, basis)
        for i0 in range(heads):
            key = classify((vecs[i0], *rows), None)
            counts[key] = counts.get(key, 0) + p ** (len(vecs) - 1 - i0)
    return counts, work


def enumerate_submodules(module, max_codim, budget=DEFAULT_BUDGET):
    """Census of invariant subspaces K of codimension <= max_codim by codim and
    the rank of M/K: the number of K^perp's rows pivoting in the top levels[1]
    lanes, those of the e*_t outside m*M."""
    p, dim = module.p, module.dim
    low = (1 << (module.lanes.w * (dim - module.levels[1]))) - 1

    def codim_rank(rows, s):
        return len(rows), sum(1 for u in rows if not u & low)

    counts, _ = _walk(module, max_codim, codim_rank, budget, "submodule enumeration",
                      progress=SubmoduleCensus)
    return SubmoduleCensus(counts, params={"p": p, "dim": dim, "max_codim": max_codim})


# -- local models of the curve germs -------------------------------------------


def build_local_model(family, d, N, p, target="free"):
    """Finite F_p-model of a rank-d module over the germ family = (kind, m).

    target='free':          (R/m^N)^d on the monomial basis {x^i, x^i y},
                            y^2 reduced to x^{2m+1} (cusp) or x^m y (node).
    target='normalization': (Rtilde/T^{2N})^d, one branch for the cusp and two
                            for the node, with x,y acting through T.
    target='max_ideal':     m*(R/m^N)^d, the same free model without the unit
                            monomials (used by the conversion-identity check).
    """
    kind, m = family
    require(1, m=m)
    require(0, d=d)
    require(1, N=N)
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
    return _presentation(p, names, maps, d)


def quot_census(family, m, d, p, max_codim, module="free", budget=DEFAULT_BUDGET):
    """Census of the codim <= max_codim submodules of the rank-d ambient.

    module selects the ambient: 'free' R^d, 'normalization' Rtilde^d, or
    'max_ideal' (m R)^d.  Its model truncates at N = max(max_codim, 1), or at
    N = max_codim + 1 for 'max_ideal', which is exact only to codim N - 1.
    """
    require(0, max_codim=max_codim)
    N = max_codim + 1 if module == "max_ideal" else max(max_codim, 1)
    model = build_local_model((family, m), d, N, p, target=module)
    return enumerate_submodules(model, max_codim, budget=budget)


def quot_coeffs_oracle(family, m, d, p, N, module="free", budget=DEFAULT_BUDGET):
    """t^0..t^N coefficients of the rank-d Quot zeta function at q=p (to t^{N-1}
    for module 'max_ideal'); the ambients are those of quot_census."""
    max_codim = N - 1 if module == "max_ideal" else N
    return quot_census(family, m, d, p, max_codim, module, budget).coefficients(max_codim)


def solomon_census(d, p, N, budget=DEFAULT_BUDGET):
    """Census of (F_p[T]/T^N)^d under the single generator T."""
    require(0, d=d, N=N)
    return enumerate_submodules(_jordan_module((N,), p, d), N, budget=budget)


# -- DVR-module census for Hall polynomial checks -------------------------------


_DVR_CENSUS_CACHE = {}  # (parts, p) -> (counts, work the walk took)


def dvr_type_cotype_census(lam, p, budget=DEFAULT_BUDGET):
    """Counts of submodules of (+) F_p[T]/T^{lam_i} by (type, cotype) parts.

    The walk counts the raw steps read off the subspace's annihilator, dim
    K[T^j] over j and the cotype's pivot counts (see the module docstring);
    types() conjugates them to (type, cotype) once per distinct key, after
    the walk or, as its progress, where the budget stops it.  A cached
    census is returned only within the budget its walk needed; past it the
    walk runs again and stops where a fresh one would.
    """
    require(0, budget=budget)
    key = (lam.parts, p)
    got = _DVR_CENSUS_CACHE.get(key)
    if got is not None and got[1] <= budget:
        return got[0]
    model = _jordan_module(lam.parts, p)
    lanes, n, (tmap,) = model.lanes, model.dim, model.generators
    w, mask = lanes.w, lanes.mask
    # the conjugate cotype: dim M/(K + T^j M), rows pivoting in the top levels[j] lanes
    lows = [(1 << (w * (n - s))) - 1 for s in model.levels[1:]]
    # K[T^j] = K meet the span W of the e_t that T^j kills, of dim |W| less the
    # rank of U on W's lanes, for 1 < j < lam_1; T^height e_t = 0
    height = [0] * n
    for t in reversed(range(n)):  # T moves t to a deeper, later one
        height[t] = 1 + (height[tmap[t]] if tmap[t] is not None else 0)
    kills = [(sum(1 for h in height if h <= j),
              sum(mask << (w * (n - 1 - t)) for t, h in enumerate(height) if h <= j))
             for j in range(2, max(height, default=0))]

    def steps(rows, s):  # s is None only at the leaf K = 0
        dims = [size - len(_span((u & on for u in rows), lanes)) for size, on in kills]
        return ((s or 0, *dims, n - len(rows)),
                tuple(sum(1 for u in rows if not u & low) for low in lows))

    def types(counts):  # dim K[T^j] and the cotype's pivot counts, conjugated
        typed = {}
        for raw, c in counts.items():
            key = tuple(conjugate_parts(tuple(b - a for a, b in zip((0, *x), x) if b > a))
                        for x in raw)
            typed[key] = typed.get(key, 0) + c
        return typed

    counts, work = _walk(model, n, steps, budget, "DVR census", progress=types)
    got = _DVR_CENSUS_CACHE[key] = types(counts), work
    return got[0]


def hall_count_oracle(lam, mu, nu, p, budget=DEFAULT_BUDGET):
    """Exact submodule count over F_p by exhaustive invariant-subspace search.

    Counts submodules of type mu (and cotype nu when given) of the module
    (+) F_p[T]/T^{lam_i}, read off dvr_type_cotype_census.
    """
    census = dvr_type_cotype_census(lam, p, budget=budget)
    if nu is None:
        return sum(c for (tm, _), c in census.items() if tm == mu.parts)
    return census.get((mu.parts, nu.parts), 0)


def surjective_homs_count(mu, d, p):
    """Exhaustive count of surjections R^d ->> M for M of type mu over F_p.

    A hom is a d-tuple of elements of M; it is onto iff the T-closure of the
    images spans.
    """
    dim = mu.size()
    if dim == 0:
        return 1
    model = _jordan_module(mu.parts, p)
    lanes, tmap = model.lanes, model.compiled[0]
    elements = [lanes.pack(v) for v in product(range(p), repeat=dim)]
    count = 0
    for combo in product(elements, repeat=d):
        vecs = []
        for v in combo:
            while v:
                vecs.append(v)
                v = _apply(tmap, v, lanes)
        if len(_span(vecs, lanes)) == dim:
            count += 1
    return count


# -- matrix-pair counting --------------------------------------------------------


def _mat_mul(a, b, p):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
                 for row in a)


def matrix_pair_count(n, p, budget=DEFAULT_BUDGET):
    """#{(A,B) in Mat_n(F_p)^2 : AB = BA, A^2 = B^3} by exhaustive search.

    The A are grouped by A^2 once, so each B is tested only against the A with
    A^2 = B^3; the budget still bounds the p^{2n^2} pairs up front."""
    _require_prime(p)
    require(0, n=n, budget=budget)
    if p ** (2 * n * n) > budget:
        raise BudgetExceededError("matrix enumeration %d^%d exceeds budget"
                                  % (p, 2 * n * n))
    if n == 0:
        return 1
    mats = [tuple(flat[i:i + n] for i in range(0, n * n, n))
            for flat in product(range(p), repeat=n * n)]
    squares = {a: _mat_mul(a, a, p) for a in mats}
    roots = {}  # A^2 -> the A
    for a, sq in squares.items():
        roots.setdefault(sq, []).append(a)
    count = 0
    for b in mats:
        for a in roots.get(_mat_mul(squares[b], b, p), ()):
            if _mat_mul(a, b, p) == _mat_mul(b, a, p):
                count += 1
    return count


# -- Coh/Quot invariance ----------------------------------------------------------


def coh_quot_invariance_check(family, m, p, n, r, d_list, budget=DEFAULT_BUDGET):
    """Check that p^{-dn} (1/p;1/p)_{d-r} / (1/p;1/p)_d #Quot^r_{d,n} is d-independent.

    The value is #Quot p^{r(2d-r+1)/2} / (p^{dn} prod_{d-r<i<=d} (p^i - 1)),
    kept as a reduced (numerator, denominator) and printed as str and repr of
    fractions.Fraction print it, without importing that module.
    """
    if not d_list:
        raise ValueError("d_list must name at least one rank")
    require(0, n=n, d=min(d_list), r=r)
    if any(r > min(d, n) for d in d_list):
        raise ValueError("need r <= min(d, n)")
    values = []
    with timed() as tm:
        for d in d_list:
            census = quot_census(family, m, d, p, n, budget=budget)
            num = census.counts.get((n, r), 0) * p ** (r * (2 * d - r + 1) // 2)
            den = p ** (d * n) * prod(p ** i - 1 for i in range(d - r + 1, d + 1))
            values.append((num // gcd(num, den), den // gcd(num, den)))
    ok = all(v == values[0] for v in values)
    text = ["%d/%d" % v if v[1] != 1 else "%d" % v[0] for v in values]
    return VerificationReport(
        "coh-quot-invariance",
        {"family": family, "m": m, "p": p, "n": n, "r": r, "d_list": tuple(d_list)},
        "pass" if ok else "fail",
        lhs=text[0], rhs="[%s]" % ", ".join("Fraction(%d, %d)" % v for v in values),
        discrepancy=None if ok else (n, r),
        wall_time=tm.elapsed,
        detail="values " + ", ".join(text))
