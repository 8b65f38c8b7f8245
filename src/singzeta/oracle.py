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
index map; one builder, _presentation, makes these for every model.  A vector
is one int, coordinate i in bits [w*i, w*i + w) with 2^(w-1) >= p (_Lanes), by
one path for every prime; each generator is compiled once to groups of masked
lane shifts (_compile).  A subspace is a reduced echelon basis {pivot: row}, as
_add and _span build it; its rows sorted by pivot are its canonical key.  One
walk, _walk, goes down from the full module: the children of an invariant
subspace L are its hyperplanes containing m*L, the kernels of the functionals
psi on L/m*L.  _invariant_hyperplanes builds each child from L's rows: it drops
the last row b_top that psi does not kill and takes a multiple of b_top off the
others, which leaves them reduced; it makes one child at a time, so the budget
stops a wide node at once.  Every invariant subspace of codimension k lies
under one of codimension k-1 (composition series of the quotient), so the walk
is exhaustive; the key dedups it.

m*L is read off the images g(b_i) in L's coordinates, and these are carried
down, not recomputed: only the full module's come from _apply.  A child K has
rows k_i = b_i + c_i b_top, so g(k_i) = g(b_i) + c_i g(b_top), and K keeps L's
pivots but b_top's, so K's coordinates of a vector of K are L's without b_top's
lane (_carried).  When every image is 0 (T = 0 on F_p^n), so is every child's,
and they pass down as None.  Only children that will be expanded carry images:
the children at the last codimension are counted after their parent's loop, in
the order the stack would pop them, so counts, work and a budget stop's
progress are as if they were pushed.  m*L is spanned by the distinct nonzero
images alone, and its reduced echelon basis is unique to that span, so the
children and their order do not depend on which images feed it.

A presentation sorts its basis by depth, the longest chain of generators that
ends at a vector, so m^j M is spanned by the lanes from levels[j] up, levels[j]
the number of vectors of depth < j.  A reduced echelon row pivots at its lowest
nonzero lane, so L projected to the first s lanes has rank the number of rows
pivoting below s: the other rows vanish there, and these are independent at
their pivots.  So rank M/(L + m*M) is levels[1] less that count, and the
cotype of a DVR submodule K is read off dim(K + m^j M), dim M - levels[j] plus
the count below levels[j], with no elimination.  Only prime fields are
supported.

Hall counts are read off that census in one place, hall_count_oracle: the
number of submodules of type mu, and cotype nu when given, of the DVR-module
of type lambda over F_p, which g^lambda_mu(p) and g^lambda_{mu nu}(p) must
equal.
"""

from itertools import product
from math import gcd, isqrt, prod

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
    # rows are 0 at each other's pivots, so clearing one pivot lane of vec
    # leaves every other pivot lane as it was: clear where vec starts nonzero
    rest = vec
    while rest:
        i = ((rest & -rest).bit_length() - 1) // w
        c = (rest >> (w * i)) & mask
        rest ^= c << (w * i)
        if i in rows:
            vec = lanes.sub(vec, lanes.scale(c, rows[i]))
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


def _image(gens, basis, lanes):
    """Reduced echelon basis of sum_g g(span basis), for compiled generators."""
    return _span((_apply(g, v, lanes) for g in gens for v in basis), lanes)


# -- module presentations ------------------------------------------------------


class FqModulePresentation:
    """A finite module over a commutative local F_p-algebra.

    Given by the prime, the F_p-dimension, and one index map per algebra
    generator: a tuple with one entry per basis vector, the index of its image
    or None for 0.  Generators must commute; for the local models they are also
    nilpotent (they lie in the maximal ideal); both are checked.  The basis is
    then sorted by depth, stably, so `generators` are the given maps renumbered
    in depth order, and levels[j] is the number of vectors of depth < j; then
    they are compiled.
    """

    def __init__(self, p, dim, generators):
        _require_prime(p)
        self.p, self.dim = p, dim
        self.generators = [tuple(g) for g in generators]
        self._validate()
        # reach is the basis of m^j M at step j; it shrinks to {} as g is nilpotent
        depth, reach = [0] * dim, set(range(dim))
        while reach:
            reach = {g[k] for g in self.generators for k in reach if g[k] is not None}
            for k in reach:
                depth[k] += 1
        order = sorted(range(dim), key=depth.__getitem__)
        lane = {k: i for i, k in enumerate(order)}
        self.generators = [tuple(lane.get(g[k]) for k in order) for g in self.generators]
        self.levels = [sum(1 for x in depth if x < j) for j in range(max(depth, default=0) + 2)]
        self.lanes = _Lanes(p, dim)
        self.compiled = [_compile(g, self.lanes.w) for g in self.generators]

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
        return tuple(1 << (self.lanes.w * i) for i in range(self.dim))


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


def _walk(module, max_codim, classify, budget, what, progress=dict):
    """Counts of the invariant subspaces of codim <= max_codim by classify(basis),
    and the work (children visited) the walk took.

    Every child visited costs one unit of budget; past it, BudgetExceededError
    carries progress(counts so far).  A subspace on the stack carries its
    generator images; new children at codim max_codim are counted after their
    parent's loop, never pushed."""
    require(0, budget=budget)
    lanes, gens, full = module.lanes, module.compiled, module.full_basis()
    counts, visited, stack, work = {}, {full}, [(full, _images(gens, full, lanes))], 0
    while stack:
        basis, images = stack.pop()
        key = classify(basis)
        counts[key] = counts.get(key, 0) + 1
        codim = module.dim - len(basis)
        if codim >= max_codim:
            continue
        leaf, leaves = codim + 1 == max_codim, []
        for child in _invariant_hyperplanes(basis, images, lanes):
            work += 1
            if work > budget:
                raise BudgetExceededError("%s exceeded budget %d" % (what, budget),
                                          progress=progress(counts))
            if child not in visited:
                visited.add(child)
                if leaf:
                    leaves.append(child)
                else:
                    stack.append((child, _carried(images, basis, child, lanes)))
        for child in reversed(leaves):
            key = classify(child)
            counts[key] = counts.get(key, 0) + 1
    return counts, work


def _images(gens, basis, lanes):
    """The images g(b_i) of the rows of L = span(basis) in L's coordinates, row
    j at lane k-1-j, row i's at [i*G, i*G + G) for G generators; None when all
    are 0.  L is invariant, so g(b_i) is its values at L's pivots."""
    w, mask, k = lanes.w, lanes.mask, len(basis)
    at = {(b & -b).bit_length() - 1: w * (k - 1 - i) for i, b in enumerate(basis)}
    on_pivots = sum(mask << piv for piv in at)
    images = []
    for v in (_apply(g, b, lanes) & on_pivots for b in basis for g in gens):
        out = 0
        while v:
            piv = w * (((v & -v).bit_length() - 1) // w)
            out |= ((v >> piv) & mask) << at[piv]
            v &= ~(mask << piv)
        images.append(out)
    return images if any(images) else None


def _carried(images, basis, child, lanes):
    """_images of a child K of L = span(basis) from L's images.  K's row i is
    b_i + c_i b_top (b_i for i > top; b_top dropped), c_i its value at b_top's
    pivot, so g(k_i) = g(b_i) + c_i g(b_top) by linearity; K keeps L's pivots
    but b_top's, so its coordinates are L's without lane k-1-top."""
    if images is None:
        return None
    k = len(basis)
    top = k - 1  # rows after b_top are L's rows
    while top and child[top - 1] == basis[top]:
        top -= 1
    w, mask, gs = lanes.w, lanes.mask, len(images) // k
    piv = (basis[top] & -basis[top]).bit_length() - 1
    cut = w * (k - 1 - top)
    low, tops = (1 << cut) - 1, images[gs * top:gs * top + gs]
    out = []
    for i, row in enumerate(child):
        at = gs * i if i < top else gs * (i + 1)
        c = (row >> piv) & mask if i < top else 0
        for g, v in enumerate(images[at:at + gs]):
            if c and tops[g]:
                v = lanes.reduce(v + lanes.scale(c, tops[g]))
            out.append(v & low | v >> (cut + w) << cut)
    return out if any(out) else None


def _invariant_hyperplanes(basis, images, lanes):
    """The invariant hyperplanes of L = span(basis), as canonical keys; basis is
    one, rows b_0 < ... < b_{k-1}, and images are _images(gens, basis, lanes).
    m*L in L's coordinates has an echelon basis rel with pivots at the last rows
    its vectors use: the other rows are the greedy complement c_0 < ... <
    c_{r-1}, and rel's row at lane k-1-i says b_i = -sum_j (its value at c_j's
    lane) c_j mod m*L.  rel is the same from the distinct nonzero images alone,
    as a reduced echelon basis is unique to its span."""
    p, w, mask, k = lanes.p, lanes.w, lanes.mask, len(basis)
    rel = _span(set(filter(None, images or ())), lanes)
    # psi(b_0), ..., psi(b_{k-1}) for psi(c_j) = 1 and psi = 0 on the other c's
    columns = [sum((p - ((v >> (w * (k - 1 - j))) & mask)) % p << (w * (k - 1 - lane))
                   for lane, v in rel.items()) | 1 << (w * j)
               for j in range(k) if k - 1 - j not in rel]
    # psi = (0, ..., 0, 1, tail) on the c's, tails in product order, one at a
    # time: when digit j steps up and the digits after it wrap from p-1 to 0,
    # psi gains the sum of columns j onwards.  ker psi has rows
    # b_i - (psi(b_i)/psi(b_top)) b_top, top the last row psi does not kill
    steps = [0]
    for col in reversed(columns):
        steps.append(lanes.reduce(steps[-1] + col))
    for i0, psi in enumerate(columns):
        tail = [0] * (len(columns) - 1 - i0)
        while True:
            top = (psi.bit_length() - 1) // w
            b_top, neg = basis[top], p - lanes.inv[psi >> (w * top)]
            child, rest = list(basis), psi & ((1 << (w * top)) - 1)
            while rest:
                i = ((rest & -rest).bit_length() - 1) // w
                c = (rest >> (w * i)) & mask
                rest ^= c << (w * i)
                child[i] = lanes.reduce(child[i] + lanes.scale(c * neg % p, b_top))
            del child[top]
            yield tuple(child)
            j = len(tail) - 1
            while j >= 0 and tail[j] == p - 1:
                tail[j], j = 0, j - 1
            if j < 0:
                break
            tail[j] += 1
            psi = lanes.reduce(psi + steps[len(tail) - j])


def enumerate_submodules(module, max_codim, budget=DEFAULT_BUDGET):
    """Census of invariant subspaces L of codimension <= max_codim by codim and
    the rank of M/L: dim M/mM less the number of L's rows pivoting outside m*M."""
    p, dim, top = module.p, module.dim, module.levels[1]
    low = (1 << (module.lanes.w * top)) - 1

    def codim_rank(basis):
        return dim - len(basis), top - sum(1 for b in basis if b & low)

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

    Types are read from rank drops of powers of T on the subspace and on the
    quotient.  A cached census is returned only within the budget its walk
    needed; past it the walk runs again and stops where a fresh one would.
    """
    require(0, budget=budget)
    key = (lam.parts, p)
    got = _DVR_CENSUS_CACHE.get(key)
    if got is not None and got[1] <= budget:
        return got[0]
    model = _jordan_module(lam.parts, p)
    gens, lanes, dim = model.compiled, model.lanes, model.dim
    # dim T^j(M/K) = dim(K + m^j M) - dim K = (dim - levels[j]) + #pivots below it - dim K
    lows = [(dim - s, (1 << (lanes.w * s)) - 1) for s in model.levels]

    def type_cotype(basis):
        return _module_type(basis, gens, lanes), _parts(
            [free - len(basis) + sum(1 for b in basis if b & low) for free, low in lows])

    got = _DVR_CENSUS_CACHE[key] = _walk(model, model.dim, type_cotype, budget, "DVR census")
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


def _module_type(basis, gens, lanes):
    """Type of span(basis) as an F_p[T]-module, as a parts tuple, from the ranks
    of T^j on it: its kernels are lane prefixes in height order, not in depth."""
    dims, cur = [len(basis)], basis
    while cur:
        cur = _image(gens, cur, lanes).values()
        dims.append(len(cur))
    return _parts(dims)


def _parts(dims):
    """The parts of an F_p[T]-module N from dims[j] = dim T^j N, ending at 0:
    dims[j] - dims[j+1] parts exceed j."""
    drops = [a - b for a, b in zip(dims, dims[1:])]
    return tuple(sum(1 for c in drops if c > i) for i in range(max(drops, default=0)))


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
