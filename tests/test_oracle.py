import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest

from singzeta import oracle
from singzeta.partitions import Partition, partitions_of
from singzeta.oracle import (quot_census, FqModulePresentation, build_local_model,
                             enumerate_submodules, quot_coeffs_oracle,
                             solomon_census, matrix_pair_count,
                             coh_quot_invariance_check, dvr_type_cotype_census,
                             surjective_homs_count)
from singzeta.report import BudgetExceededError
from singzeta.clzeta import matrix_count_formula, z_series
from singzeta.laurent import ONE
from singzeta.quotzeta import full_z


def test_build_local_model_dimensions():
    assert build_local_model(("node", 1), 1, 2, 2).dim == 3  # basis 1, x, y
    assert build_local_model(("cusp", 1), 1, 1, 3).dim == 1  # R/m = k
    assert build_local_model(("cusp", 2), 2, 3, 2).dim == 10
    assert build_local_model(("cusp", 1), 1, 2, 2, "normalization").dim == 4
    assert build_local_model(("node", 1), 1, 2, 2, "normalization").dim == 8
    assert build_local_model(("node", 1), 1, 3, 2, "max_ideal").dim == 4


def test_model_validation():
    # generators must commute and be nilpotent; the builder's always do,
    # and a hand-made bad presentation is rejected
    with pytest.raises(ValueError):
        FqModulePresentation(2, 1, [(0,)])  # identity is not nilpotent
    with pytest.raises(ValueError):
        FqModulePresentation(2, 2, [(None, 0), (1, None)])  # no commute
    with pytest.raises(ValueError):
        FqModulePresentation(2, 2, [(1, 0)])  # a 2-cycle is not nilpotent


def test_basis_in_depth_order():
    # the presentation sorts its basis by depth, the longest chain of
    # generators ending at a vector, so m^j M is the lanes from levels[j] up
    model = FqModulePresentation(2, 5, [(None, 3, 1, None, 0)])  # 2 -> 1 -> 3, 4 -> 0
    assert model.generators == [(3, 2, None, 4, None)]  # basis 2, 4, 0, 1, 3
    assert model.levels == [0, 2, 4, 5]
    assert FqModulePresentation(2, 0, [()]).levels == [0, 0]
    free = build_local_model(("node", 1), 2, 3, 2)  # 1, x, x^2, y, xy per copy
    assert free.levels == [0, 2, 6, 10]


def _reference_rref(vectors, p):
    """Canonical reduced row-echelon basis of the span, reduced from scratch."""
    rows = [list(v) for v in vectors if any(v)]
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


def _key(rows, lanes, dim):
    """The oracle's canonical key with each packed row unpacked to a tuple."""
    return tuple(tuple((rows[piv] >> (lanes.w * i)) & lanes.mask for i in range(dim))
                 for piv in sorted(rows))


def test_echelon_basis_matches_reference_rref():
    # the incremental basis gives the canonical key a from-scratch reduction
    # gives, and _add reports growth exactly when the rank goes up
    rng = random.Random(20231)
    for p in (2, 3, 5, 131):
        for _ in range(150):
            dim = rng.randint(1, 7)
            density = rng.random()
            vectors = [tuple(rng.randrange(p) if rng.random() < density else 0
                             for _ in range(dim)) for _ in range(rng.randint(0, 9))]
            # repeat some vectors and add combinations, so that some do not grow the span
            if vectors:
                a, b = rng.choice(vectors), rng.choice(vectors)
                vectors.append(tuple((x + rng.randrange(p) * y) % p for x, y in zip(a, b)))
            # the oracle packs a vector into one int; keys are unpacked to compare
            lanes = oracle._Lanes(p, dim)
            packed = [lanes.pack(v) for v in vectors]
            assert _key(oracle._span(packed, lanes), lanes, dim) == _reference_rref(vectors, p)
            rows = {}
            for k, v in enumerate(packed):
                grew = oracle._add(rows, v, lanes)
                assert grew == (len(_reference_rref(vectors[:k + 1], p))
                                > len(_reference_rref(vectors[:k], p)))
                assert _key(rows, lanes, dim) == _reference_rref(vectors[:k + 1], p)


def _image(gens, basis, lanes):
    """Reduced echelon basis of sum_g g(span basis), for compiled generators."""
    return oracle._span((oracle._apply(g, v, lanes) for g in gens for v in basis), lanes)


def _reference_hyperplanes(basis, gens, lanes):
    """The invariant hyperplanes as the oracle first built them: m*L's echelon
    basis, a greedy complement of it in L by _add, then one _span per child."""
    sub = _image(gens, basis, lanes)
    cur = dict(sub)
    comp = [v for v in basis if oracle._add(cur, v, lanes)]
    r = len(comp)
    for i0 in range(r):
        multiples = [lanes.scale(c, comp[i0]) for c in range(lanes.p)]
        for tail in product(range(lanes.p), repeat=r - 1 - i0):
            phi = (0,) * i0 + (1,) + tail
            kernel = (lanes.sub(comp[j], multiples[phi[j]]) for j in range(r) if j != i0)
            child = oracle._span(kernel, lanes, sub)
            yield tuple(child[piv] for piv in sorted(child))


def _canonical(vectors, lanes):
    """The oracle's canonical key of span(vectors): its reduced rows by pivot."""
    rows = oracle._span(vectors, lanes)
    return tuple(rows[piv] for piv in sorted(rows))


def _annihilator(module, rows):
    """K = U^perp as a canonical key, for U = span(rows) in M^v with e*_t in lane
    dim-1-t, solved from scratch on coordinate tuples."""
    n, p, lanes = module.dim, module.p, module.lanes
    dual = [tuple((u >> (lanes.w * (n - 1 - t))) & lanes.mask for t in range(n)) for u in rows]
    rref = _reference_rref(dual, p)
    pivots = [next(i for i, x in enumerate(r) if x) for r in rref]
    kernel = []
    for free in (f for f in range(n) if f not in pivots):
        x = [0] * n
        x[free] = 1
        for piv, r in zip(pivots, rref):
            x[piv] = -r[free] % p
        kernel.append(lanes.pack(x))
    return _canonical(kernel, lanes)


def _seeded_walks():
    """(module, max_codim): seeded Jordan modules and local models."""
    rng = random.Random(20261)
    walks = []
    for p, depth in ((2, 4), (3, 4), (5, 3), (131, 2)):
        shapes = [lam.parts for n in range(1, 3 if p == 131 else 5) for lam in partitions_of(n)]
        walks += [(oracle._jordan_module(rng.choice(shapes), p), depth) for _ in range(5)]
        for target in ("free", "normalization", "max_ideal"):
            kind, m = rng.choice(("cusp", "node")), rng.randint(1, 2)
            d = rng.randint(1, 1 + (p == 2))
            walks.append((build_local_model((kind, m), d, 3, p, target), depth))
    return walks


def test_hyperplanes_match_reference_builder():
    # at the first 40 nodes of seeded walks over Jordan modules and local models,
    # the children of U = K^perp are canonical keys, (v, *rows) with v pivoting
    # below U's first pivot, and they are exactly the annihilators of the
    # invariant hyperplanes of K that the old builder makes from K's rows whose
    # new pivot lies there; s = dim (U:m)/U is dim K/mK
    nodes = 0
    for model, max_codim in _seeded_walks():
        gens, lanes, duals = model.compiled, model.lanes, oracle._duals(model)
        stack, stop = [()], nodes + 40
        while stack and nodes < stop:
            rows = stack.pop()
            assert _canonical(rows, lanes) == rows
            if len(rows) >= max_codim:
                continue
            basis = oracle._socle(rows, lanes, duals)
            children = list(oracle._lines(rows, basis, lanes))
            kernel = _annihilator(model, rows)
            assert len(basis) == len(kernel) - len(_image(gens, kernel, lanes)), (
                model.generators, model.p, rows)
            # rows compare by pivot as their lowest set bits do
            want = {u for u in (_annihilator(model, h)
                                for h in _reference_hyperplanes(kernel, gens, lanes))
                    if not rows or u[0] & -u[0] < rows[0] & -rows[0]}
            assert len(children) == len(set(children))
            assert set(children) == want, (model.generators, model.p, rows)
            assert all(child[1:] == rows for child in children)
            nodes += 1
            stack.extend(children)
    assert nodes > 400


_LINES = oracle._lines  # kept for the tests that rebind oracle._lines
_CELLS = oracle._cells  # and oracle._cells


def _leaf_walk(module, max_codim, classify, budget, what, progress=dict):
    """_walk with every subspace built by _lines and classified on its own, as
    it is built: the node-by-node reference for counting by cells."""
    lanes, duals, p = module.lanes, oracle._duals(module), module.p
    counts, stack, work = {}, [()], 0
    while stack:
        rows = stack.pop()
        basis = oracle._socle(rows, lanes, duals) if len(rows) < max_codim else None
        key = classify(rows, None if basis is None else len(basis))
        counts[key] = counts.get(key, 0) + 1
        if basis is None:
            continue
        work += (p ** len(basis) - 1) // (p - 1)
        if work > budget:
            raise BudgetExceededError("%s exceeded budget %d" % (what, budget),
                                      progress=progress(counts))
        children = _LINES(rows, basis, lanes)
        if len(rows) + 1 < max_codim:
            stack.extend(children)
            continue
        for child in children:
            key = classify(child, None)
            counts[key] = counts.get(key, 0) + 1
    return counts, work


def _recording_cells(monkeypatch):
    """Rebind oracle._cells to record each expanded cell's representative
    rows with its multiplicity, in a dict the caller may clear."""
    weights = {}

    def recorded(*args):
        for cell, s, mult in _CELLS(*args):
            if s is not None:
                weights[cell] = mult
            yield cell, s, mult

    monkeypatch.setattr(oracle, "_cells", recorded)
    return weights


def test_walk_builds_each_subspace_once(monkeypatch):
    # every subspace but the root is built by exactly one parent, counted
    # once under its head or counted once in a cell: over each seeded walk
    # the stacked children are pairwise distinct, lie below max_codim, and
    # with the leaves and the expanded cells, each with its multiplicity,
    # number the subspaces counted less one
    built = []

    def recorded(*args):
        for child in _LINES(*args):
            built.append(child)
            yield child

    monkeypatch.setattr(oracle, "_lines", recorded)
    weights = _recording_cells(monkeypatch)
    for model, max_codim in _seeded_walks():
        built.clear()
        weights.clear()
        counts, _ = oracle._walk(model, max_codim, lambda rows, s: len(rows), 10**7, "test")
        assert len(built) == len(set(built)), model.generators
        assert all(len(child) < max_codim for child in built), model.generators
        assert not set(built) & set(weights), model.generators
        assert (len(built) + sum(weights.values()) + counts.get(max_codim, 0)
                == sum(counts.values()) - 1), model.generators


def test_leaves_by_head_match_leaf_by_leaf_walk(monkeypatch):
    # counting the leaves per head and the killed subtrees by pivot cells
    # gives the counts and work of building and classifying each subspace,
    # for every census's classify, and _lines is never entered at codim
    # max_codim - 1, where the leaves are counted by head
    walk, depth, walks = oracle._walk, [None], []

    def guarded(rows, basis, lanes):
        assert len(rows) + 1 < depth[0], (depth[0], rows)
        return _LINES(rows, basis, lanes)

    def compared(module, max_codim, classify, budget, what, progress=dict):
        depth[0] = max_codim
        got = walk(module, max_codim, classify, budget, what, progress)
        want = _leaf_walk(module, max_codim, classify, budget, what, progress)
        # the same counts in the same first-seen order, and the same work
        assert (list(got[0].items()), got[1]) == (list(want[0].items()), want[1]), (
            module.generators, module.p, max_codim)
        walks.append(sum(got[0].values()))
        return got

    def pivots(rows, s):  # the finest key a cell may be classified by
        return s, tuple((u & -u).bit_length() for u in rows)

    monkeypatch.setattr(oracle, "_lines", guarded)
    for model, max_codim in _seeded_walks():
        compared(model, max_codim, lambda rows, s: (len(rows), s), 10**7, "test")
        compared(model, max_codim, pivots, 10**7, "test")
    monkeypatch.setattr(oracle, "_walk", compared)
    for p, top in ((2, 3), (3, 2), (5, 2)):
        for kind, m, module in product(("cusp", "node"), (1, 2),
                                       ("free", "normalization", "max_ideal")):
            for d in (1, 2):
                quot_census(kind, m, d, p, top, module)
    monkeypatch.setattr(oracle, "_DVR_CENSUS_CACHE", {})
    for p, size in ((2, 6), (3, 5), (5, 4)):
        for lam in (lam for n in range(1, size + 1) for lam in partitions_of(n)):
            dvr_type_cotype_census(lam, p)
    assert len(walks) == 2 * len(_seeded_walks()) + 72 + 29 + 18 + 11, len(walks)
    assert sum(walks) > 20000, sum(walks)


def _outcome(walk, args, budget):
    """A walk's counts in first-seen order and work, or its stop's message and
    progress, at one budget."""
    module, max_codim, classify, what, progress = args
    try:
        counts, work = walk(module, max_codim, classify, budget, what, progress)
    except BudgetExceededError as stop:
        return "stop", str(stop), list(stop.progress.items())
    return "done", list(counts.items()), work


def test_cell_counted_walk_stops_as_node_walk(monkeypatch):
    # at every budget from 0 to work + 1, a DVR census whose killed subtrees
    # are cell-counted when they fit stops with the message and progress of
    # the node-by-node walk, or returns its counts and work; budgets below
    # work stop, the others do not
    walk, walks = oracle._walk, []

    def captured(module, max_codim, classify, budget, what, progress=dict):
        walks.append((module, max_codim, classify, what, progress))
        return walk(module, max_codim, classify, budget, what, progress)

    monkeypatch.setattr(oracle, "_walk", captured)
    monkeypatch.setattr(oracle, "_DVR_CENSUS_CACHE", {})
    for parts, p in (((1, 1, 1, 1), 2), ((2, 1, 1), 3), ((2, 2, 1), 2), ((1, 1, 1), 5)):
        dvr_type_cotype_census(Partition(parts), p)
    assert len(walks) == 4
    for args in walks:
        work = _outcome(_leaf_walk, args, 10**7)[2]
        stops = 0
        for budget in range(work + 2):
            got = _outcome(walk, args, budget)
            assert got == _outcome(_leaf_walk, args, budget), (args[0].generators, budget)
            stops += got[0] == "stop"
        assert stops == work > 100, (args[0].generators, work)


def test_killed_subtree_is_counted_by_cells(monkeypatch):
    # under T = 0 every lane is killed, so lambda = 1^5 at p = 2 solves
    # (U:m)/U at the root alone and counts all 374 subspaces of F_2^5 by cells
    socle, calls = oracle._socle, []

    def counted(rows, lanes, duals):
        calls.append(rows)
        return socle(rows, lanes, duals)

    monkeypatch.setattr(oracle, "_socle", counted)
    monkeypatch.setattr(oracle, "_DVR_CENSUS_CACHE", {})
    census = dvr_type_cotype_census(Partition([1] * 5), 2)
    assert calls == [()]
    assert sum(census.values()) == 374


def test_work_is_the_lines_of_the_expanded_nodes(monkeypatch):
    # every expanded node K is charged its (p^s - 1)/(p - 1) lines, s = dim
    # K/mK; the expanded nodes are the distinct subspaces below max_codim,
    # each cell counting its subspaces with its multiplicity
    weights = _recording_cells(monkeypatch)
    for model, max_codim in _seeded_walks():
        sizes = []
        weights.clear()

        def classify(rows, s):
            if s is not None:
                sizes.append((s, rows))
            return len(rows)

        counts, work = oracle._walk(model, max_codim, classify, 10**7, "test")
        p = model.p
        assert work == sum(weights.get(rows, 1) * (p ** s - 1) // (p - 1) for s, rows in sizes)
        assert sum(weights.get(rows, 1) for _, rows in sizes) == sum(
            c for codim, c in counts.items() if codim < max_codim)


def test_census_codim_zero():
    # the single codim-0 submodule is the whole module; its quotient is 0
    model = build_local_model(("cusp", 1), 2, 2, 3)
    census = enumerate_submodules(model, 0)
    assert census.counts == {(0, 0): 1}


def test_census_rank_vanishing():
    # quotient rank never exceeds min(d, codim)
    model = build_local_model(("node", 1), 2, 3, 2)
    census = enumerate_submodules(model, 3)
    for (n, r), c in census.counts.items():
        assert r <= min(2, n) or c == 0


def _permuted(model, lane):
    """model with basis vector k renamed lane[k]; the presentation then sorts
    the new basis by depth, which keeps the new order within each depth."""
    gens = [[None] * model.dim for _ in model.generators]
    for g, h in zip(model.generators, gens):
        for k, t in enumerate(g):
            if t is not None:
                h[lane[k]] = lane[t]
    return FqModulePresentation(model.p, model.dim, gens)


def test_census_basis_order_independence(monkeypatch):
    # the same module on the reversed basis: the lanes come in another order
    # within each depth, the walk visits its subspaces in another order, and
    # the census must not change; likewise the DVR census
    model = build_local_model(("node", 2), 1, 3, 2)
    flipped = _permuted(model, list(reversed(range(model.dim))))
    assert flipped.generators != model.generators
    assert enumerate_submodules(flipped, 3) == enumerate_submodules(model, 3)
    lam, jordan = Partition([2, 2, 1]), oracle._jordan_module
    want = dvr_type_cotype_census(lam, 3)
    monkeypatch.setattr(oracle, "_DVR_CENSUS_CACHE", {})
    monkeypatch.setattr(oracle, "_jordan_module", lambda parts, p: _permuted(
        jordan(parts, p), list(reversed(range(sum(parts))))))
    assert oracle._jordan_module(lam.parts, 3).generators != jordan(lam.parts, 3).generators
    assert dvr_type_cotype_census(lam, 3) == want


def _reference_rank(module, basis):
    """rank M/(L + mM) by the span of L masked to the lanes outside mM."""
    lanes = module.lanes
    hit = {t for g in module.generators for t in g if t is not None}
    outside = sum(lanes.mask << (lanes.w * k) for k in range(module.dim) if k not in hit)
    return module.dim - len(hit) - len(oracle._span((v & outside for v in basis), lanes))


def _full_basis(module):
    """The module's basis vectors, packed: M itself as a spanning set."""
    return tuple(1 << (module.lanes.w * i) for i in range(module.dim))


def _reference_type_cotype(module, basis):
    """(type, cotype) of K = span(basis) by spans of T^j K and of K + m^j M."""
    gens, lanes = module.compiled, module.lanes
    m_powers = [oracle._span(_full_basis(module), lanes)]
    while m_powers[-1]:
        m_powers.append(_image(gens, m_powers[-1].values(), lanes))
    sub, cur = [len(basis)], basis
    while cur:
        cur = _image(gens, cur, lanes).values()
        sub.append(len(cur))
    quo = [len(oracle._span(basis, lanes, mp)) - len(basis) for mp in m_powers]
    return tuple(Partition(a - b for a, b in zip(dims, dims[1:]) if a > b).conjugate().parts
                 for dims in (sub, quo))


def test_pivot_counts_match_spans(monkeypatch):
    # the quotient rank, the type and the cotype read off U = K^perp's pivot
    # counts and masked ranks equal their span-based reading on K, built here
    # from U, at every subspace the walk visits, on seeded Jordan modules and
    # local models under random basis permutations; the leaves too, each
    # built by _lines in a leaf-by-leaf walk, and the DVR census's raw steps
    # typed as its walk's progress types them
    rng, jordan = random.Random(20267), oracle._jordan_module
    seen = {"rank": 0, "cotype": 0}

    def checked_walk(module, max_codim, classify, budget, what, progress=dict):
        def check(rows, s):
            got, kernel = classify(rows, s), _annihilator(module, rows)
            if s is not None:
                assert s == len(kernel) - len(_image(module.compiled, kernel, module.lanes))
            if isinstance(got[1], tuple):
                assert list(progress({got: 1})) == [_reference_type_cotype(module, kernel)], (
                    module.generators, rows)
                seen["cotype"] += 1
            else:
                assert got == (module.dim - len(kernel), _reference_rank(module, kernel))
                seen["rank"] += 1
            return got
        return _leaf_walk(module, max_codim, check, budget, what, progress)

    def shuffled(model):
        lane = list(range(model.dim))
        rng.shuffle(lane)
        return _permuted(model, lane)

    monkeypatch.setattr(oracle, "_walk", checked_walk)
    monkeypatch.setattr(oracle, "_jordan_module", lambda parts, p: shuffled(jordan(parts, p)))
    for p, size in ((2, 5), (3, 4), (5, 3)):
        monkeypatch.setattr(oracle, "_DVR_CENSUS_CACHE", {})
        for lam in (lam for n in range(1, size + 1) for lam in partitions_of(n)):
            dvr_type_cotype_census(lam, p)
        for target in ("free", "normalization", "max_ideal"):
            for _ in range(2):
                kind, m, d = rng.choice(("cusp", "node")), rng.randint(1, 2), rng.randint(1, 2)
                model = shuffled(build_local_model((kind, m), d, 2 + (p == 2), p, target))
                enumerate_submodules(model, 2 + (p == 2))
    assert seen["rank"] > 1000 and seen["cotype"] > 1000, seen


def _every_subspace(dim, p):
    """Every subspace of F_p^dim as the rows of its reduced echelon form, each
    row 1 at its first nonzero coordinate and 0 at the other rows' firsts."""
    for k in range(dim + 1):
        for pivots in combinations(range(dim), k):
            slots = [(i, j) for i, piv in enumerate(pivots)
                     for j in range(piv + 1, dim) if j not in pivots]
            for values in product(range(p), repeat=len(slots)):
                rows = [[int(j == piv) for j in range(dim)] for piv in pivots]
                for (i, j), x in zip(slots, values):
                    rows[i][j] = x
                yield rows


def test_census_matches_every_subspace():
    # an independent count: every subspace of a tiny model (p = 2 up to dim 6,
    # p = 3 up to dim 4) as a reduced echelon form, the invariant ones kept and
    # read by spans, against the walk's census and the DVR census
    rng = random.Random(20263)
    for p, size in ((2, 6), (3, 4)):
        shapes = [lam for n in range(1, size + 1) for lam in partitions_of(n)]
        models = [(lam, oracle._jordan_module(lam.parts, p)) for lam in rng.sample(shapes, 4)]
        local = [build_local_model((kind, m), d, N, p, target)
                 for kind in ("cusp", "node") for m in (1, 2) for d in (1, 2) for N in (2, 3)
                 for target in ("free", "normalization", "max_ideal")]
        models += [(None, model) for model in rng.sample([x for x in local if x.dim <= size], 4)]
        for lam, model in models:
            lanes, gens = model.lanes, model.compiled
            census, dvr = {}, {}
            for rows in _every_subspace(model.dim, p):
                basis = [lanes.pack(r) for r in rows]
                if len(oracle._span(basis + [oracle._apply(g, b, lanes) for g in gens
                                             for b in basis], lanes)) > len(basis):
                    continue
                key = (model.dim - len(basis), _reference_rank(model, basis))
                census[key] = census.get(key, 0) + 1
                if lam is not None:
                    key = _reference_type_cotype(model, basis)
                    dvr[key] = dvr.get(key, 0) + 1
            assert enumerate_submodules(model, model.dim).counts == census, model.generators
            if lam is not None:
                oracle._DVR_CENSUS_CACHE.pop((lam.parts, p), None)
                assert dvr_type_cotype_census(lam, p) == dvr, (lam.parts, p)


def test_census_budget():
    model = build_local_model(("node", 1), 2, 3, 2)
    with pytest.raises(BudgetExceededError):
        enumerate_submodules(model, 3, budget=5)


def test_walk_budget_stops():
    # the least budget each census needs; it pins the basis order of the
    # models and the number of children the walk visits
    model = build_local_model(("node", 1), 2, 3, 2)
    with pytest.raises(BudgetExceededError) as stop:
        enumerate_submodules(model, 3, budget=140)
    assert stop.value.progress.counts[(0, 0)] == 1
    assert enumerate_submodules(model, 3, budget=141) == enumerate_submodules(model, 3)
    with pytest.raises(BudgetExceededError):
        solomon_census(2, 3, 4, budget=231)
    assert solomon_census(2, 3, 4, budget=232).coefficients(4) == [1, 4, 13, 40, 121]
    lam = Partition([2, 1, 1])
    oracle._DVR_CENSUS_CACHE.clear()
    with pytest.raises(BudgetExceededError):
        dvr_type_cotype_census(lam, 3, budget=147)
    oracle._DVR_CENSUS_CACHE.clear()
    assert sum(dvr_type_cotype_census(lam, 3, budget=148).values()) > 0
    # mid-walk stops at p = 5, where scale is not the identity: the counts a
    # stop carries pin which children came first
    with pytest.raises(BudgetExceededError) as stop:
        quot_census("node", 1, 2, 5, 2, budget=96)
    assert stop.value.progress.counts == {(0, 0): 1, (1, 1): 3, (2, 1): 60, (2, 2): 1}
    assert quot_census("node", 1, 2, 5, 2, budget=192) == quot_census("node", 1, 2, 5, 2)
    lam = Partition([2, 2, 1])
    oracle._DVR_CENSUS_CACHE.clear()
    with pytest.raises(BudgetExceededError) as stop:
        dvr_type_cotype_census(lam, 5, budget=900)
    assert sum(stop.value.progress.values()) == 219
    assert stop.value.progress[((2,), (2, 1))] == 75
    oracle._DVR_CENSUS_CACHE.clear()
    assert sum(dvr_type_cotype_census(lam, 5, budget=1845).values()) == 426


def test_budget_stops_wide_node_at_once():
    # the root of F_131^4 under T = 0 has (131^4 - 1)/130 lines; it is charged
    # them when it is expanded, so budget 10 stops it before any child is
    # built, and the root is the only subspace counted
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as stop:
            solomon_census(4, 131, 1, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stop.value.progress.counts == {(0, 0): 1}
    assert peak < 1 << 20


def test_census_memory_is_bounded():
    # the walk keeps no set of the subspaces it has seen, only its stack:
    # 6393 subspaces peak in a few kB
    tracemalloc.start()
    try:
        census = quot_census("node", 1, 3, 2, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(census.counts.values()) == 6393
    assert peak < 64 << 10


def test_dvr_cache_keeps_budget():
    # a cached census is no way round the budget: after an unbudgeted call the
    # same stops hold, and a negative budget is still rejected
    lam = Partition([2, 1, 1])
    full = dvr_type_cotype_census(lam, 3)
    assert sum(full.values()) == 50
    for budget in (1, 147):
        with pytest.raises(BudgetExceededError):
            dvr_type_cotype_census(lam, 3, budget=budget)
    assert dvr_type_cotype_census(lam, 3, budget=148) == full
    with pytest.raises(ValueError):
        dvr_type_cotype_census(lam, 3, budget=-1)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 131))
def test_lane_arithmetic(p):
    # reduce, sub and scale on packed vectors against coordinate-wise arithmetic
    rng = random.Random(p)
    for _ in range(200):
        dim = rng.randint(0, 12)
        lanes = oracle._Lanes(p, dim)
        a = [rng.randrange(p) for _ in range(dim)]
        b = [rng.randrange(p) for _ in range(dim)]
        c = rng.randrange(p)
        # lanes in [0, 2p), as reduce takes them
        s = sum((x + y) << (lanes.w * i) for i, (x, y) in enumerate(zip(a, b)))
        assert lanes.reduce(s) == lanes.pack([(x + y) % p for x, y in zip(a, b)])
        assert lanes.sub(lanes.pack(a), lanes.pack(b)) == lanes.pack(
            [(x - y) % p for x, y in zip(a, b)])
        assert lanes.scale(c, lanes.pack(a)) == lanes.pack([c * x % p for x in a])


def _plain_apply(g, vec, p):
    out = [0] * len(g)
    for k, t in enumerate(g):
        if t is not None:
            out[t] = (out[t] + vec[k]) % p
    return out


def test_compiled_apply_matches_index_map():
    # every model kind and target, Jordan modules, and three sources on one target
    models = [build_local_model((kind, m), d, N, p, target)
              for kind in ("cusp", "node") for target in ("free", "normalization", "max_ideal")
              for m in (1, 2) for d in (1, 2) for N in (2, 3) for p in (2, 5)]
    models += [oracle._jordan_module(parts, p, d)
               for parts in ((1,), (3, 1), (2, 2, 1)) for p in (3, 131) for d in (1, 2)]
    models.append(FqModulePresentation(3, 5, [(3, 3, 3, 4, None)]))
    rng = random.Random(7)
    for model in models:
        p, lanes = model.p, model.lanes
        for g, compiled in zip(model.generators, model.compiled):
            for _ in range(10):
                vec = [rng.randrange(p) for _ in range(model.dim)]
                got = oracle._apply(compiled, lanes.pack(vec), lanes)
                assert got == lanes.pack(_plain_apply(g, vec, p)), (model.generators, vec)


def test_quot_census_sizing():
    # N = max(max_codim, 1), or max_codim + 1 for the maximal ideal
    assert quot_census("node", 1, 2, 2, 0).counts == {(0, 0): 1}
    for module, n in (("free", 3), ("max_ideal", 2), ("normalization", 2)):
        got = quot_census("cusp", 1, 2, 2, n, module).coefficients(n)
        n_model = n + 1 if module == "max_ideal" else n
        model = build_local_model(("cusp", 1), 2, n_model, 2, module)
        assert got == enumerate_submodules(model, n).coefficients(n)
    with pytest.raises(ValueError):
        quot_census("node", 1, 1, 2, -1)


def test_solomon_census():
    # coefficients of 1/(t;p)_d are h_k(1, p, ..., p^{d-1})
    for p in (2, 3):
        assert solomon_census(1, p, 4).coefficients(4) == [1] * 5
        want = [sum(p ** a for a in range(k + 1)) for k in range(5)]
        assert solomon_census(2, p, 4).coefficients(4) == want


def test_quot_coeffs_oracle_vs_formula():
    got = quot_coeffs_oracle("node", 1, 1, 2, 3)
    want = [c.eval_int(2) for c in z_series("node", 1, 1, 4)]
    assert [Fraction(x) for x in got] == want
    got = quot_coeffs_oracle("cusp", 1, 1, 2, 3, module="normalization")
    want = [c.eval_int(2) for c in z_series("cusp", 1, 1, 4, module="normalization")]
    assert [Fraction(x) for x in got] == want


def test_quot_coeffs_oracle_beyond_criterion_8():
    # larger rank, p = 3 and a longer window than the acceptance criterion uses;
    # the last four windows reach t-degrees where z_series tells m from m + 1,
    # which criterion 8's N = 3 does not for the cusp, nor for the node at m = 2
    for kind, m, d, p, N, module in (("node", 1, 3, 2, 3, "free"),
                                     ("cusp", 1, 2, 3, 4, "free"),
                                     ("node", 1, 2, 3, 3, "normalization"),
                                     ("cusp", 2, 1, 2, 6, "free"),
                                     ("cusp", 2, 2, 2, 6, "free"),
                                     ("cusp", 3, 1, 2, 8, "free"),
                                     ("node", 2, 1, 2, 5, "free")):
        got = quot_coeffs_oracle(kind, m, d, p, N, module=module)
        want = [c.eval_int(p) for c in z_series(kind, m, d, N + 1, module=module)]
        assert [Fraction(x) for x in got] == want, (kind, m, d, p, N, module)
    assert solomon_census(3, 2, 4).coefficients(4) == [c.eval_int(2) for c in full_z(ONE, 1, 3, 5)]


def test_quot_coeffs_oracle_beyond_criterion_8_odd_primes():
    # criterion 8 counts at p = 2 and 3; here p = 5 for the free node and cusp,
    # a deeper window at p = 3 for the node, and the cusp's normalization at p = 3
    for kind, m, d, p, N, module in (("node", 1, 2, 5, 3, "free"),
                                     ("cusp", 1, 2, 5, 2, "free"),
                                     ("node", 1, 1, 5, 4, "free"),
                                     ("cusp", 1, 2, 3, 3, "normalization")):
        got = quot_coeffs_oracle(kind, m, d, p, N, module=module)
        want = [c.eval_int(p) for c in z_series(kind, m, d, N + 1, module=module)]
        assert [Fraction(x) for x in got] == want, (kind, m, d, p, N, module)


def _reference_mat_mul(a, b, p):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
                 for row in a)


def _reference_matrix_pair_count(n, p):
    """#{(A,B) : AB = BA, A^2 = B^3} on tuple products, the A grouped by A^2
    and each B tested against the A with A^2 = B^3, whole products compared."""
    if n == 0:
        return 1
    mats = [tuple(flat[i:i + n] for i in range(0, n * n, n))
            for flat in product(range(p), repeat=n * n)]
    squares = {a: _reference_mat_mul(a, a, p) for a in mats}
    roots = {}
    for a, sq in squares.items():
        roots.setdefault(sq, []).append(a)
    count = 0
    for b in mats:
        for a in roots.get(_reference_mat_mul(squares[b], b, p), ()):
            if _reference_mat_mul(a, b, p) == _reference_mat_mul(b, a, p):
                count += 1
    return count


def test_matrix_pair_count_matches_tuple_products():
    for n, p in [(n, p) for n in (0, 1, 2) for p in (2, 3, 5, 7)] + [(3, 2)]:
        assert matrix_pair_count(n, p) == _reference_matrix_pair_count(n, p), (n, p)


def test_matrix_pair_count_beyond_criterion_10():
    # criterion 10 stops at n = 2, p <= 3; the square-root fibres reach these
    for n, p in ((3, 2), (2, 5)):
        assert matrix_pair_count(n, p) == matrix_count_formula(n).eval_int(p), (n, p)


def test_matrix_pair_count():
    assert matrix_pair_count(0, 2) == 1
    assert matrix_pair_count(1, 2) == 2
    assert matrix_pair_count(1, 3) == 3
    with pytest.raises(BudgetExceededError):
        matrix_pair_count(3, 3, budget=100)
    with pytest.raises(ValueError):
        matrix_pair_count(-1, 2)


def test_dvr_census():
    census = dvr_type_cotype_census(Partition([1, 1]), 2)
    # three lines, each of type (1) and cotype (1); plus 0 and the whole module
    assert census[((1,), (1,))] == 3
    assert census[((), (1, 1))] == 1
    assert census[((1, 1), ())] == 1


def test_surjective_homs_count():
    # maps F_p^d -> F_p surjective: p^d - 1
    assert surjective_homs_count(Partition([1]), 2, 3) == 8
    assert surjective_homs_count(Partition([2]), 1, 2) == 2  # generators of Z/4-like module
    assert surjective_homs_count(Partition([1, 1]), 1, 2) == 0


def test_coh_quot_invariance():
    rep = coh_quot_invariance_check("node", 1, 2, 1, 1, [1, 2, 3])
    assert rep.passed
    with pytest.raises(ValueError):
        coh_quot_invariance_check("node", 1, 2, 1, 2, [2])
    with pytest.raises(ValueError):
        coh_quot_invariance_check("node", 1, 2, 1, 1, [])
