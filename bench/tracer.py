"""Span tracer for the benchmark's traced runs.

`Tracer.install()` replaces public singzeta functions and methods with
wrappers that record spans (name, start, end, parent) or plain counts.  Python
binds `from .hall import hall_skew` by value, so patching only the defining
module would miss the copies other modules hold: install rebinds every alias
found in the globals of each `singzeta.*` module and in the dicts of their
classes, and `check()` fails if a copy of a wrapped function is left.

Spans are folded as they close into totals per (parent, name) edge, so a run
with millions of polynomial multiplications keeps a few hundred records.  A
span's self time is its duration minus the durations of its direct children.
"""

import importlib
import sys
import time

from singzeta import hall, laurent, oracle, quotzeta, series
from singzeta.report import BudgetExceededError

SPAN, COUNT, GEN = "span", "count", "gen"

# (module, attribute path, span or counter name, kind).  COUNT wrappers only
# count calls; GEN wrappers time each step of a generator and count its items.
TARGETS = (
    ("laurent", "LaurentPoly2.__mul__", "laurent.mul", SPAN),
    ("laurent", "LaurentPoly2.__add__", "laurent.add", SPAN),
    ("laurent", "LaurentPoly2.substitute", "laurent.substitute", COUNT),
    ("laurent", "qbinomial", "laurent.qbinomial", COUNT),
    ("laurent", "LaurentPoly2.__str__", "laurent.render", SPAN),
    ("laurent", "LaurentPoly2.grouped_str", "laurent.render", SPAN),
    ("laurent", "LaurentPoly2.to_json_obj", "laurent.render", SPAN),
    ("partitions", "Partition.__init__", "partitions.constructed", COUNT),
    ("partitions", "iterate_box", "partitions.iterate_box", GEN),
    ("partitions", "iterate_bounded_parts", "partitions.iterate_bounded_parts", GEN),
    ("partitions", "partitions_of", "partitions.partitions_of", SPAN),
    ("hall", "hall_box", "hall.hall_box", SPAN),
    ("hall", "hall_skew", "hall.hall_skew", SPAN),
    ("hall", "hall_general", "hall.hall_general", SPAN),
    ("series", "TruncSeries2.__mul__", "series.mul", SPAN),
    ("series", "TruncSeries2.inverse", "series.inverse", SPAN),
    ("series", "poch_inf", "series.poch_inf", COUNT),
    ("series", "inv_qpoch_u", "series.inv_qpoch_u", COUNT),
    ("series", "LaurentSeriesUT.__mul__", "series.lsut.mul", SPAN),
    ("series", "LaurentSeriesUT.inverse", "series.lsut.inverse", SPAN),
    ("quotzeta", "nz", "quotzeta.nz", SPAN),
    ("quotzeta", "nz_cusp_free", "quotzeta.nz_form", SPAN),
    ("quotzeta", "nz_cusp_normalization", "quotzeta.nz_form", SPAN),
    ("quotzeta", "nz_node_free", "quotzeta.nz_form", SPAN),
    ("quotzeta", "nz_node_normalization", "quotzeta.nz_form", SPAN),
    ("quotzeta", "full_z", "quotzeta.full_z", SPAN),
    ("quotzeta", "funceq_check", "quotzeta.checks", SPAN),
    ("quotzeta", "specialization_report", "quotzeta.checks", SPAN),
    ("quotzeta", "skew_cauchy_bounded_check", "quotzeta.checks", SPAN),
    ("quotzeta", "cusp_t2_check", "quotzeta.checks", SPAN),
    ("quotzeta", "node22_check", "quotzeta.checks", SPAN),
    ("quotzeta", "m_limit_check", "quotzeta.checks", SPAN),
    ("quotzeta", "positivity_scan", "quotzeta.checks", SPAN),
    ("clzeta", "cl_series", "clzeta.cl_series", SPAN),
    ("clzeta", "cl_node", "clzeta.cl_node", SPAN),
    ("clzeta", "cl_cusp", "clzeta.cl_cusp", SPAN),
    ("clzeta", "convert_rank", "clzeta.convert_rank", SPAN),
    ("clzeta", "special_values", "clzeta.special_values", SPAN),
    ("oracle", "enumerate_submodules", "oracle.enumerate_submodules", SPAN),
    ("oracle", "dvr_type_cotype_census", "oracle.dvr_census", SPAN),
    ("oracle", "matrix_pair_count", "oracle.matrix_pair_count", SPAN),
    ("tables", "table_text", "tables.table_text", SPAN),
)

# Counts taken only while a span of the given name is open: (scope, event) -> counter.
SCOPED = {
    ("clzeta.cl_node", "partitions.constructed"): "clzeta.cl_node.partitions_built",
    ("clzeta.cl_node", "hall.hall_skew"): "clzeta.cl_node.hall_skew_calls",
}

# Memo caches whose entry counts are read when a request ends.
CACHES = (
    ("quotzeta.nz_cache", quotzeta, "_NZ_CACHE"),
    ("hall.hlp_cache", hall, "_HLP_CACHE"),
    ("hall.hlc_cache", hall, "_HLC_CACHE"),
    ("hall.pair_cache", hall, "_HALL_PAIR_CACHE"),
    ("laurent.qbinom_cache", laurent, "_QBINOM_CACHE"),
    ("series.inv_poch_cache", series, "_INV_POCH_CACHE"),
    ("oracle.dvr_cache", oracle, "_DVR_CENSUS_CACHE"),
)


def _scoped(event):
    return [(scope, counter) for (scope, ev), counter in SCOPED.items() if ev == event]


def cache_entries():
    return {name: len(getattr(module, attr, ())) for name, module, attr in CACHES}


def _lookup(module_name, path):
    """The function a target names, or None when the program no longer has it.

    A target that a later version of the program removes or renames is
    skipped, and its metrics read 0, so the traced run keeps working.
    """
    try:
        owner = importlib.import_module("singzeta." + module_name)
    except ModuleNotFoundError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return vars(owner).get(attr) if owner is not None else None


def _singzeta_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "singzeta" or name.startswith("singzeta."))]


def _namespaces():
    """Every module dict and class dict of the loaded singzeta modules."""
    for module in _singzeta_modules():
        yield module.__name__, module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield "%s.%s" % (module.__name__, value.__qualname__), value


class AliasError(RuntimeError):
    """A binding of a wrapped function still holds the original."""


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []            # open spans: [name, child time]
        self.edges = {}            # (parent name, name) -> [calls, total s, self s]
        self.counts = {}
        self.depth = {scope: 0 for scope, _ in SCOPED}
        self.cl_series_args = set()
        self.dvr_seen = set()      # ids of DVR censuses already counted
        self.top_total = 0.0       # summed duration of spans with no parent
        self._wrapped = {}         # id(original) -> (original, wrapper)
        self._rebound = []         # (namespace, attribute, original)

    # -- recording ----------------------------------------------------------------

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _open(self, name, scoped=()):
        if name in self.depth:
            self.depth[name] += 1
        for scope, counter in scoped:
            if self.depth[scope]:
                self.count(counter)
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, duration):
        stack = self.stack
        stack.pop()
        name = frame[0]
        if name in self.depth:
            self.depth[name] -= 1
        if stack:
            parent = stack[-1]
            parent[1] += duration
            key = (parent[0], name)
        else:
            self.top_total += duration
            key = (None, name)
        agg = self.edges.get(key)
        if agg is None:
            self.edges[key] = [1, duration, duration - frame[1]]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[1]

    def _exception(self, name, exc):
        if isinstance(exc, BudgetExceededError) and not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.count(name.split(".")[0] + ".budget_exceeded")

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        frame = self._open(name)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, self.clock() - start)

    # -- wrappers -----------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer, clock, after = self, self.clock, _AFTER.get(name)
        scoped = _scoped(name)

        def wrapper(*args, **kwargs):
            frame = tracer._open(name, scoped)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exception(name, exc)
                raise
            finally:
                tracer._close(frame, clock() - start)
            if after is not None and result is not NotImplemented:
                after(tracer, args, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self
        scoped = _scoped(name)

        def wrapper(*args, **kwargs):
            tracer.count(name)
            for scope, counter in scoped:
                if tracer.depth[scope]:
                    tracer.count(counter)
            return fn(*args, **kwargs)
        return wrapper

    def _gen_wrapper(self, fn, name):
        tracer, clock = self, self.clock
        yielded = name + ".yielded"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = tracer._open(name)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame, clock() - start)
                tracer.count(yielded)
                yield item
        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self):
        """Wrap every target and rebind each of its aliases; then check()."""
        makers = {SPAN: self._span_wrapper, COUNT: self._count_wrapper,
                  GEN: self._gen_wrapper}
        for module_name, path, name, kind in TARGETS:
            original = _lookup(module_name, path)
            if original is not None:
                self._wrapped[id(original)] = (original, makers[kind](original, name))
        for _, namespace in _namespaces():
            for attr, value in list(vars(namespace).items()):
                entry = self._wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(namespace, attr, entry[1])
                    self._rebound.append((namespace, attr, value))
        self.check()
        return self

    def check(self):
        """Raise AliasError if any singzeta namespace still binds an original."""
        left = ["%s.%s" % (where, attr)
                for where, namespace in _namespaces()
                for attr, value in list(vars(namespace).items())
                if id(value) in self._wrapped and self._wrapped[id(value)][0] is value]
        if left:
            raise AliasError("unwrapped bindings: " + ", ".join(sorted(left)))

    def uninstall(self):
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound = []

    # -- results ------------------------------------------------------------------

    def summary(self):
        """Span edges, counts and cache sizes, as plain JSON data."""
        return {
            "edges": [[parent, name] + agg for (parent, name), agg in self.edges.items()],
            "counts": dict(self.counts),
            "cl_series_args": sorted(self.cl_series_args),
            "caches": cache_entries(),
            "top_total_s": self.top_total,
        }


def _terms_out(tracer, args, result):
    tracer.count("laurent.mul.terms_out", len(result.terms))


def _coeffs_out(tracer, args, result):
    tracer.count("series.mul.coeffs_out", len(result.coeffs))


def _nz_terms(tracer, args, result):
    tracer.count("quotzeta.nz.terms_out", len(result.terms))


def _cl_args(tracer, args, result):
    tracer.cl_series_args.add(repr(args))


def _census_visited(tracer, args, result):
    tracer.count("oracle.submodules_visited", sum(result.counts.values()))


def _dvr_visited(tracer, args, result):
    # a cache hit returns a census already counted and visits nothing
    if id(result) not in tracer.dvr_seen:
        tracer.dvr_seen.add(id(result))
        tracer.count("oracle.submodules_visited", sum(result.values()))


_AFTER = {
    "laurent.mul": _terms_out,
    "series.mul": _coeffs_out,
    "quotzeta.nz": _nz_terms,
    "clzeta.cl_series": _cl_args,
    "oracle.enumerate_submodules": _census_visited,
    "oracle.dvr_census": _dvr_visited,
}
