"""The four benchmark workloads: their requests, request order and outputs.

A request id names one call into singzeta (or one CLI command).  Every request
runs from a fresh start: an in-process request in a child forked from a process
that has only imported singzeta, a CLI command in its own interpreter.  So its
memo caches start empty, as in each `singzeta` invocation, and its cost does
not depend on which requests ran before it.  The workload seed sets the order
in which each round runs the requests.  `canonical` turns a request's result
into the exact JSON object whose digest is compared with `reference.json`.

A request's time is taken as the fastest of its runs (see README.md), so every
request is kept short: no single call takes more than about half a second on a
2-core 2.1 GHz VM.
"""

import hashlib
import json
import os
import random

CRITERIA_CL = "criteria-cl"
NZ_GRID = "nz-grid"
ORACLE_CENSUS = "oracle-census"
CLI_TOUR = "cli-tour"
WORKLOADS = (CRITERIA_CL, NZ_GRID, ORACLE_CENSUS, CLI_TOUR)

# The criteria of `run_criteria(full=False)` except 14, whose one 22 s
# computation is too long to time steadily; its work is in the cl/sv requests.
FAST_CRITERIA = ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c11", "c12",
                 "c15", "c16")

# clzeta.cl_series on three windows (u_prec, t_prec), both families, m <= 3.
CL_REQUESTS = tuple("cl-%s-m%d-u%d-t%d" % (kind, m, u, t)
                    for kind in ("cusp", "node") for m in (1, 2, 3)
                    for u, t in ((13, 8), (21, 8), (13, 16)))

# clzeta.special_values at u_prec 9 and 13: the cusp for m <= 2 and the node
# for m = 1 (the node at m = 2 takes over a second).
SV_REQUESTS = tuple("sv-%s-m%d-u%d" % (kind, m, u)
                    for kind, ms in (("cusp", (1, 2)), ("node", (1,)))
                    for m in ms for u in (9, 13))

# quotzeta.nz for cusp/node x free/normalization, m <= 4, d <= 5, m + d <= 7:
# the box without nz_node_free at (4,4), (3,5) and (4,5), 0.7 to 4 s each.
NZ_REQUESTS = tuple("nz-%s-%s-m%d-d%d" % (kind, module, m, d)
                    for kind in ("cusp", "node")
                    for module in ("free", "normalization")
                    for m in range(1, 5) for d in range(1, 6) if m + d <= 7)

# quot_coeffs_oracle(kind, m, d, p, N, module): at N = 3 the free model for
# m, d <= 2 and p in {2, 3} and the normalization model for m, d <= 2 and
# p = 2 (the censuses of criterion 8, less the node's normalization model at
# d = 2, 0.7 and 1.3 s); at p = 2 the larger node m=1 d=3 N=3, node m=1 d=2
# N=4 and cusp m=2 d=2 N=4.
QUOT_ARGS = ([(kind, m, d, p, 3, "free") for kind in ("cusp", "node")
              for m in (1, 2) for d in (1, 2) for p in (2, 3)]
             + [(kind, m, d, 2, 3, "normalization") for kind in ("cusp", "node")
                for m in (1, 2) for d in (1, 2) if (kind, d) != ("node", 2)]
             + [("node", 1, 3, 2, 3, "free"), ("node", 1, 2, 2, 4, "free"),
                ("cusp", 2, 2, 2, 4, "free")])
QUOT_CENSUSES = tuple(("quot-%s-m%d-d%d-p%d-N%d-%s" % args, args) for args in QUOT_ARGS)


def _partitions_up_to(n):
    # run.py builds request ids without importing the program it measures
    out = []

    def rec(prefix, cap, left):
        if left == 0:
            out.append(prefix)
            return
        for p in range(min(cap, left), 0, -1):
            rec(prefix + (p,), p, left - p)

    for size in range(n + 1):
        rec((), size, size)
    return out


# The DVR census of criterion 7: every lambda with |lambda| <= 5 at p = 2 and
# |lambda| <= 4 at p = 3 (lambda = 1^5 at p = 3 alone takes 0.7 s).
DVR_CENSUSES = tuple(("dvr-p%d-%s" % (p, "-".join(map(str, lam)) or "empty"), lam, p)
                     for p, size in ((2, 5), (3, 4)) for lam in _partitions_up_to(size))

ORACLE_REQUESTS = (("c9", "c10", "c13")
                   + tuple(rid for rid, _ in QUOT_CENSUSES)
                   + tuple(rid for rid, _, _ in DVR_CENSUSES))

# The README CLI tour without `suite`: (request id, argv after `singzeta`).
# `verify conversion` runs without the README's --oracle, whose census alone
# takes 6 s.
CLI_COMMANDS = (
    ("nz", "nz --family node --m 1 --d 1"),
    ("nz-json", "nz --family cusp --m 2 --d 2 --module normalization --format json"),
    ("z", "z --family node --m 1 --d 2 --tprec 6"),
    ("cl", "cl --family node --m 1 --uprec 9 --tprec 5"),
    ("hall", "hall --lambda 2,1 --mu 1 --nu 1,1 --oracle 3"),
    ("table1", "table 1"),
    ("table3", "table 3"),
    ("oracle-quot", "oracle quot --family node --m 1 --d 2 --p 2 --max-codim 3"),
    ("oracle-solomon", "oracle solomon --d 2 --p 3 --N 4"),
    ("oracle-matrix", "oracle matrix --n 2 --p 3"),
    ("verify-funceq", "verify funceq --family node --m 2 --d 2"),
    ("verify-squaring", "verify squaring --m 3 --d 3"),
    ("verify-t2", "verify t2 --m 3 --d 4"),
    ("verify-limit", "verify limit --family cusp --m 1 --d-list 4,5 --uprec 5 --tprec 4"),
    ("verify-conversion", "verify conversion --m 1 --d 3 --uprec 6 --tprec 4"),
    ("verify-special", "verify special --family cusp --m 1 --uprec 21"),
    ("verify-matrix-count", "verify matrix-count --n 2 --p 3"),
    ("verify-coh-quot", "verify coh-quot --family node --m 1 --p 2 --n 2 --r 1 --d-list 1,2,3"),
)
CLI_ARGV = {rid: cmd.split() for rid, cmd in CLI_COMMANDS}

REQUESTS = {
    CRITERIA_CL: FAST_CRITERIA + CL_REQUESTS + SV_REQUESTS,
    NZ_GRID: NZ_REQUESTS,
    ORACLE_CENSUS: ORACLE_REQUESTS,
    CLI_TOUR: tuple(rid for rid, _ in CLI_COMMANDS),
}

# The smallest request of each workload, for the benchmark's own tests.
SMALLEST = {CRITERIA_CL: "c1", NZ_GRID: "nz-cusp-free-m1-d1",
            ORACLE_CENSUS: "dvr-p2-empty", CLI_TOUR: "nz"}


def order(workload, seed, round_index, requests=None):
    """Request order of one round, drawn from the seed and the round's index."""
    ids = list(REQUESTS[workload] if requests is None else requests)
    random.Random("%s:%d:%d" % (workload, seed, round_index)).shuffle(ids)
    return ids


# The CPUs this process may run on (none where the platform cannot pin).
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(round_index):
    """Pin this process to the CPU of a round; request processes call it.

    Rounds take the CPUs in turn.  On a shared host each CPU slows down at
    its own times, so a request's fastest run is then the fastest on any CPU.
    """
    if CPUS:
        os.sched_setaffinity(0, {CPUS[round_index % len(CPUS)]})


# -- in-process requests --------------------------------------------------------


def execute(rid):
    """Run one in-process request and return its raw result."""
    from singzeta import acceptance, clzeta, oracle, quotzeta
    from singzeta.partitions import Partition

    if _is_criterion(rid):
        label, fn, mode = acceptance.CRITERIA[int(rid[1:]) - 1]
        # the same dispatch as run_criteria(full=False) for the fast criteria;
        # oracle criteria run with their default budget, as in `suite full`
        if mode == "oracle-mixed":
            return fn(with_oracle=False)
        return fn()
    kind, *params = rid.split("-")[1:]
    if rid.startswith("nz-"):
        module, m, d = params
        family = quotzeta.SingularityFamily(kind, int(m[1:]))
        return quotzeta.nz(family, int(d[1:]), module)
    if rid.startswith("cl-"):
        return clzeta.cl_series(kind, *(int(x[1:]) for x in params))
    if rid.startswith("sv-"):
        return clzeta.special_values(kind, *(int(x[1:]) for x in params))
    if rid.startswith("dvr-"):
        lam, p = _DVR_ARGS[rid]
        return oracle.dvr_type_cotype_census(Partition(lam), p)
    if rid.startswith("quot-"):
        *args, module = _QUOT_ARGS[rid]
        return oracle.quot_coeffs_oracle(*args, module=module)
    raise KeyError("unknown request %r" % rid)


_DVR_ARGS = {rid: (lam, p) for rid, lam, p in DVR_CENSUSES}
_QUOT_ARGS = dict(QUOT_CENSUSES)


def _is_criterion(rid):
    return rid[0] == "c" and rid[1:].isdigit()


def _returns_reports(rid):
    return _is_criterion(rid) or rid.startswith("sv-")


def _series(ts):
    return sorted([i, j, str(c)] for (i, j), c in ts.coeffs.items())


def canonical(rid, result):
    """The exact, timing-free JSON object of a request's result."""
    if _returns_reports(rid):
        out = []
        for report in result:
            obj = report.to_json_obj()
            del obj["wall_time_ms"]
            out.append(obj)
        return out
    if rid.startswith("nz-"):
        return result.to_json_obj()
    if rid.startswith("cl-"):
        return {"numerator": _series(result.numerator), "full": _series(result.full)}
    if rid.startswith("dvr-"):
        return sorted([list(tm), list(cot), str(c)] for (tm, cot), c in result.items())
    return [str(c) for c in result]


def failed_reports(rid, result):
    """Number of reports with status 'fail' in a criterion's result."""
    if not _returns_reports(rid):
        return 0
    return sum(1 for report in result if report.status == "fail")


def digest(obj):
    """sha256 of the canonical JSON encoding of `obj`."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(exit_code, stdout):
    """sha256 of a CLI command's exit code and exact stdout bytes."""
    return hashlib.sha256(b"%d\n" % exit_code + stdout).hexdigest()
