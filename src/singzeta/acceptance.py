"""The acceptance battery: one callable per criterion, all tolerances zero.

Each criterion function returns a list of VerificationReports; a criterion
passes when no report has status 'fail' ('reported' entries are conjecture
level and never fail).  run_criteria drives the CLI suite; the pytest
acceptance module calls the same functions one by one.  The Hall-sum scans
of criteria 6 and 7 are hall's, which alone reads its packed coefficients;
criterion 7 reports the first mismatch of each, and of its own p-oracle scan.
"""

from itertools import zip_longest

from .laurent import ONE
from .partitions import partitions_of
from . import hall as hall_mod
from . import oracle as oracle_mod
from . import quotzeta as qz
from . import clzeta as cl_mod
from .quotzeta import SingularityFamily
from .report import VerificationReport, compare_report, first_discrepancy, timed
from . import tables


def criterion_1_table1():
    """Table 1 (node m=1, d=1..3, both columns), byte-exact."""
    return _table12_criterion(1)


def criterion_2_table2():
    """Table 2 (node m=2, d=1..3, both columns), byte-exact."""
    return _table12_criterion(2)


def _table12_criterion(which):
    name = "table%d" % which
    reports = [compare_report(name + "-bytes", {}, tables.table_text(which, computed=True),
                              tables.table_text(which),
                              lhs_text="<computed>", rhs_text="<golden>")]
    for got, want in zip(tables.table_rows(which, computed=True), tables.table_rows(which)):
        for module in ("free", "normalization"):
            reports.append(compare_report(name + "-poly", {"d": got["d"], "module": module},
                                          got[module], want[module]))
    return reports


def criterion_3_table3():
    """Table 3 (CL node m=1,2,3): every explicitly printed coefficient."""
    return [compare_report("table3-bytes", {"m": m}, got, want,
                           lhs_text="<computed>", rhs_text="<golden>")
            for m, got, want in zip(sorted(tables.TABLE3),
                                    tables.table_text(3, computed=True).splitlines(),
                                    tables.table_text(3).splitlines())]


def criterion_4_funceq():
    """Functional equation for both families, m <= 3, d <= 3 (18 identities)."""
    return [qz.funceq_check(SingularityFamily(kind, m), d)
            for kind in ("cusp", "node")
            for m in (1, 2, 3)
            for d in (1, 2, 3)]


def criterion_5_cusp_squaring():
    """nz_cusp_free(m,d) = nz_cusp_normalization(m,d) at t -> t^2, m <= 3, d <= 4."""
    return [qz.cusp_t2_check(m, d) for m in (1, 2, 3) for d in (1, 2, 3, 4)]


def criterion_6_skew_cauchy():
    """Bounded skew-Cauchy identity for every mu, m <= 3, d <= 3."""
    return [qz.skew_cauchy_bounded_check(m, d) for m in (1, 2, 3) for d in (1, 2, 3)]


def criterion_7_hall(with_oracle=True, budget=oracle_mod.DEFAULT_BUDGET):
    """Hall consistency: box=skew, completeness, symmetry, and the p-oracle."""
    reports = [_first_mismatch_report("hall-box-vs-skew", {"m<=": 3, "d<=": 3},
                                      hall_mod.box_vs_skew_mismatch),
               _first_mismatch_report("hall-completeness", {"|lam|<=": 6},
                                      hall_mod.completeness_mismatch),
               _first_mismatch_report("hall-symmetry", {"|lam|<=": 6},
                                      hall_mod.symmetry_mismatch)]
    if with_oracle:
        reports.append(_first_mismatch_report("hall-oracle", {"|lam|<=": 5, "p": (2, 3)},
                                              _oracle_mismatch, budget))
    return reports


def _first_mismatch_report(name, params, scan, *args):
    """Run scan(*args), which returns its first mismatch (case, lhs, rhs) or
    None, and report that one."""
    with timed() as tm:
        bad = scan(*args)
    if bad is None:
        return VerificationReport(name, params, "pass", wall_time=tm.elapsed)
    case, lhs, rhs = bad
    return VerificationReport(name, params, "fail", discrepancy=first_discrepancy(lhs, rhs),
                              detail=str(case), wall_time=tm.elapsed)


def _oracle_mismatch(budget):
    by_size = [partitions_of(n) for n in range(0, 6)]
    for p in (2, 3):
        for n in range(0, 6):
            for lam in by_size[n]:
                for a in range(n + 1):
                    for mu in by_size[a]:
                        for nu in by_size[n - a]:
                            want = oracle_mod.hall_count_oracle(lam, mu, nu, p, budget=budget)
                            got = hall_mod.hall_general(lam, mu, nu).eval_int(p)
                            if got != want:
                                return (p, str(lam), str(mu), str(nu), got, want), got, want
    return None


def criterion_8_oracle_vs_formula(budget=oracle_mod.DEFAULT_BUDGET):
    """Census vs closed form, free and normalization models, p=2, N=3."""
    reports = []
    for kind in ("cusp", "node"):
        for m in (1, 2):
            for d in (1, 2):
                for module in ("free", "normalization"):
                    with timed() as tm:
                        got = oracle_mod.quot_coeffs_oracle(kind, m, d, 2, 3,
                                                            module=module, budget=budget)
                        want = [c.eval_int(2) for c in
                                cl_mod.z_series(kind, m, d, 4, module=module)]
                    reports.append(_census_report(
                        "oracle-vs-formula",
                        {"family": kind, "m": m, "d": d, "module": module, "p": 2},
                        got, want, tm.elapsed))
    return reports


def criterion_9_solomon(budget=oracle_mod.DEFAULT_BUDGET):
    """Census of (F_p[T]/T^4)^d vs the 1/(t;q)_d coefficients, d <= 2, p in {2,3}."""
    reports = []
    for d in (1, 2):
        for p in (2, 3):
            with timed() as tm:
                got = oracle_mod.solomon_census(d, p, 4, budget=budget).coefficients(4)
                want = [c.eval_int(p) for c in qz.full_z(ONE, 1, d, 5)]
            reports.append(_census_report("solomon", {"d": d, "p": p, "N": 4},
                                          got, want, tm.elapsed))
    return reports


def _census_report(name, params, got, want, wall_time):
    """Census counts against formula values; a failure names the first t-degree k
    where they differ, as (0, k).  The formula values are ints, printed in the
    repr of fractions.Fraction, the form the pinned bytes of criteria 8 and 9
    hold."""
    k = next((k for k, (a, b) in enumerate(zip_longest(got, want)) if a != b), None)
    return VerificationReport(name, params, "pass" if k is None else "fail",
                              lhs=str(got),
                              rhs="[%s]" % ", ".join("Fraction(%d, 1)" % c for c in want),
                              discrepancy=None if k is None else (0, k),
                              wall_time=wall_time)


def criterion_10_matrix_counts(budget=oracle_mod.DEFAULT_BUDGET):
    """Eq-level matrix-pair counts vs brute force, n <= 2, p in {2,3}."""
    return [cl_mod.matrix_count_check(n, p, budget=budget) for n in (0, 1, 2) for p in (2, 3)]


def criterion_11_limit():
    """Rank limit on window (u^5, t^3), d in {4,5}, both families, m <= 2."""
    return [cl_mod.limit_check(kind, m, [4, 5], 5, 3)
            for kind in ("cusp", "node") for m in (1, 2)]


def criterion_12_conversion(with_oracle=True, budget=oracle_mod.DEFAULT_BUDGET):
    """Conversion identities, node m=1, d <= 3, window (u^6, t^4)."""
    return cl_mod.conversion_check(1, 3, 6, 4, with_oracle=with_oracle, budget=budget)


def criterion_13_coh_quot(budget=oracle_mod.DEFAULT_BUDGET):
    """Coh/Quot invariance for node m=1, p=2, (n,r) pairs and three ranks each."""
    return [oracle_mod.coh_quot_invariance_check("node", 1, 2, n, r,
                                                 [r, r + 1, r + 2], budget=budget)
            for (n, r) in ((1, 1), (2, 1), (2, 2))]


def criterion_14_special_values():
    """Special values: node NZ-hat(1)=1 to u^12 (m<=3), AG to u^20 (m<=2),
    node NZ-hat(-1) to u^20 (m=1 theorem-level, m=2,3 reported)."""
    reports = []
    for m in (1, 2, 3):
        reports.extend(r for r in cl_mod.special_values("node", m, 13)
                       if r.name == "special-node-plus1")
    for m in (1, 2):
        reports.extend(cl_mod.special_values("cusp", m, 21))
    for m in (1, 2, 3):
        reports.extend(r for r in cl_mod.special_values("node", m, 21)
                       if r.name == "special-node-minus1")
    return reports


def criterion_15_node22():
    """(2,2)-link closed forms: the finite sum and the 1-phi-1 series."""
    reports = [qz.node22_check(d) for d in range(0, 6)]
    series = cl_mod.node22_phi11(10, 6)
    numerator = cl_mod.cl_series("node", 1, 10, 6).numerator
    reports.append(compare_report("node22-phi11", {"window": (10, 6)},
                                  series, numerator))
    return reports


def criterion_16_specializations():
    """t=1 and q=1 specializations for m, d <= 3."""
    return [qz.specialization_report(SingularityFamily(kind, m), d)
            for kind in ("cusp", "node") for m in (1, 2, 3) for d in (1, 2, 3)]


CRITERIA = [
    ("1 Table 1 reproduction", criterion_1_table1, "fast"),
    ("2 Table 2 reproduction", criterion_2_table2, "fast"),
    ("3 Table 3 reproduction", criterion_3_table3, "fast"),
    ("4 functional equation", criterion_4_funceq, "fast"),
    ("5 cusp squaring t->t^2", criterion_5_cusp_squaring, "fast"),
    ("6 bounded skew-Cauchy", criterion_6_skew_cauchy, "fast"),
    ("7 Hall consistency", criterion_7_hall, "oracle-mixed"),
    ("8 oracle vs formula", criterion_8_oracle_vs_formula, "oracle"),
    ("9 Solomon's formula", criterion_9_solomon, "oracle"),
    ("10 matrix-pair counts", criterion_10_matrix_counts, "oracle"),
    ("11 rank limit", criterion_11_limit, "fast"),
    ("12 conversion identities", criterion_12_conversion, "oracle-mixed"),
    ("13 Coh/Quot invariance", criterion_13_coh_quot, "oracle"),
    ("14 special values", criterion_14_special_values, "fast"),
    ("15 (2,2)-link closed forms", criterion_15_node22, "fast"),
    ("16 specializations", criterion_16_specializations, "fast"),
]


def run_criteria(full=True, budget=oracle_mod.DEFAULT_BUDGET):
    """Run the battery; without full, oracle-backed groups run symbolic parts only."""
    results = []
    for label, fn, mode in CRITERIA:
        if mode == "oracle" and not full:
            continue
        if mode == "oracle-mixed":
            reports = fn(with_oracle=full, budget=budget)
        elif mode == "oracle":
            reports = fn(budget=budget)
        else:
            reports = fn()
        results.append((label, reports))
    return results
