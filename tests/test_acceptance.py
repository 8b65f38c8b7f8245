"""Acceptance battery: one test per criterion, exact (tolerance zero) checks.

Each test prints its own pass/fail line so a -s run shows the full scoreboard;
timing limits from the statement of each criterion are asserted as well
(generously, since they are stated as upper bounds on commodity hardware).
"""

import os
import pathlib
import subprocess
import sys
import time

from singzeta import acceptance
from singzeta.oracle import SubmoduleCensus
from test_hall import lane_widths  # noqa: F401 (a fixture)


def _run(label, fn, limit=None, **kw):
    start = time.perf_counter()
    reports = fn(**kw)
    elapsed = time.perf_counter() - start
    failing = [r for r in reports if r.status == "fail"]
    status = "FAIL" if failing else "PASS"
    print("%s criterion %s (%d checks, %.2fs)" % (status, label, len(reports), elapsed))
    for r in failing:
        print("    ", r)
    assert not failing
    if limit is not None:
        assert elapsed < limit, "criterion %s exceeded %ss" % (label, limit)
    return reports


def test_criterion_01_table1():
    _run("1 Table 1", acceptance.criterion_1_table1, limit=1.0)


def test_criterion_02_table2():
    _run("2 Table 2", acceptance.criterion_2_table2, limit=5.0)


def test_criterion_03_table3():
    _run("3 Table 3", acceptance.criterion_3_table3, limit=30.0)


def test_criterion_04_funceq():
    reports = _run("4 functional equation", acceptance.criterion_4_funceq, limit=10.0)
    assert len(reports) == 18


def test_criterion_05_cusp_squaring():
    _run("5 cusp squaring", acceptance.criterion_5_cusp_squaring)


def test_criterion_06_skew_cauchy():
    _run("6 bounded skew-Cauchy", acceptance.criterion_6_skew_cauchy)


def test_criterion_07_hall():
    _run("7 Hall consistency", acceptance.criterion_7_hall, limit=60.0)


def _pair_packed_off_by(monkeypatch, exponent):
    """Make the packed g^[2,1]_{[1],[1,1]} read q^exponent too high, for the
    scans of criterion 7, which read the packed expansion of each pair."""
    hall = acceptance.hall_mod
    real = hall._pair_packed

    def pair_packed(mu, nu, w):
        value = real(mu, nu, w)
        if (mu, nu) == ((1,), (1, 1)):
            value = dict(value)
            hall._add_into(value, (2, 1), (1, exponent, 1), w)
        return value

    monkeypatch.setattr(hall, "_pair_packed", pair_packed)


def test_criterion_07_names_first_mismatch(monkeypatch):
    _pair_packed_off_by(monkeypatch, 0)
    reports = {r.name: r for r in acceptance.criterion_7_hall(with_oracle=False)}
    assert reports["hall-box-vs-skew"].status == "pass"
    assert reports["hall-completeness"].detail == str(("[2,1]", "[1]"))
    # the symmetry scan meets the wrong value as g^[2,1]_{[1],[1,1]} and again,
    # later, as the mirror of g^[2,1]_{[1,1],[1]}; the report names the first
    assert reports["hall-symmetry"].status == "fail"
    assert reports["hall-symmetry"].detail == str(("[2,1]", "[1]", "[1,1]"))


def test_criterion_07_widens_its_lanes(lane_widths, monkeypatch):
    # 8-bit lanes overflow: criterion 7 passes at the widened lanes, and a
    # fault is still named there
    assert all(r.passed for r in acceptance.criterion_7_hall(with_oracle=False))
    assert max(lane_widths) > 8
    lane_widths.clear()
    _pair_packed_off_by(monkeypatch, 2)
    reports = {r.name: r for r in acceptance.criterion_7_hall(with_oracle=False)}
    assert min(lane_widths) == 8 and max(lane_widths) > 8
    assert reports["hall-completeness"].detail == str(("[2,1]", "[1]"))
    assert reports["hall-completeness"].discrepancy == (2, 0)
    assert reports["hall-symmetry"].detail == str(("[2,1]", "[1]", "[1,1]"))
    assert reports["hall-symmetry"].discrepancy == (2, 0)


def test_criterion_07_locates_first_mismatch(monkeypatch):
    # each polynomial scan names the first exponent pair where its two sides differ
    hall = acceptance.hall_mod
    real_box = hall._box_packed

    def box_packed(m, d, mu, w):
        value = real_box(m, d, mu, w)
        if (m, d, mu.parts) == (2, 2, (2, 1)):
            sums = {0: value}
            hall._add_into(sums, 0, (1, 1, 1), w)
            value = sums[0]
        return value

    monkeypatch.setattr(hall, "_box_packed", box_packed)
    _pair_packed_off_by(monkeypatch, 2)
    reports = {r.name: r for r in acceptance.criterion_7_hall(with_oracle=False)}
    assert reports["hall-box-vs-skew"].detail == str((2, 2, "[2,1]"))
    assert reports["hall-box-vs-skew"].discrepancy == (1, 0)
    assert reports["hall-completeness"].discrepancy == (2, 0)
    assert reports["hall-symmetry"].discrepancy == (2, 0)


def test_criteria_08_09_name_first_wrong_degree(monkeypatch):
    # censuses that agree with the formula except at one t-degree; the failing
    # report names that degree k as (0, k), the others still pass
    def quot_coeffs_oracle(kind, m, d, p, N, module, budget):
        got = [int(c.eval_int(p)) for c in acceptance.cl_mod.z_series(kind, m, d, N + 1, module)]
        if (kind, m, d, module) == ("node", 2, 1, "normalization"):
            got[2] += 1
        return got

    def solomon_census(d, p, N, budget):
        want = [int(c.eval_int(p)) for c in acceptance.qz.full_z(acceptance.ONE, 1, d, N + 1)]
        if (d, p) == (2, 3):
            want[3] -= 1
        return SubmoduleCensus({(k, 0): c for k, c in enumerate(want)})

    monkeypatch.setattr(acceptance.oracle_mod, "quot_coeffs_oracle", quot_coeffs_oracle)
    monkeypatch.setattr(acceptance.oracle_mod, "solomon_census", solomon_census)
    for reports, size, wrong, k in (
            (acceptance.criterion_8_oracle_vs_formula(), 16,
             {"family": "node", "m": "2", "d": "1", "module": "normalization", "p": "2"}, 2),
            (acceptance.criterion_9_solomon(), 4, {"d": "2", "p": "3", "N": "4"}, 3)):
        failing = [r for r in reports if r.status == "fail"]
        assert len(reports) == size and len(failing) == 1
        assert failing[0].to_json_obj()["params"] == wrong
        assert failing[0].discrepancy == (0, k)
        assert "first-discrepancy=(0, %d)" % k in str(failing[0])


def test_criterion_08_oracle_vs_formula():
    _run("8 oracle vs formula", acceptance.criterion_8_oracle_vs_formula, limit=300.0)


def test_criterion_09_solomon():
    _run("9 Solomon", acceptance.criterion_9_solomon)


def test_exact_values_print_without_fractions():
    # criteria 9 and 13 print their exact values as fractions.Fraction does,
    # though neither imports it
    solomon = acceptance.criterion_9_solomon()[3]
    assert (solomon.lhs, solomon.rhs) == (
        "[1, 4, 13, 40, 121]",
        "[Fraction(1, 1), Fraction(4, 1), Fraction(13, 1), Fraction(40, 1), Fraction(121, 1)]")
    texts = [(r.lhs, r.rhs, r.detail) for r in acceptance.criterion_13_coh_quot()]
    assert texts == [
        ("1", "[Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)]", "values 1, 1, 1"),
        ("3/2", "[Fraction(3, 2), Fraction(3, 2), Fraction(3, 2)]", "values 3/2, 3/2, 3/2"),
        ("1/6", "[Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)]", "values 1/6, 1/6, 1/6")]
    # and neither does the package's start-up, or exact evaluation at an integer
    code = ("import sys, singzeta.cli; from singzeta import acceptance, clzeta; "
            "acceptance.criterion_9_solomon(); acceptance.criterion_13_coh_quot(); "
            "assert clzeta.matrix_count_formula(2).eval_int(3) == 105; "
            "print('fractions' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(acceptance.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


def test_criterion_10_matrix_counts():
    _run("10 matrix counts", acceptance.criterion_10_matrix_counts, limit=300.0)


def test_criterion_11_limit():
    _run("11 rank limit", acceptance.criterion_11_limit)


def test_criterion_12_conversion():
    _run("12 conversion identities", acceptance.criterion_12_conversion)


def test_criterion_13_coh_quot():
    _run("13 Coh/Quot invariance", acceptance.criterion_13_coh_quot)


def test_criterion_14_special_values():
    reports = _run("14 special values", acceptance.criterion_14_special_values)
    statuses = {(r.name, str(r.params.get("m"))): r.status for r in reports}
    # conjecture-level entries stay 'reported'
    assert statuses[("special-node-minus1", "2")] == "reported"
    assert statuses[("special-node-minus1", "3")] == "reported"
    assert statuses[("special-node-minus1", "1")] == "pass"


def test_criterion_15_node22():
    _run("15 (2,2)-link closed forms", acceptance.criterion_15_node22)


def test_criterion_16_specializations():
    _run("16 specializations", acceptance.criterion_16_specializations)
