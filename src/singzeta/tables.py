"""Golden data for the three published tables of node-family zeta values.

The coefficients below are hand-transcribed; the canonical text for a table
entry is produced by the grouped renderer (terms grouped by ascending t-degree,
q ascending inside a group, a single minus factored out when the lowest term of
a group is negative).  Table 3 lists truncated power-series coefficients and is
compared only up to the last printed power of each entry; the trailing dots are
never extrapolated.

Tables 1 and 2 give NZ for the free module and for the normalization module at
m = 1 and m = 2; Table 3 gives the Cohen-Lenstra numerator for m = 1, 2, 3.
"""

from .clzeta import cl_numerator
from .laurent import LaurentPoly2
from .quotzeta import nz_node_free, nz_node_normalization
from .series import TruncSeries2


def _poly(cols):
    """Build a LaurentPoly2 from {t_degree: [(q_exp, coeff), ...]}."""
    return LaurentPoly2({(a, b): c for b, col in cols.items() for a, c in col})


# NZ_{R^d}(t), node m=1 (free module column)
TABLE1_FREE = {
    1: _poly({0: [(0, 1)], 1: [(0, -1)], 2: [(1, 1)]}),
    2: _poly({0: [(0, 1)],
              1: [(0, -1), (1, -1)],
              2: [(1, 1), (2, 1), (3, 1)],
              3: [(2, -1), (3, -1)],
              4: [(4, 1)]}),
    3: _poly({0: [(0, 1)],
              1: [(0, -1), (1, -1), (2, -1)],
              2: [(1, 1), (2, 1), (3, 2), (4, 1), (5, 1)],
              3: [(3, -2), (4, -2), (5, -2), (6, -1)],
              4: [(4, 1), (5, 1), (6, 2), (7, 1), (8, 1)],
              5: [(6, -1), (7, -1), (8, -1)],
              6: [(9, 1)]}),
}

# NZ^R_{Rtilde^d}(t), node m=1 (normalization column)
TABLE1_NORM = {
    1: _poly({0: [(0, 1)], 1: [(0, -1), (1, 1)]}),
    2: _poly({0: [(0, 1)],
              1: [(0, -1), (1, -1), (2, 1), (3, 1)],
              2: [(1, 1), (2, -1), (3, -1), (4, 1)]}),
    3: _poly({0: [(0, 1)],
              1: [(0, -1), (1, -1), (2, -1), (3, 1), (4, 1), (5, 1)],
              2: [(1, 1), (2, 1), (4, -2), (5, -2), (7, 1), (8, 1)],
              3: [(3, -1), (4, 1), (5, 1), (7, -1), (8, -1), (9, 1)]}),
}

# NZ_{R^d}(t), node m=2
TABLE2_FREE = {
    1: _poly({0: [(0, 1)], 1: [(0, -1)], 2: [(1, 1)], 3: [(1, -1)], 4: [(2, 1)]}),
    2: _poly({0: [(0, 1)],
              1: [(0, -1), (1, -1)],
              2: [(1, 1), (2, 1), (3, 1)],
              3: [(2, -1), (3, -2), (4, -1)],
              4: [(3, 1), (4, 2), (5, 1), (6, 1)],
              5: [(4, -1), (5, -2), (6, -1)],
              6: [(5, 1), (6, 1), (7, 1)],
              7: [(6, -1), (7, -1)],
              8: [(8, 1)]}),
    3: _poly({0: [(0, 1)],
              1: [(0, -1), (1, -1), (2, -1)],
              2: [(1, 1), (2, 1), (3, 2), (4, 1), (5, 1)],
              3: [(3, -2), (4, -2), (5, -3), (6, -2), (7, -1)],
              4: [(4, 1), (5, 2), (6, 4), (7, 3), (8, 3), (9, 1), (10, 1)],
              5: [(6, -2), (7, -3), (8, -5), (9, -4), (10, -3), (11, -1)],
              6: [(7, 1), (8, 2), (9, 5), (10, 4), (11, 4), (12, 2), (13, 1)],
              7: [(9, -2), (10, -3), (11, -5), (12, -4), (13, -3), (14, -1)],
              8: [(10, 1), (11, 2), (12, 4), (13, 3), (14, 3), (15, 1), (16, 1)],
              9: [(12, -2), (13, -2), (14, -3), (15, -2), (16, -1)],
              10: [(13, 1), (14, 1), (15, 2), (16, 1), (17, 1)],
              11: [(15, -1), (16, -1), (17, -1)],
              12: [(18, 1)]}),
}

# NZ^R_{Rtilde^d}(t), node m=2
TABLE2_NORM = {
    1: _poly({0: [(0, 1)], 1: [(0, -1), (1, 1)], 2: [(1, -1), (2, 1)]}),
    2: _poly({0: [(0, 1)],
              1: [(0, -1), (1, -1), (2, 1), (3, 1)],
              2: [(1, 1), (2, -1), (3, -2), (5, 1), (6, 1)],
              3: [(3, 1), (5, -2), (7, 1)],
              4: [(5, 1), (6, -1), (7, -1), (8, 1)]}),
    3: _poly({0: [(0, 1)],
              1: [(0, -1), (1, -1), (2, -1), (3, 1), (4, 1), (5, 1)],
              2: [(1, 1), (2, 1), (4, -2), (5, -3), (6, -1), (8, 2), (9, 1), (10, 1)],
              3: [(3, -1), (4, 1), (5, 2), (6, 2), (8, -3), (9, -3), (10, -2),
                  (11, 1), (12, 2), (13, 1)],
              4: [(6, -1), (8, 1), (9, 3), (10, 1), (11, -2), (12, -3), (13, -2),
                  (14, 1), (15, 1), (16, 1)],
              5: [(9, -1), (11, 1), (12, 2), (14, -2), (15, -1), (17, 1)],
              6: [(12, -1), (13, 1), (14, 1), (16, -1), (17, -1), (18, 1)]}),
}

# Cohen-Lenstra numerator for the node family: explicitly printed coefficients
# of Table 3, as {t_degree: (sign, [coeff of u^k from the first printed power])}
# encoded as {t_degree: [(u_exp, coeff), ...]}; only these are compared.
TABLE3 = {
    1: {0: [(0, 1)],
        1: [(1, -1), (2, -1), (3, -1), (4, -1), (5, -1)],
        2: [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4), (8, 4)],
        3: [(3, -1), (4, -2), (5, -3), (6, -5), (7, -6), (8, -8), (9, -10), (10, -12)],
        4: [(4, 1), (5, 1), (6, 3), (7, 4), (8, 7), (9, 9), (10, 14), (11, 17)],
        5: [(7, -1), (8, -2), (9, -4), (10, -7), (11, -11), (12, -16), (13, -23), (14, -31)]},
    2: {0: [(0, 1)],
        1: [(1, -1), (2, -1), (3, -1), (4, -1), (5, -1)],
        2: [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4), (8, 4)],
        3: [(2, -1), (3, -2), (4, -3), (5, -4), (6, -6), (7, -7), (8, -9), (9, -11)],
        4: [(2, 1), (3, 1), (4, 3), (5, 4), (6, 7), (7, 9), (8, 13), (9, 16)],
        5: [(4, -1), (5, -3), (6, -5), (7, -9), (8, -13), (9, -19), (10, -26), (11, -35)]},
    3: {0: [(0, 1)],
        1: [(1, -1), (2, -1), (3, -1), (4, -1), (5, -1)],
        2: [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4), (8, 4)],
        3: [(2, -1), (3, -2), (4, -3), (5, -4), (6, -6), (7, -7), (8, -9), (9, -11)],
        4: [(2, 1), (3, 1), (4, 3), (5, 4), (6, 7), (7, 9), (8, 13), (9, 16)],
        5: [(3, -1), (4, -2), (5, -4), (6, -6), (7, -10), (8, -14), (9, -20), (10, -27)]},
}

TABLE3_T_PREC = 6


def table3_entry_bounds(m):
    """Last printed u-power per t-degree for row m."""
    return {j: max(a for a, _ in col) for j, col in TABLE3[m].items()}


def table_rows(which, computed=False):
    """The rows of table 1, 2 or 3, from the golden data or the closed forms.

    Tables 1 and 2 (node m = which) have a row {"d", "free", "normalization"}
    per d with the two NZ numerators; table 3 a row {"m", "numerator"} per m
    with the CL numerator cut to the printed coefficients.
    """
    if which in (1, 2):
        free, norm = (TABLE1_FREE, TABLE1_NORM) if which == 1 else (TABLE2_FREE, TABLE2_NORM)
        if computed:
            free = {d: nz_node_free(which, d) for d in free}
            norm = {d: nz_node_normalization(which, d) for d in norm}
        return [{"d": d, "free": free[d], "normalization": norm[d]} for d in sorted(free)]
    if which != 3:
        raise ValueError("tables are 1, 2, 3")
    rows = []
    for m, printed in sorted(TABLE3.items()):
        bounds = table3_entry_bounds(m)
        u_prec = max(bounds.values()) + 1
        coeffs = {(a, j): c for j, col in printed.items() for a, c in col}
        if computed:
            coeffs = {(i, j): c for (i, j), c in
                      cl_numerator("node", m, u_prec, TABLE3_T_PREC).coeffs.items()
                      if j in bounds and i <= bounds[j]}
        rows.append({"m": m, "numerator": TruncSeries2(u_prec, TABLE3_T_PREC, coeffs)})
    return rows


def table_text(which, computed=False):
    """Canonical text of a table: a line per column of a table 1 or 2 row, a
    line per table 3 row."""
    lines = []
    for row in table_rows(which, computed):
        if which == 3:
            lines.append("m=%d: %s" % (row["m"], row["numerator"]))
        else:
            lines.extend("d=%d %s: %s" % (row["d"], column, row[column].grouped_str())
                         for column in ("free", "normalization"))
    return "\n".join(lines)


def table_json_obj(which):
    """The computed table as JSON data: its number and its rows, each value
    as LaurentPoly2 or TruncSeries2 JSON.  The rows are the ones table_text
    renders."""
    rows = [{key: value if isinstance(value, int) else value.to_json_obj()
             for key, value in row.items()} for row in table_rows(which, computed=True)]
    return {"table": which, "rows": rows}
