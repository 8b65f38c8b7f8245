"""The public names of the package and of its two value types, pinned so that
adding or removing one is a visible edit here."""

import types

import singzeta
from singzeta.laurent import LaurentPoly2
from singzeta.series import TruncSeries2

PUBLIC_NAMES = [
    "BudgetExceededError", "ClSeries", "FqModulePresentation", "LaurentPoly2", "ONE",
    "Partition", "Q", "SingularityFamily", "SubmoduleCensus", "T", "TruncSeries2",
    "VerificationReport", "ZERO", "andrews_gordon_product", "build_local_model",
    "cl_series", "coh_quot_invariance_check", "convert_rank", "cusp_t2_check",
    "dvr_type_cotype_census", "enumerate_submodules", "full_z", "funceq_check",
    "hall_box", "hall_count_oracle", "hall_general", "hall_skew", "iterate_box",
    "limit_check", "m_limit_check", "matrix_count_formula", "matrix_pair_count",
    "node22_check", "node22_closed_form", "node_minus1_product", "nz", "nz_cusp_free",
    "nz_cusp_normalization", "nz_node_free", "nz_node_normalization", "partitions_of",
    "positivity_scan", "qbinomial", "qpochhammer", "quot_coeffs_oracle",
    "scaled_z_trunc", "skew_cauchy_bounded_check", "solomon_census", "special_values",
    "specialization_report", "specialize", "surjection_count", "surjective_homs_count",
    "z_series",
]

# what each class defines itself: its public names and the operators it overloads
CLASS_ATTRIBUTES = {
    LaurentPoly2: [
        "__add__", "__bool__", "__eq__", "__hash__", "__init__", "__mul__", "__neg__",
        "__pow__", "__radd__", "__repr__", "__rmul__", "__rsub__", "__str__", "__sub__",
        "below_t", "const", "eval_int", "grouped_str", "is_polynomial", "is_pure_q",
        "monomial", "sorted_terms", "substitute", "terms", "to_json_obj",
    ],
    TruncSeries2: [
        "__add__", "__bool__", "__eq__", "__init__", "__repr__", "__str__", "agrees_with",
        "coeffs", "from_laurent", "one", "t_coefficient", "t_prec", "times_poch",
        "to_json_obj", "truncate", "u_prec",
    ],
}


def test_public_names_are_pinned():
    # submodules are left out: which of them are bound on the package depends
    # on what else the process has imported
    names = sorted(name for name, value in vars(singzeta).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_value_type_attributes_are_pinned():
    for cls, pinned in CLASS_ATTRIBUTES.items():
        names = sorted(name for name, value in vars(cls).items()
                       if not name.startswith("_") or (name.endswith("__") and callable(value)))
        assert names == pinned, cls.__name__
