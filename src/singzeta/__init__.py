"""Exact Quot-scheme and Cohen-Lenstra zeta functions of y^2 = x^n curve germs."""

from .laurent import LaurentPoly2, ZERO, ONE, Q, T, qpochhammer, qbinomial
from .partitions import Partition, iterate_box, partitions_of
from .hall import hall_skew, hall_box, hall_general, surjection_count
from .series import TruncSeries2
from .quotzeta import (SingularityFamily, nz, nz_cusp_free, nz_cusp_normalization,
                       nz_node_free, nz_node_normalization, full_z, funceq_check,
                       specialize, skew_cauchy_bounded_check, cusp_t2_check,
                       node22_closed_form, node22_check, m_limit_check,
                       positivity_scan, specialization_report)
from .clzeta import (ClSeries, cl_series, convert_rank, limit_check, matrix_count_formula,
                     special_values, z_series, andrews_gordon_product, node_minus1_product,
                     scaled_z_trunc)
from .oracle import (FqModulePresentation, SubmoduleCensus, build_local_model,
                     enumerate_submodules, quot_coeffs_oracle, solomon_census,
                     matrix_pair_count, coh_quot_invariance_check,
                     dvr_type_cotype_census, hall_count_oracle, surjective_homs_count)
from .report import VerificationReport, BudgetExceededError
