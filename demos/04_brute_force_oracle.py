"""The finite-field oracle: counting submodules with no formulas at all.

Every closed form in the package is cross-checked against exhaustive
enumeration of generator-invariant subspaces of finite models (R/m^N)^d over
F_p.  A codim <= N submodule of R^d contains m^N R^d, so the truncation loses
nothing.
"""

from singzeta import (build_local_model, enumerate_submodules,
                      quot_coeffs_oracle, solomon_census, z_series,
                      coh_quot_invariance_check)

model = build_local_model(("node", 1), 1, 3, 2)
print("model of (R/m^3) for the node over F_2: dim", model.dim,
      "generators x, y")
census = enumerate_submodules(model, 3)
print("census by (codim, quotient rank):", dict(sorted(census.counts.items())))

print("\noracle vs closed form, node m=1 d=2, p=2:")
print("  census: ", quot_coeffs_oracle("node", 1, 2, 2, 3))
print("  formula:", [int(c.eval_int(2)) for c in z_series("node", 1, 2, 4)])

print("\nSolomon's formula for (F_3[T]/T^4)^2:")
print("  census: ", solomon_census(2, 3, 4).coefficients(4))

print("\nd-independence of the Coh/Quot ratio (the groupoid count of modules):")
for (n, r) in ((1, 1), (2, 1), (2, 2)):
    print(" ", coh_quot_invariance_check("node", 1, 2, n, r, [r, r + 1, r + 2]))
