"""Cohen-Lenstra series, the rank -> infinity limit, and Rogers-Ramanujan.

The CL series of a germ weights every finite-length module by 1/#Aut.  It is
the limit of rescaled Quot zeta functions Z_{R^d}(u^d t) as the rank grows
(u = 1/q), and its values at t = +-1 produce Andrews-Gordon / Rogers-Ramanujan
style q-series identities.
"""

from singzeta import (cl_series, limit_check, scaled_z_trunc,
                      special_values, andrews_gordon_product,
                      matrix_count_formula, matrix_pair_count)

print("CL numerator for the node y^2 = x^2 (window u^9, t^5):")
print(" ", cl_series("node", 1, 9, 5).numerator)

print("\nRescaled Quot zeta functions converging to it (full series):")
for d in (2, 3, 4):
    print("  d=%d:" % d, scaled_z_trunc("node", 1, d, 5, 3))
print("  CL:  ", cl_series("node", 1, 5, 3).full)
print(" ", limit_check("node", 1, [4, 5], 5, 3))

print("\nCusp special value = Andrews-Gordon product (m=1 is Rogers-Ramanujan):")
print("  product:", andrews_gordon_product(1, 12))
for r in special_values("cusp", 1, 12):
    print(" ", r)

print("\nNode special values (t=1 collapses to 1; t=-1 is an eta-quotient):")
for r in special_values("node", 1, 12):
    print(" ", r)

print("\nMatrix equation count #{AB=BA, A^2=B^3} over F_q:")
print("  formula n=2:", matrix_count_formula(2))
for p in (2, 3):
    print("  brute force n=2, p=%d:" % p, matrix_pair_count(2, p),
          " formula:", matrix_count_formula(2).eval_int(p))
