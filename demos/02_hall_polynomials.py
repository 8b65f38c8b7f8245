"""Hall polynomials three ways: closed form, general algorithm, counting.

g^lambda_{mu nu}(q) counts submodules of type mu and cotype nu inside a finite
module of type lambda over a DVR with residue field F_q.  The nu-summed
g^lambda_mu has a product formula; the general three-index polynomial is
computed by the vertical-strip Pieri rule in the Hall algebra; and small
cases can be counted outright over F_2 and F_3.
"""

from singzeta import (Partition, hall_skew, hall_box, hall_general,
                      hall_count_oracle, surjection_count, iterate_box)

lam, mu = Partition([2, 2, 1]), Partition([2, 1])
print("g^%s_%s(q) =" % (lam, mu), hall_skew(lam, mu))

print("\nBox case: g^{(m^d)}_mu does not depend on m once m >= mu_1:")
for m in (1, 2, 5):
    print("  m=%d, d=3, mu=[1]:" % m, hall_box(m, 3, Partition([1])))

print("\nAll submodule counts of the module of type (2,1) over F_3:")
n = lam.size()
for a in range(4):
    from singzeta.partitions import partitions_of
    for mu2 in partitions_of(a):
        for nu2 in partitions_of(3 - a):
            g = hall_general(Partition([2, 1]), mu2, nu2)
            if g:
                count = hall_count_oracle(Partition([2, 1]), mu2, nu2, 3)
                print("  mu=%s nu=%s: %s  -> %s at q=3 (census: %d)"
                      % (mu2, nu2, g, g.eval_int(3), count))

print("\nSurjections R^d ->> M (Nakayama):")
for d in (1, 2, 3):
    print("  d=%d, M of type [2,1]:" % d, surjection_count(d, Partition([2, 1])))

print("\nThe number of ALL submodules of (F_q[T]/T^m)^d is the box sum at t=1:")
total = hall_box(2, 2, Partition()) * 0
for p in iterate_box(2, 2):
    total = total + hall_box(2, 2, p)
print("  sum of g^{(2^2)}_mu over the box:", total)
