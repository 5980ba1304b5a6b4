"""Compute the same invariants two independent ways and compare.

Route one enumerates the constrained thickening profiles once for the
period that every branch shares, folds them through each branch's labels,
multiplies the branch series and applies the sign twist; route two expands
the closed-form product.  The demo walks through the ingredients on the
two-cell shape 1x2.
"""
from bananagv import cross_check, naive_pf, behrend_twist, parse_shape
from bananagv.gvpf import pf_for_shape
from bananagv.oracle import admissible_profiles
from bananagv.geometry import branch_specs

ORDER = 5
shape = parse_shape("1xW", w=2)

print("admissible thickening profiles by total size:")
for n in range(5):
    profiles = list(admissible_profiles(n))
    print(f"  size {n}: {profiles}")

print("\nbranch label sequences at B location 0:")
for spec in branch_specs(shape, 0):
    print(f"  {spec.direction:>2}: {' '.join(spec.labels)} ...")

naive = naive_pf(shape, ORDER)
signed = behrend_twist(naive)
closed = pf_for_shape(shape, ORDER)

print(f"\nlow-degree terms of the three series (shape {shape}):")
print(f"  {'exponents':>12}  {'count':>6}  {'signed':>6}  {'closed':>6}")
for exps, value in closed.sorted_terms():
    if sum(exps) > 2:
        break
    print(
        f"  {str(exps):>12}  {naive.coefficient(exps):>6}"
        f"  {signed.coefficient(exps):>6}  {value:>6}"
    )

report = cross_check(shape, ORDER)
print(f"\n{report.describe()}")
