"""Expand the equivariant elliptic genus of the plane and look at it.

Prints the first q-slices (rows in y, t) and verifies the closed form of
the q^0 slice: Ell|_{q^0} * (2 - t - 1/t) = y + 1/y - t - 1/t.
"""
from bananagv import elliptic_genus_c2
from bananagv.qseries import QYT
from bananagv.series import TruncatedSeries, polynomial

N = 3  # q-order
ell = elliptic_genus_c2(N)
terms = ell.terms

for a in range(N + 1):
    rows = sorted((e[1], e[2], c) for e, c in terms.items() if e[0] == a)
    if not rows:
        continue
    print(f"q^{a}:")
    for ye, te, c in rows:
        print(f"  y^{ye:<3} t^{te:<3} {c:>5}")

q0 = TruncatedSeries(QYT, {e: c for e, c in terms.items() if e[0] == 0}, ell.order)
denom = polynomial(QYT, {(0, 0, 0): 2, (0, 0, 1): -1, (0, 0, -1): -1}, ell.order)
product = q0 * denom
target = polynomial(
    QYT, {(0, 1, 0): 1, (0, -1, 0): 1, (0, 0, 1): -1, (0, 0, -1): -1}, product.order
)
print(
    "\nq^0 slice times (2 - t - 1/t) equals y + 1/y - t - 1/t:",
    product.same_series(target),
)
