"""Print small genus-0 invariant tables for the shapes with closed forms,
``1xW`` and ``2x2``, the shapes the CLI offers.

Every class carries B-degree 1; rows list the A- and C-multidegrees in
graded-lex order with the invariant value.
"""
from bananagv import parse_shape
from bananagv.gvpf import pf_for_shape


def show(shape_text, w=None, order=4):
    shape = parse_shape(shape_text, w)
    pf = pf_for_shape(shape, order)
    names = pf.registry.names
    print(f"shape {shape}, classes up to total degree {order}")
    print("  " + "  ".join(f"{n:>3}" for n in names) + "   n^0")
    for exps, value in pf.sorted_terms():
        print("  " + "  ".join(f"{e:>3}" for e in exps) + f"  {value:>4}")
    print()


if __name__ == "__main__":
    show("1xW", w=1)
    show("1xW", w=2, order=3)
    show("2x2", order=3)
