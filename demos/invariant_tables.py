"""Print small genus-0 invariant tables for the shapes with closed forms,
``1xW`` and ``2x2``, the shapes the CLI offers.

Every class carries B-degree 1; rows list the A- and C-multidegrees in
graded-lex order with the invariant value.
"""
from bananagv import gv_table, parse_shape
from bananagv.geometry import registry_for


def show(shape_text, w=None, order=4):
    shape = parse_shape(shape_text, w)
    table = gv_table(shape, order)
    names = registry_for(shape).names
    print(f"shape {shape}, classes up to total degree {order}")
    print("  " + "  ".join(f"{n:>3}" for n in names) + "   n^0")
    for exps, value in table.entries:
        print("  " + "  ".join(f"{e:>3}" for e in exps) + f"  {value:>4}")
    print()


if __name__ == "__main__":
    show("1xW", w=1)
    show("1xW", w=2, order=3)
    show("2x2", order=3)
