"""Reference model of thickening profiles on plain tuples.

The package walks the admissible profiles straight from the local pairwise
rule (:mod:`bananagv.oracle`).  These helpers generate every partition,
state admissibility the other way, through the conjugate partition, count
the profiles by filtering, and read a profile's weight off the branch
labels one edge at a time, so the tests can check the walk and the naive
count against them.  A profile is a weakly decreasing tuple of
positive ints; ``parts[j]`` is the multiplicity of the ``(j+1)``-th edge
from the B edge.  The module is a helper, not a test module, so pytest does
not collect it.
"""
from functools import lru_cache


def partitions(n, max_part=None):
    """All weakly decreasing positive tuples summing to n, in descending
    lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(parts):
    """The conjugate partition: its ``v``-th entry counts the parts >= v."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= v) for v in range(1, parts[0] + 1))


def is_admissible(parts):
    """The conjugate partition has all odd parts distinct."""
    odd = [v for v in conjugate(parts) if v % 2]
    return len(odd) == len(set(odd))


@lru_cache(maxsize=None)
def count_distinct_odd_conjugate(n):
    """Number of partitions of n whose odd parts are distinct (equal, by
    conjugation, to the number whose conjugate has distinct odd parts)."""
    count = 0
    for p in partitions(n):
        odd = [x for x in p if x % 2]
        if len(odd) == len(set(odd)):
            count += 1
    return count


def satisfies_pairwise_rule(parts):
    """The local form of admissibility: each part at an even index exceeds
    its successor by at most 1 (successor 0 past the end)."""
    padded = parts + (0,)
    return all(padded[i] - padded[i + 1] <= 1 for i in range(0, len(parts), 2))


def weight_exponents(parts, spec, registry):
    """Exponent vector of ``prod_j labels[j mod period] ** parts[j]``."""
    vec = [0] * registry.size
    for j, mult in enumerate(parts):
        vec[registry.index(spec.labels[j % spec.period])] += mult
    return tuple(vec)
