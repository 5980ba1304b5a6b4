"""Packed exponent keys: the variable registry, the key layout, and the
slice helpers that add packed keys.

**Representation.**  A series keeps its terms grouped by weighted degree
into *slices*, ``degree -> {key: coefficient}``.  A key is the exponent
vector ``e`` of length ``n`` packed into one Python int (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007)::

    key(e) = e_0 * B**(n-1) + ... + e_{n-1},    B = 2**16

Each exponent is a balanced base-``B`` digit, ``|e_i| < 2**15``; a term's
degree lives in its slice alone, not in its key.  Packing is linear, so
the key of a product term is ``key_a + key_b``, and integer order on keys
is lexicographic order on exponent tuples, so listing the slices in
ascending degree and sorting each one's keys lists the terms canonically:
by degree, then lexicographically.
Exponent tuples appear at the public boundary (the constructor,
``terms``, ``sorted_terms``, ``coefficient``, the ``shift_monomial`` delta
and substitution images) and where a key's digits are needed one by one:
``substitute_monomials`` unpacks every source key, the unit operations'
``_unit_form`` the lead key, ``_bound`` every key it bounds, and
``first_difference`` the one key it reports.  A term's degree is
computed once, when the public constructor files it into its slice; every
operation after that reads it off the slice.  Operations build their
results slice by slice and hand them to a trusted internal constructor
that neither re-checks nor re-normalizes them.  The public constructor
and the other public entry points (``monomial``, ``coefficient``,
``shift_monomial``, ``truncate``, ``VariableRegistry``, substitution
images, and the scale of ``*``) refuse any coefficient, exponent, weight
or order that is not an ``int`` with TypeError.  Every exponent vector
that they and ``VariableRegistry.degree`` take passes one check, the
registry's ``_checked``: it refuses a wrong length with ValueError and a
non-``int`` entry with TypeError, and returns the vector with its weighted
degree.

**Digits.**  Only this module reads a key's digits.  Adding the
registry's ``_offset``, ``2**15`` in every digit, turns each balanced digit
``e`` into the plain digit ``e + 2**15``, between 1 and ``2**16 - 1``, so no
digit borrows from its neighbour.  ``_unpack`` flips bit 15 of each plain
digit back and reads it as a signed short, and ``_any_negative`` finds
``e < 0`` as a clear bit 15.  ``_orbit_slices``, the kernel of the
series' ``_orbit_sum``, rotates a block of variables ``x_v -> x_{v+1}``
within each key by masks and shifts: each plain digit of the block moves
one place toward the block's last variable, and the last one's wraps round
to the first place.  It adds the offset once per key, keeps it across the
rotations and takes it off only to tally each image, so it rotates any
exponent and builds no image as a series of its own.

**Overflow.**  A digit that reached ``2**15`` in absolute value would carry
into its neighbour and silently change the monomial, so it is refused with
ValueError before it can form.  Every series carries ``_emax``, an upper
bound on ``|e_i|`` over its stored terms: exact from the constructor, the
sum of the operands' bounds for a product, the bound plus ``max|delta|``
for a shift, the bound times the images' spread for a substitution, and
the bound itself for an orbit sum.
Where such a bound reaches ``2**15`` the operands' exact bounds are read
off their keys before the operation is refused.  The unit operations
of :mod:`bananagv.series` move their input onto its normal form with
``shift_monomial``, so that shift is guarded like any other: the input's
bound plus the lead term's largest ``|exponent|`` must stay below
``2**15``, even where every shifted exponent would fit.  Their recurrences
then track a bound per slice and check every pair of slices before they
multiply it.
The bounds ignore truncation, so the guard may refuse a product whose
large exponents would all have landed beyond its order.
"""
from __future__ import annotations

import struct
from itertools import chain
from operator import mul
from typing import Iterable

# An exponent vector is a plain tuple of ints, one entry per registry
# variable, in registry order.
ExponentVector = tuple

# One homogeneous slice of a series: packed key -> coefficient for the terms
# of a single weighted degree.
Slice = dict

_DIGIT_BITS = 16
# every stored exponent has |e| < _EXP_LIMIT, one balanced digit
_EXP_LIMIT = 1 << (_DIGIT_BITS - 1)


def grlex_key(exps: ExponentVector):
    """Graded-lex sort key: raw total degree first, then the tuple itself.

    On a registry of unit weights, such as every table ``compute`` writes,
    this is the canonical term order that ``sorted_terms`` lists and
    ``first_difference`` reports by.
    """
    return (sum(exps), exps)


def _as_int(x, what: str) -> int:
    """``x`` itself if it is an ``int``; TypeError for anything else.

    Public entry points pass every coefficient, exponent, weight and order
    through here, so a float, Fraction or bool is refused instead of being
    truncated, zeroed or merged onto another term.
    """
    if type(x) is int:
        return x
    raise TypeError(f"{what} must be an int, not {type(x).__name__} {x!r}")


def _as_order(N) -> int:
    """``N`` itself if it is a nonnegative ``int``: the one check of every
    order a caller passes to a builder, so that a float or bool is refused
    as passed, before any arithmetic on it."""
    if _as_int(N, "order") < 0:
        raise ValueError("order must be nonnegative")
    return N


def _check_exponent_bound(bound: int) -> None:
    if bound >= _EXP_LIMIT:
        raise ValueError(
            f"an exponent of absolute value up to {bound} could form; "
            f"packed monomial keys hold |exponent| < {_EXP_LIMIT}"
        )


class VariableRegistry:
    """An ordered set of variable names with integer grading weights.

    Two series interoperate only if they share an equal registry.  Weights
    default to 1 for every variable; a weight of 0 marks a variable that does
    not contribute to the truncation degree (used for the elliptic variable
    of a Jacobi form, where the q-order alone bounds the truncation).
    Registries are immutable, compare and hash by ``(names, weights)``.
    """

    # a slots class, not a tuple, so that its key methods read the
    # packed-key layout (``_offset``, ``_struct``) by a plain slot read
    __slots__ = ("names", "weights", "_offset", "_struct")

    def __init__(self, names: Iterable[str], weights: Iterable[int] | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("registry variable names must be distinct")
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(_as_int(w, "weight") for w in weights)
        if len(weights) != len(names):
            raise ValueError("one weight per variable required")
        if any(w < 0 for w in weights):
            raise ValueError("grading weights must be nonnegative")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)
        n = len(names)
        object.__setattr__(self, "_offset", sum(_EXP_LIMIT << (_DIGIT_BITS * i) for i in range(n)))
        object.__setattr__(self, "_struct", struct.Struct(">" + "h" * n))

    def __setattr__(self, name, value):
        raise AttributeError("VariableRegistry is immutable")

    def __eq__(self, other):
        if other.__class__ is not VariableRegistry:
            return NotImplemented
        return self is other or (self.names == other.names and self.weights == other.weights)

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self) -> str:
        return f"VariableRegistry(names={self.names!r}, weights={self.weights!r})"

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def degree(self, exps: ExponentVector) -> int:
        return self._checked(exps)[1]

    def _checked(self, exps) -> tuple[ExponentVector, int]:
        """``exps`` as a tuple, with its weighted degree: the one check of
        every exponent vector a caller passes.  ValueError for a wrong
        length, TypeError for an entry that is not an ``int``."""
        exps = tuple(exps)
        if len(exps) != len(self.names):
            raise ValueError("exponent vector has wrong length")
        if not {int}.issuperset(map(type, exps)):
            for e in exps:
                _as_int(e, "exponent")
        return exps, sum(map(mul, self.weights, exps))

    def zero_exps(self) -> ExponentVector:
        return (0,) * len(self.names)

    def exps(self, **assignments: int) -> ExponentVector:
        """Build an exponent vector by variable name, e.g. ``reg.exps(r0=1, s=2)``."""
        vec = [0] * len(self.names)
        for name, e in assignments.items():
            vec[self.index(name)] = _as_int(e, "exponent")
        return tuple(vec)

    def _pack(self, exps: ExponentVector) -> int:
        """Key of an exponent vector whose entries all have ``|e| < 2**15``."""
        key = 0
        for e in exps:
            key = (key << _DIGIT_BITS) + e
        return key

    def _unpack(self, key: int) -> ExponentVector:
        # the offset turns each balanced digit e into the plain digit
        # e + 2**15, and flipping bit 15 back leaves e in 16-bit two's
        # complement, which struct reads as a signed short
        offset = self._offset
        packed = (key + offset) ^ offset
        return self._struct.unpack(packed.to_bytes(self._struct.size, "big"))

    def _bound(self, keys: Iterable[int]) -> int:
        """The largest ``|exponent|`` over the keys (0 for none)."""
        return max(map(abs, chain.from_iterable(map(self._unpack, keys))), default=0)

    def _any_negative(self, keys: Iterable[int]) -> bool:
        """Whether some key has a negative exponent, read without unpacking."""
        # e >= 0 exactly when the plain digit e + 2**15 has bit 15 set
        offset = self._offset
        return any((k + offset) & offset != offset for k in keys)

    def _orbit_slices(self, slices: dict[int, Slice], blocks, count: int) -> dict[int, Slice]:
        """The slices of the sum of the first ``count`` images of
        ``slices`` under the rotation that sends ``x_v -> x_{v+1}`` for
        ``start <= v < stop - 1`` and ``x_{stop-1} -> x_start`` in every
        block ``(start, stop)``, and fixes every other variable.

        Each slice's tally starts from the slice, and each of its keys,
        offset once, has its digits moved ``count - 1`` times, each image
        tallied.  ValueError for a block of unequal weights, whose image
        would change a term's degree.
        """
        moves = []
        for start, stop in blocks:
            if len(set(self.weights[start:stop])) > 1:
                raise ValueError("a rotated block needs variables of equal weight")
            if stop - start > 1:
                # x_v's digit sits at bit DIGIT_BITS * (n - 1 - v)
                low = _DIGIT_BITS * (self.size - stop)
                span = _DIGIT_BITS * (stop - start - 1)
                last = ((1 << _DIGIT_BITS) - 1) << low
                rest = ((1 << span) - 1) << low
                moves.append((~(last | rest << _DIGIT_BITS), last, span, rest))
        offset = self._offset
        acc: dict[int, Slice] = {}
        for d, s in slices.items():
            tally = acc[d] = dict(s)
            get = tally.get
            coeffs = list(s.values())
            plain = [k + offset for k in s]
            for _ in range(count - 1):
                for keep, last, span, rest in moves:
                    plain = [p & keep | (p & last) << span | (p >> _DIGIT_BITS) & rest for p in plain]
                for p, c in zip(plain, coeffs):
                    k = p - offset
                    tally[k] = get(k, 0) + c
        return _nonzero_slices(acc)


def _exps_max(exps: ExponentVector) -> int:
    return max(map(abs, exps), default=0)


# -- homogeneous-slice helpers (packed-key dicts, no truncation data) --------


def _add_product(acc: Slice, a, b: list, scale: int) -> None:
    """``acc += scale * a * b`` in place for slices given as item pairs,
    ``b`` listed; cancelled terms stay as zeros."""
    get = acc.get
    for ka, ca in a:
        ca *= scale
        for kb, cb in b:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def _add_square(acc: Slice, a: list, scale: int) -> None:
    """``acc += scale * a * a`` in place for ``a`` listed, forming each
    unordered pair once."""
    get = acc.get
    for i, (ka, ca) in enumerate(a):
        k = ka + ka
        acc[k] = get(k, 0) + scale * ca * ca
        ca *= 2 * scale
        for kb, cb in a[i + 1 :]:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def _nonzero_slices(slices: dict[int, Slice]) -> dict[int, Slice]:
    """Delete zero coefficients, then empty slices, in place; returns
    ``slices``.  Callers pass fresh accumulators that nothing else holds."""
    for d, s in list(slices.items()):
        for e in [e for e, c in s.items() if not c]:
            del s[e]
        if not s:
            del slices[d]
    return slices
