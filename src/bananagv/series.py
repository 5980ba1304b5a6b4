"""Sparse multivariate truncated Laurent series with exact integer coefficients.

A series is a finite set of terms, each an exponent vector with a nonzero
Python int coefficient, together with a truncation bound ``order``: every
monomial whose weighted degree is <= order is stored exactly, and nothing is
claimed beyond that bound.  Each registry variable carries a nonnegative
integer grading weight (default 1), so "degree" always means the weighted
degree ``sum(w_i * e_i)``.  Exponents may be negative (Laurent), weights may
not.

Alongside ``order`` every series tracks ``floor``, a proven lower bound on
the weighted degree of *any* term of the underlying untruncated series.
Because stored terms are complete up to ``order``, the minimum stored degree
(or ``order + 1`` for a series with no stored terms) is such a bound.  The
two numbers drive exact order propagation:

* ``a + b``   -> order ``min(Na, Nb)``
* ``a * b``   -> order ``min(Na + Fb, Nb + Fa)``
* ``a.invert_unit()`` with minimal term of degree ``m``  -> order ``Na - 2m``
* ``a.sqrt_unit()`` with minimal slice at degree ``m``   -> order ``Na - m/2``

With ``width = order - floor`` they make one rule, from which every pad
in the package is read: a nonzero product's width is the smallest width
among its factors, and an inverse, a square root or a monomial shift keeps
the width.

**Representation.**  The terms are kept grouped by weighted degree into
*slices*, ``degree -> {key: coefficient}``.  A key is the exponent vector
``e`` of length ``n`` packed into one Python int (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007)::

    key(e) = e_0 * B**(n-1) + ... + e_{n-1},    B = 2**16

Each exponent is a balanced base-``B`` digit, ``|e_i| < 2**15``; a term's
degree lives in its slice alone, not in its key.  Packing is linear, so
the key of a product term is ``key_a + key_b``, and integer order on keys
is lexicographic order on exponent tuples, so listing the slices in
ascending degree and sorting each one's keys lists the terms canonically:
by degree, then lexicographically.
Exponent tuples appear only at the public boundary: the constructor,
``terms``, ``sorted_terms``, ``coefficient``, the ``shift_monomial`` delta
and substitution images.  A term's degree is computed once, when the public
constructor files it into its slice; every operation after that reads
it off the slice.  Operations build their results slice by slice
and hand them to a trusted internal constructor that neither re-checks nor
re-normalizes them.  The public constructor and the other public entry
points (``monomial``, ``coefficient``, ``shift_monomial``, ``truncate``,
``VariableRegistry``, substitution images, and the scale of ``*``)
refuse any coefficient, exponent, weight or order that is not an ``int``
with TypeError.  Every exponent vector that they and
``VariableRegistry.degree`` take passes one check, the registry's
``_checked``: it refuses a wrong length with ValueError and a non-``int``
entry with TypeError, and returns the vector with its weighted degree.

**Overflow.**  A digit that reached ``2**15`` in absolute value would carry
into its neighbour and silently change the monomial, so it is refused with
ValueError before it can form.  Every series carries ``_emax``, an upper
bound on ``|e_i|`` over its stored terms: exact from the constructor, the
sum of the operands' bounds for a product, the bound plus ``max|delta|``
for a shift, the bound times the images' spread for a substitution, and
the bound itself for an orbit sum.
Where such a bound reaches ``2**15`` the operands' exact bounds are read
off their keys before the operation is refused.  The unit operations
below move their input onto its normal form with ``shift_monomial``, so
that shift is guarded like any other: the input's bound plus the lead
term's largest ``|exponent|`` must stay below ``2**15``, even where every
shifted exponent would fit.  Their recurrences then track a bound per
slice and check every pair of slices before they multiply it.
The bounds ignore truncation, so the guard may refuse a product whose
large exponents would all have landed beyond its order.

**Kernels.**

* ``a * b`` walks pairs of slices in ascending degree and stops each row
  at ``order - deg(a-slice)``, so no product term beyond the result order
  is ever formed, and lists each slice of ``b`` once.  When ``b`` is ``a``
  itself, the walk visits only the pairs with ``deg(b-slice) >=
  deg(a-slice)``: it squares each slice and doubles each pair of distinct
  slices, so it forms each unordered pair of terms once.
* ``invert_unit`` and ``sqrt_unit`` share one normal form.  The unique
  minimal term ``c_0 X^{e_0}`` of ``a`` is shifted to degree 0, ``u =
  X^{-e_0} a = c_0 + u_1 + u_2 + ...`` with ``u_j`` of degree j, and each
  solves a slice recurrence on ``u`` (Brent & Kung, "Fast algorithms for
  manipulating formal power series", J. ACM 1978).  ``invert_unit``
  solves ``u v = 1``: ``v_0 = c_0`` and ``v_j = -c_0 sum_{k=1..j} u_k
  v_{j-k}``, and returns ``X^{-e_0} v``.  ``sqrt_unit`` solves ``r^2 = u``:
  ``r_0`` is the positive root of ``c_0`` and ``r_j = (u_j - sum_{0<i<j}
  r_i r_{j-i}) / (2 r_0)``, each coefficient divided by the integer ``2
  r_0``, and it returns ``X^{e_0/2} r``.
* ``_orbit_sum`` sums the first ``count`` images of a series under a
  cyclic shift ``x_v -> x_{v+1}`` of blocks of equal-weight variables.  It
  tallies each slice once: it moves the plain digits (offset added, as in
  the registry's ``_unpack``) within each key, so it takes any exponent,
  and builds no image as a series of its own.

Both unit operations keep their checks: ``invert_unit`` requires a unique
minimal term with coefficient +-1 and a tail of positive degree;
``sqrt_unit`` requires a unique minimal term with even exponents and a
perfect-square coefficient, refuses a coefficient that ``2 r_0`` does not
divide, and finally compares ``b * b`` with its input to their common
order.

``substitute_monomials`` sends each variable to a target monomial whose
weighted degree is the variable's weight, so every term keeps its degree and
the result is exact to the same order.  Images that change degrees are
refused: a weight-zero variable (the elliptic variable ``p`` of the
q-series) can carry unbounded exponents at a fixed degree, so no order of
the source would bound the order of such an image.  The q-series builders
write their substituted sums straight into the target registry instead.
"""
from __future__ import annotations

import struct
from itertools import chain
from math import isqrt
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping

__all__ = [
    "ExponentVector",
    "VariableRegistry",
    "TruncatedSeries",
    "InvariantError",
    "monomial",
    "polynomial",
    "one",
    "grlex_key",
]

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


def _exact_to(series: "TruncatedSeries", order: int) -> "TruncatedSeries":
    """``series`` truncated to ``order``, which its proven order must reach.
    Builders return through this: a shortfall means a pad broke the width
    rule, a bug that InvariantError reports."""
    if series.order < order:
        raise InvariantError(
            f"order propagation fell short: exact to {series.order}, {order} needed"
        )
    return series.truncate(order)


def _check_exponent_bound(bound: int) -> None:
    if bound >= _EXP_LIMIT:
        raise ValueError(
            f"an exponent of absolute value up to {bound} could form; "
            f"packed monomial keys hold |exponent| < {_EXP_LIMIT}"
        )


class InvariantError(AssertionError):
    """A computed result broke a property the mathematics guarantees (a
    negative count, an exponent outside the proven support, an order
    shortfall, a wrong constant term); this is a bug, not bad input."""


class VariableRegistry:
    """An ordered set of variable names with integer grading weights.

    Two series interoperate only if they share an equal registry.  Weights
    default to 1 for every variable; a weight of 0 marks a variable that does
    not contribute to the truncation degree (used for the elliptic variable
    of a Jacobi form, where the q-order alone bounds the truncation).
    Registries are immutable, compare and hash by ``(names, weights)``.
    """

    # a slots class, not a tuple, so that the kernels read the packed-key
    # layout (``_offset``, ``_struct``) by a plain slot read
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


def _exps_max(exps: ExponentVector) -> int:
    return max(map(abs, exps), default=0)


class TruncatedSeries:
    """Immutable truncated Laurent series over a :class:`VariableRegistry`.

    Construction normalizes the term dict: zero coefficients and terms of
    weighted degree above ``order`` are dropped (the latter lie in the
    unknown region and may not be reported).  Coefficients, exponents and
    the order must be ``int``; a stored exponent must have ``|e| < 2**15``.
    """

    __slots__ = ("registry", "order", "floor", "_slices", "_emax")

    def __init__(self, registry: VariableRegistry, terms: Mapping[ExponentVector, int], order: int):
        order = _as_int(order, "order")
        pack = registry._pack
        checked = registry._checked
        slices: dict[int, Slice] = {}
        emax = 0
        for exps, coeff in terms.items():
            exps, d = checked(exps)
            coeff = _as_int(coeff, "coefficient")
            if coeff == 0:
                continue
            if d <= order:
                big = _exps_max(exps)
                if big > emax:
                    _check_exponent_bound(big)
                    emax = big
                slices.setdefault(d, {})[pack(exps)] = coeff
        self._fill(registry, slices, order, emax)

    @classmethod
    def _from_slices(cls, registry: VariableRegistry, slices: dict[int, Slice], order: int, emax: int):
        """Trusted constructor for kernel results.

        ``slices`` must map degrees <= ``order`` to nonempty dicts of nonzero
        int coefficients whose packed keys have that degree, and ``emax``
        must bound ``|exponent|`` over them.  It is adopted as is: not
        copied, checked or normalized.
        """
        self = object.__new__(cls)
        self._fill(registry, slices, order, emax)
        return self

    def _fill(self, registry: VariableRegistry, slices: dict[int, Slice], order: int, emax: int):
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "floor", min(slices, default=order + 1))
        # slices are shared between series (sums and truncations reuse them)
        # and must never be mutated once adopted
        object.__setattr__(self, "_slices", slices)
        object.__setattr__(self, "_emax", emax)

    def _exact_emax(self) -> int:
        """The largest stored ``|exponent|``, read off the keys; it replaces
        the tracked bound."""
        emax = self.registry._bound(chain.from_iterable(self._slices.values()))
        object.__setattr__(self, "_emax", emax)
        return emax

    @property
    def terms(self) -> dict[ExponentVector, int]:
        """All stored terms as one flat dict, a new one on every call."""
        unpack = self.registry._unpack
        return {unpack(k): c for s in self._slices.values() for k, c in s.items()}

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("TruncatedSeries is immutable")

    # -- queries ---------------------------------------------------------

    def coefficient(self, exps: ExponentVector) -> int:
        """Exact coefficient of the given monomial.

        Raises if the monomial's degree exceeds the guaranteed order: a
        coefficient in the unknown region is not zero, it is unknown.
        """
        exps, d = self.registry._checked(exps)
        if d > self.order:
            raise ValueError(
                f"coefficient at degree {d} is beyond the guaranteed order {self.order}"
            )
        if _exps_max(exps) >= _EXP_LIMIT:
            return 0  # no stored term has such an exponent
        return self._slices.get(d, {}).get(self.registry._pack(exps), 0)

    def constant_term(self) -> int:
        return self.coefficient(self.registry.zero_exps())

    def coefficients(self) -> Iterator[int]:
        """The stored (nonzero) coefficients, read without unpacking keys."""
        return chain.from_iterable(s.values() for s in self._slices.values())

    def has_negative_exponent(self) -> bool:
        """Whether some stored term has a negative exponent."""
        # e >= 0 exactly when the plain digit e + 2**15 has bit 15 set
        offset = self.registry._offset
        return any((k + offset) & offset != offset for s in self._slices.values() for k in s)

    def sorted_terms(self) -> Iterator[tuple[ExponentVector, int]]:
        """Terms in the canonical order, by degree and then
        lexicographically (graded-lex on unit weights): the slices in
        ascending degree, each slice's keys sorted on its own, and each key
        unpacked as it is read."""
        unpack = self.registry._unpack
        return ((unpack(k), s[k]) for _, s in sorted(self._slices.items()) for k in sorted(s))

    def same_series(self, other: "TruncatedSeries", up_to: int | None = None) -> bool:
        """Compare coefficients up to ``up_to`` (default: the common order)."""
        return self.first_difference(other, up_to) is None

    def first_difference(
        self, other: "TruncatedSeries", up_to: int | None = None
    ) -> tuple[ExponentVector, int, int] | None:
        """The first monomial, by degree and then lexicographically, whose
        coefficients differ up to ``up_to`` (default: the common order), as
        ``(exponents, coefficient here, coefficient in other)``; None if
        there is none.  Slices are compared whole, and only the one key
        reported is unpacked.
        """
        self._check_registry(other)
        bound = min(self.order, other.order)
        if up_to is not None:
            if _as_int(up_to, "up_to") > bound:
                raise ValueError("comparison beyond the common guaranteed order")
            bound = up_to
        a, b = self._slices, other._slices
        for d in sorted(a.keys() | b.keys()):
            if d > bound:
                break
            sa, sb = a.get(d, {}), b.get(d, {})
            if sa != sb:
                k = min(k for k in sa.keys() | sb.keys() if sa.get(k, 0) != sb.get(k, 0))
                return self.registry._unpack(k), sa.get(k, 0), sb.get(k, 0)
        return None

    # -- ring structure --------------------------------------------------

    def _check_registry(self, other: "TruncatedSeries"):
        if self.registry != other.registry:
            raise ValueError("cannot combine series over different registries")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_registry(other)
        order = min(self.order, other.order)
        a, b = self._slices, other._slices
        slices: dict[int, Slice] = {}
        for d in a.keys() | b.keys():
            if d > order:
                continue
            sa, sb = a.get(d), b.get(d)
            if sa is None or sb is None:
                slices[d] = sa or sb
                continue
            s = dict(sa)
            for k, c in sb.items():
                v = s.get(k, 0) + c
                if v:
                    s[k] = v
                else:
                    del s[k]
            if s:
                slices[d] = s
        emax = max(self._emax, other._emax)
        return TruncatedSeries._from_slices(self.registry, slices, order, emax)

    def sign_by_degree(self) -> "TruncatedSeries":
        """The series with its degree-``d`` slice multiplied by ``(-1)**d``."""
        slices = {
            d: {e: -c for e, c in s.items()} if d % 2 else s for d, s in self._slices.items()
        }
        return TruncatedSeries._from_slices(self.registry, slices, self.order, self._emax)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.shift_monomial(self.registry.zero_exps(), other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_registry(other)
        emax = _result_emax(add, self, other)
        order = min(self.order + other.floor, other.order + self.floor)
        b_slices = [(db, list(sb.items())) for db, sb in sorted(other._slices.items())]
        # a square forms each unordered pair of slices once: a slice times
        # itself by ``_add_square``, and each pair of distinct slices doubled
        square = other is self
        acc: dict[int, Slice] = {}
        for i, (da, sa) in enumerate(sorted(self._slices.items())):
            room = order - da
            if room < other.floor:
                break
            for db, sb in b_slices[i:] if square else b_slices:
                if db > room:
                    break
                if square and db == da:
                    _add_square(acc.setdefault(2 * da, {}), sb, 1)
                else:
                    _add_product(acc.setdefault(da + db, {}), sa.items(), sb, 1 + square)
        return TruncatedSeries._from_slices(self.registry, _nonzero_slices(acc), order, emax)

    __rmul__ = __mul__

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget knowledge beyond ``order`` (which must not exceed the current order)."""
        order = _as_int(order, "order")
        if order > self.order:
            raise ValueError("cannot extend a series' guaranteed order by truncation")
        slices = {d: s for d, s in self._slices.items() if d <= order}
        return TruncatedSeries._from_slices(self.registry, slices, order, self._emax)

    def shift_monomial(self, delta: ExponentVector, scale: int = 1) -> "TruncatedSeries":
        """Multiply by the exact monomial ``scale * X^delta``.

        Unlike multiplying by a single-term series, this loses no order: a
        monomial has no unknown tail, so the guaranteed order moves up by the
        monomial's degree.
        """
        delta, shift = self.registry._checked(delta)
        scale = _as_int(scale, "coefficient")
        reach = _exps_max(delta)
        _check_exponent_bound(reach)
        emax = _result_emax(lambda e: e + reach, self)
        k = self.registry._pack(delta)
        slices = (
            {
                d + shift: {e + k: scale * c for e, c in s.items()}
                for d, s in self._slices.items()
            }
            if scale
            else {}
        )
        return TruncatedSeries._from_slices(self.registry, slices, self.order + shift, emax)

    def _orbit_sum(self, blocks: Iterable[tuple[int, int]], count: int) -> "TruncatedSeries":
        """The sum of the first ``count`` images of the series under the
        rotation that sends ``x_v -> x_{v+1}`` for ``start <= v < stop - 1``
        and ``x_{stop-1} -> x_start`` in every block ``(start, stop)``, and
        fixes every other variable: the series, its image, the image of
        that, and so on.

        Each slice's tally starts from the slice.  As the registry's
        ``_unpack`` does, each key takes the offset, so its digits are
        plain; the blocks' digits move within it ``count - 1`` times, and
        each image, the offset taken off again, is tallied.  So any
        exponent rotates, and the slices and ``_emax`` all stay.  A block of
        one variable is fixed.  ValueError for a block of unequal weights,
        whose image would change a term's degree.
        """
        reg = self.registry
        moves = []
        for start, stop in blocks:
            if len(set(reg.weights[start:stop])) > 1:
                raise ValueError("a rotated block needs variables of equal weight")
            if stop - start > 1:
                # x_v's digit sits at bit DIGIT_BITS * (n - 1 - v)
                low = _DIGIT_BITS * (reg.size - stop)
                span = _DIGIT_BITS * (stop - start - 1)
                last = ((1 << _DIGIT_BITS) - 1) << low
                rest = ((1 << span) - 1) << low
                moves.append((~(last | rest << _DIGIT_BITS), last, span, rest))
        offset = reg._offset
        acc: dict[int, Slice] = {}
        for d, s in self._slices.items():
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
        return TruncatedSeries._from_slices(reg, _nonzero_slices(acc), self.order, self._emax)

    # -- units: inverse and square root -----------------------------------

    def _unit_form(self, operation: str) -> tuple["TruncatedSeries", ExponentVector, int]:
        """``(u, e0, c0)`` for the unique minimal term ``c0 X^e0``, where
        ``u`` is the series times ``X^{-e0}``: that term at degree 0 and
        every other at positive degree, exact to ``N - deg X^e0``."""
        if not self._slices:
            raise ValueError("the zero series has no minimal term")
        lead = self._slices[self.floor]
        if len(lead) != 1:
            raise ValueError(f"{operation} requires a unique minimal-degree term")
        (k0, c0), = lead.items()
        e0 = self.registry._unpack(k0)
        return self.shift_monomial(tuple(-x for x in e0)), e0, c0

    def invert_unit(self) -> "TruncatedSeries":
        """Inverse of a series whose minimal-degree slice is a single monomial
        with coefficient +-1.

        The result is exact to order ``N - 2*m`` where ``m`` is the degree of
        the minimal term (so a negative ``m`` improves the order).
        """
        u, e0, c0 = self._unit_form("invert_unit")
        if c0 not in (1, -1):
            raise ValueError("invert_unit requires the minimal term to have coefficient +-1")
        unit = {0: c0}  # the key of the zero exponent vector is 0, and 1/c0 = c0
        if u.floor < 0 or u._slices.get(0) != unit:
            raise ValueError("invert_unit internal error: tail not of positive degree")
        bound = self.registry._bound
        tail = [(k, list(s.items()), bound(s)) for k, s in sorted(u._slices.items()) if k > 0]
        inv = [unit]  # inv[j] is the degree-j slice of 1/u
        bounds = [0]  # bounds[j] bounds |exponent| over inv[j]
        for j in range(1, u.order + 1):
            acc: Slice = {}
            emax = 0
            for k, uk, uk_emax in tail:
                if k > j:
                    break
                if inv[j - k]:
                    emax = max(emax, uk_emax + bounds[j - k])
                    _check_exponent_bound(emax)
                    _add_product(acc, inv[j - k].items(), uk, -c0)
            inv.append({e: c for e, c in acc.items() if c})
            bounds.append(emax)
        slices = {j: s for j, s in enumerate(inv) if s}
        inv_u = TruncatedSeries._from_slices(self.registry, slices, u.order, max(bounds))
        return inv_u.shift_monomial(tuple(-x for x in e0))

    def sqrt_unit(self) -> "TruncatedSeries":
        """Square root of a series whose minimal-degree term is a square monomial.

        The minimal slice must be one term with even exponents and a
        perfect-square coefficient; the root's leading coefficient is its
        positive square root.  Integrality is enforced degree by degree, and
        the result is exact to order ``N - m/2`` for minimal degree ``m``.
        """
        u, e0, c0 = self._unit_form("sqrt_unit")
        r0 = isqrt(c0) if c0 > 0 else 0
        if r0 * r0 != c0 or any(e % 2 for e in e0):
            raise ValueError("the minimal term is not the square of an integer monomial")
        bound = self.registry._bound
        roots = [[(0, r0)]]  # roots[j] lists the degree-j slice of the root of u
        bounds = [0]  # bounds[j] bounds |exponent| over roots[j]
        for j in range(1, u.order + 1):
            # slice j of root^2 is 2 r_0 r_j + sum_{0<i<j} r_i r_{j-i}
            _check_exponent_bound(max((bounds[i] + bounds[j - i] for i in range(1, j)), default=0))
            target = dict(u._slices.get(j, {}))
            for i in range(1, (j + 1) // 2):
                _add_product(target, roots[i], roots[j - i], -2)
            if j % 2 == 0:
                _add_square(target, roots[j // 2], -1)
            root = []
            for k, c in target.items():
                if c:
                    q, rem = divmod(c, 2 * r0)
                    if rem:
                        raise ValueError("slice division is not exact over the integers")
                    root.append((k, q))
            roots.append(root)
            bounds.append(bound(k for k, _ in root))
        slices = {j: dict(r) for j, r in enumerate(roots) if r}
        root_u = TruncatedSeries._from_slices(self.registry, slices, u.order, max(bounds))
        b = root_u.shift_monomial(tuple(e // 2 for e in e0))
        check = b * b
        if not check.same_series(self, up_to=min(check.order, self.order)):
            raise ValueError("series is not the square of a truncated Laurent series")
        return b

    # -- substitution ------------------------------------------------------

    def substitute_monomials(
        self, target: VariableRegistry, images: Mapping[str, ExponentVector]
    ) -> "TruncatedSeries":
        """Ring homomorphism sending each variable to a target monomial.

        ``images`` maps every source variable name to the exponent vector of
        its image, whose weighted degree in ``target`` must be the variable's
        weight.  Every term then keeps its degree, so the result is exact to
        the same order; any other image is refused with ValueError.
        """
        reg = self.registry
        if set(images) != set(reg.names):
            raise ValueError("images must cover exactly the source variables")
        img_exps = []
        for name, weight in zip(reg.names, reg.weights):
            exps, degree = target._checked(images[name])
            if degree != weight:
                raise ValueError(
                    f"the image of {name!r} must have degree {weight}, the weight of "
                    "its variable; only degree-preserving substitutions are exact"
                )
            _check_exponent_bound(_exps_max(exps))
            img_exps.append(exps)
        # each target exponent is a sum of e_v * image_v entries
        spread = max((sum(map(abs, col)) for col in zip(*img_exps)), default=0)
        emax = _result_emax(lambda e: e * spread, self)
        # packing is linear: the image of X^e has key sum_v e_v * key(image_v),
        # and it stays in its slice because degrees are preserved
        unpack = reg._unpack
        img_keys = list(map(target._pack, img_exps))
        acc: dict[int, Slice] = {}
        for d, s in self._slices.items():
            bucket = acc[d] = {}
            for k, c in s.items():
                key = sum(map(mul, unpack(k), img_keys))
                bucket[key] = bucket.get(key, 0) + c
        return TruncatedSeries._from_slices(target, _nonzero_slices(acc), self.order, emax)

    def __repr__(self) -> str:
        return (
            f"TruncatedSeries({sum(map(len, self._slices.values()))} terms, order={self.order}, "
            f"floor={self.floor}, vars={self.registry.names})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.registry == other.registry
            and self.order == other.order
            and self._slices == other._slices
        )

    __hash__ = None  # mutable-looking container; use same_series for math equality


def _result_emax(combine: Callable[..., int], *operands: TruncatedSeries) -> int:
    """``combine`` of the operands' exponent bounds, a bound for the result;
    ValueError if even their exact bounds could overflow a digit."""
    emax = combine(*(s._emax for s in operands))
    if emax >= _EXP_LIMIT:
        emax = combine(*(s._exact_emax() for s in operands))
        _check_exponent_bound(emax)
    return emax


# -- constructors ----------------------------------------------------------


def polynomial(registry: VariableRegistry, terms: Mapping[ExponentVector, int], order: int) -> TruncatedSeries:
    """Series from explicit terms; raises if a nonzero term exceeds the order.

    Use this to build known polynomials; the plain constructor silently
    truncates instead.
    """
    series = TruncatedSeries(registry, terms, order)
    if sum(map(len, series._slices.values())) < sum(map(bool, terms.values())):
        raise ValueError("polynomial term beyond the requested order")
    return series


def monomial(registry: VariableRegistry, exps: ExponentVector, coeff: int, order: int) -> TruncatedSeries:
    """Single-term series ``coeff * X^exps``, exact to the given order."""
    return polynomial(registry, {tuple(exps): coeff}, order)


def one(registry: VariableRegistry, order: int) -> TruncatedSeries:
    return monomial(registry, registry.zero_exps(), 1, order)


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

