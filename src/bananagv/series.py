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

    key(e) = sum(e) * B**n + e_0 * B**(n-1) + ... + e_{n-1},    B = 2**16

Each exponent is a balanced base-``B`` digit, ``|e_i| < 2**15``, below a
leading digit holding the raw degree ``sum(e)``.  Packing is linear, so the
key of a product term is ``key_a + key_b``, and integer order on keys is
exactly :func:`grlex_key` order, so sorting keys sorts terms canonically.
Exponent tuples appear only at the public boundary: the constructor,
``terms``, ``sorted_terms``, ``coefficient``, the ``shift_monomial`` delta
and substitution images.  A term's degree is computed once, when the public
constructor files it into its slice; every operation after that reads
degrees off the slice keys.  Operations build their results slice by slice
and hand them to a trusted internal constructor that neither re-checks nor
re-normalizes them.  The public constructor and the other public entry
points (``monomial``, ``coefficient``, ``shift_monomial``, ``truncate``,
``VariableRegistry``, substitution images, and the scale of ``*`` and
exponent of ``**``) refuse any coefficient, exponent, weight or order that
is not an ``int`` with TypeError.

**Overflow.**  A digit that reached ``2**15`` in absolute value would carry
into its neighbour and silently change the monomial, so it is refused with
ValueError before it can form.  Every series carries ``_emax``, an upper
bound on ``|e_i|`` over its stored terms: exact from the constructor, the
sum of the operands' bounds for a product, the bound plus ``max|delta|``
for a shift, and the bound times the images' spread for a substitution.
Where such a bound reaches ``2**15`` the operands' exact bounds are read
off their keys before the operation is refused.  The recurrences below
track a bound per slice and check every pair of slices before they
multiply it.  The bounds ignore truncation, so the guard may refuse a
product whose large exponents would all have landed beyond its order.

**Kernels.**

* ``a * b`` walks pairs of slices in ascending degree and stops each row
  at ``order - deg(a-slice)``, so no product term beyond the result order
  is ever formed.  ``a * a`` squares: it forms each unordered pair of terms
  once, and ``a ** n`` squares repeatedly.
* ``invert_unit`` scales the unique minimal term to 1 at degree 0,
  ``u = 1 + u_1 + u_2 + ...``, and solves ``u v = 1`` slice by slice:
  ``v_0 = 1`` and ``v_j = -sum_{k=1..j} u_k v_{j-k}``.
* ``sqrt_unit`` takes the square root ``r_0`` of the minimal term ``s_m``,
  which must be a single square monomial, and solves
  ``r_j = (s_{m+j} - sum_{0<i<j} r_i r_{j-i}) / (2 r_0)`` term by term
  (Brent & Kung, "Fast algorithms for manipulating formal power series",
  J. ACM 1978).  Dividing by the monomial ``2 r_0`` is the only slice
  division in the package.

Both unit operations keep their checks: ``invert_unit`` requires a unique
minimal term with coefficient +-1 and a tail of positive degree;
``sqrt_unit`` requires a unique minimal term with even exponents and a
perfect-square coefficient, enforces integrality of every division, and
finally compares ``b * b`` with its input to their common order.

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

    This is the canonical term order used everywhere: serialization and
    series comparison list terms by increasing key.  Packed keys compare the
    same way.
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


class _Packing:
    """Packs exponent vectors of length ``n`` into int keys and back."""

    __slots__ = ("n", "_low", "_offset", "_struct")

    def __init__(self, n: int):
        self.n = n
        self._low = (1 << (_DIGIT_BITS * n)) - 1
        self._offset = sum(_EXP_LIMIT << (_DIGIT_BITS * i) for i in range(n))
        self._struct = struct.Struct(">" + "h" * n)

    def pack(self, exps: ExponentVector) -> int:
        """Key of an exponent vector whose entries all have ``|e| < 2**15``."""
        key = sum(exps)
        for e in exps:
            key = (key << _DIGIT_BITS) + e
        return key

    def unpack(self, key: int) -> ExponentVector:
        # the offset turns each balanced digit e into the plain digit
        # e + 2**15, and flipping bit 15 back leaves e in 16-bit two's
        # complement, which struct reads as a signed short
        offset = self._offset
        packed = ((key + offset) & self._low) ^ offset
        return self._struct.unpack(packed.to_bytes(2 * self.n, "big"))

    def bound(self, keys: Iterable[int]) -> int:
        """The largest ``|exponent|`` over the keys (0 for none)."""
        return max(map(abs, chain.from_iterable(map(self.unpack, keys))), default=0)


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

    # a slots class, not a tuple, so that the kernels reach ``_packing`` by
    # a plain slot read on every operation
    __slots__ = ("names", "weights", "_packing")

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
        object.__setattr__(self, "_packing", _Packing(len(names)))

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
        if len(exps) != len(self.names):
            raise ValueError("exponent vector has wrong length")
        return sum(map(mul, self.weights, exps))

    def zero_exps(self) -> ExponentVector:
        return (0,) * len(self.names)

    def exps(self, **assignments: int) -> ExponentVector:
        """Build an exponent vector by variable name, e.g. ``reg.exps(r0=1, s=2)``."""
        vec = [0] * len(self.names)
        for name, e in assignments.items():
            vec[self.index(name)] = _as_int(e, "exponent")
        return tuple(vec)


def _int_exps(exps) -> ExponentVector:
    exps = tuple(exps)
    if not {int}.issuperset(map(type, exps)):
        for e in exps:
            _as_int(e, "exponent")
    return exps


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
        n = registry.size
        pack = registry._packing.pack
        degree = registry.degree
        slices: dict[int, Slice] = {}
        emax = 0
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise ValueError("exponent vector has wrong length")
            exps = _int_exps(exps)
            coeff = _as_int(coeff, "coefficient")
            if coeff == 0:
                continue
            d = degree(exps)
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
        emax = self.registry._packing.bound(chain.from_iterable(self._slices.values()))
        object.__setattr__(self, "_emax", emax)
        return emax

    @property
    def terms(self) -> dict[ExponentVector, int]:
        """All stored terms as one flat dict, a new one on every call."""
        unpack = self.registry._packing.unpack
        return {unpack(k): c for s in self._slices.values() for k, c in s.items()}

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("TruncatedSeries is immutable")

    # -- queries ---------------------------------------------------------

    def coefficient(self, exps: ExponentVector) -> int:
        """Exact coefficient of the given monomial.

        Raises if the monomial's degree exceeds the guaranteed order: a
        coefficient in the unknown region is not zero, it is unknown.
        """
        exps = _int_exps(exps)
        d = self.registry.degree(exps)
        if d > self.order:
            raise ValueError(
                f"coefficient at degree {d} is beyond the guaranteed order {self.order}"
            )
        if _exps_max(exps) >= _EXP_LIMIT:
            return 0  # no stored term has such an exponent
        return self._slices.get(d, {}).get(self.registry._packing.pack(exps), 0)

    def constant_term(self) -> int:
        return self.coefficient(self.registry.zero_exps())

    def coefficients(self) -> Iterator[int]:
        """The stored (nonzero) coefficients, read without unpacking keys."""
        return chain.from_iterable(s.values() for s in self._slices.values())

    def has_negative_exponent(self) -> bool:
        """Whether some stored term has a negative exponent."""
        # e >= 0 exactly when the plain digit e + 2**15 has bit 15 set
        offset = self.registry._packing._offset
        return any((k + offset) & offset != offset for s in self._slices.values() for k in s)

    def sorted_terms(self) -> Iterator[tuple[ExponentVector, int]]:
        """Terms in the canonical graded-lex order (ascending), each key
        unpacked as it is read."""
        unpack = self.registry._packing.unpack
        items = sorted(chain.from_iterable(s.items() for s in self._slices.values()))
        return ((unpack(k), c) for k, c in items)

    def same_series(self, other: "TruncatedSeries", up_to: int | None = None) -> bool:
        """Compare coefficients up to ``up_to`` (default: the common order)."""
        return self.first_difference(other, up_to) is None

    def first_difference(
        self, other: "TruncatedSeries", up_to: int | None = None
    ) -> tuple[ExponentVector, int, int] | None:
        """The first monomial, by degree and then graded-lex order, whose
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
                return self.registry._packing.unpack(k), sa.get(k, 0), sb.get(k, 0)
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
            k = _as_int(other, "scale")
            slices = (
                {d: {e: k * c for e, c in s.items()} for d, s in self._slices.items()} if k else {}
            )
            return TruncatedSeries._from_slices(self.registry, slices, self.order, self._emax)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other is self:
            return self._square()
        self._check_registry(other)
        emax = _result_emax(add, self, other)
        order = min(self.order + other.floor, other.order + self.floor)
        b_slices = sorted(other._slices.items())
        acc: dict[int, Slice] = {}
        for da, sa in sorted(self._slices.items()):
            room = order - da
            if room < other.floor:
                break
            for db, sb in b_slices:
                if db > room:
                    break
                _add_product(acc.setdefault(da + db, {}), sa, sb, 1)
        return TruncatedSeries._from_slices(self.registry, _nonzero_slices(acc), order, emax)

    __rmul__ = __mul__

    def _square(self) -> "TruncatedSeries":
        """``self * self``, forming each unordered pair of terms once."""
        emax = _result_emax(lambda e: 2 * e, self)
        order = self.order + self.floor
        slices = sorted(self._slices.items())
        acc: dict[int, Slice] = {}
        for i, (da, sa) in enumerate(slices):
            if 2 * da > order:
                break
            _add_square(acc.setdefault(2 * da, {}), sa, 1)
            for db, sb in slices[i + 1 :]:
                if da + db > order:
                    break
                _add_product(acc.setdefault(da + db, {}), sa, sb, 2)
        return TruncatedSeries._from_slices(self.registry, _nonzero_slices(acc), order, emax)

    def __pow__(self, n: int) -> "TruncatedSeries":
        if _as_int(n, "exponent") < 0:
            raise ValueError("only nonnegative integer powers are supported")
        if n == 0:
            return one(self.registry, self.order)
        # order and floor come out as for n - 1 left multiplications: both
        # give order N + (n-1)F and floor nF, since lead slices never cancel
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

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
        delta = _int_exps(delta)
        scale = _as_int(scale, "coefficient")
        shift = self.registry.degree(delta)
        reach = _exps_max(delta)
        _check_exponent_bound(reach)
        emax = _result_emax(lambda e: e + reach, self)
        k = self.registry._packing.pack(delta)
        slices = (
            {
                d + shift: {e + k: scale * c for e, c in s.items()}
                for d, s in self._slices.items()
            }
            if scale
            else {}
        )
        return TruncatedSeries._from_slices(self.registry, slices, self.order + shift, emax)

    # -- units: inverse and square root -----------------------------------

    def _minimal_slice(self) -> tuple[int, Slice]:
        """The minimal degree and its slice (shared: do not mutate)."""
        if not self._slices:
            raise ValueError("the zero series has no minimal term")
        return self.floor, self._slices[self.floor]

    def invert_unit(self) -> "TruncatedSeries":
        """Inverse of a series whose minimal-degree slice is a single monomial
        with coefficient +-1.

        The result is exact to order ``N - 2*m`` where ``m`` is the degree of
        the minimal term (so a negative ``m`` improves the order).
        """
        m0, lead = self._minimal_slice()
        if len(lead) != 1:
            raise ValueError("invert_unit requires a unique minimal-degree term")
        (k0, c0), = lead.items()
        if c0 not in (1, -1):
            raise ValueError("invert_unit requires the minimal term to have coefficient +-1")
        packing = self.registry._packing
        neg_e0 = tuple(-x for x in packing.unpack(k0))
        u = self.shift_monomial(neg_e0, c0)  # order N - m0, leading term 1 at degree 0
        unit = {0: 1}  # the key of the zero exponent vector is 0
        if u.floor < 0 or u._slices.get(0) != unit:
            raise ValueError("invert_unit internal error: tail not of positive degree")
        tail = sorted((k, s, packing.bound(s)) for k, s in u._slices.items() if k > 0)
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
                    _add_product(acc, uk, inv[j - k], -1)
            inv.append({e: c for e, c in acc.items() if c})
            bounds.append(emax)
        slices = {j: s for j, s in enumerate(inv) if s}
        inv_u = TruncatedSeries._from_slices(self.registry, slices, u.order, max(bounds))
        return inv_u.shift_monomial(neg_e0, c0)

    def sqrt_unit(self) -> "TruncatedSeries":
        """Square root of a series whose minimal-degree term is a square monomial.

        The minimal slice must be one term with even exponents and a
        perfect-square coefficient; the root's leading coefficient is its
        positive square root.  Integrality is enforced degree by degree, and
        the result is exact to order ``N - m/2`` for minimal degree ``m``.
        """
        m0, lead = self._minimal_slice()
        if len(lead) != 1:
            raise ValueError("sqrt_unit requires a unique minimal-degree term")
        (k0, c0), = lead.items()
        packing = self.registry._packing
        r0 = isqrt(c0) if c0 > 0 else 0
        if r0 * r0 != c0 or any(e % 2 for e in packing.unpack(k0)):
            raise ValueError("the minimal term is not the square of an integer monomial")
        # every digit of k0 is even, so halving the key halves each exponent
        root_lead = {k0 // 2: r0}
        two_lead = {k0 // 2: 2 * r0}
        roots = [root_lead]  # roots[j] is the root's slice of degree m0/2 + j
        bounds = [packing.bound(root_lead)]  # bounds[j] is |exponent| over roots[j]
        for j in range(1, self.order - m0 + 1):
            # slice m0 + j of root^2 is 2 r_0 r_j + sum_{0<i<j} r_i r_{j-i}
            _check_exponent_bound(max((bounds[i] + bounds[j - i] for i in range(1, j)), default=0))
            target = dict(self._slices.get(m0 + j, {}))
            for i in range(1, (j + 1) // 2):
                _add_product(target, roots[i], roots[j - i], -2)
            if j % 2 == 0:
                _add_square(target, roots[j // 2], -1)
            target = {e: c for e, c in target.items() if c}
            root = _homogeneous_exact_divide(target, two_lead, packing) if target else {}
            roots.append(root)
            bounds.append(packing.bound(root))
        half = m0 // 2
        slices = {half + j: r for j, r in enumerate(roots) if r}
        b = TruncatedSeries._from_slices(self.registry, slices, self.order - half, max(bounds))
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
            exps = _int_exps(images[name])
            if len(exps) != target.size:
                raise ValueError("image exponent vector has wrong length for target registry")
            if target.degree(exps) != weight:
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
        unpack = reg._packing.unpack
        img_keys = list(map(target._packing.pack, img_exps))
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
    """Series from explicit terms; raises if any term exceeds the order.

    Use this to build known polynomials in tests and assemblies; the plain
    constructor silently truncates instead.
    """
    for exps in terms:
        if registry.degree(_int_exps(exps)) > order:
            raise ValueError("polynomial term beyond the requested order")
    return TruncatedSeries(registry, terms, order)


def monomial(registry: VariableRegistry, exps: ExponentVector, coeff: int, order: int) -> TruncatedSeries:
    """Single-term series ``coeff * X^exps``, exact to the given order."""
    return polynomial(registry, {tuple(exps): coeff}, order)


def one(registry: VariableRegistry, order: int) -> TruncatedSeries:
    return monomial(registry, registry.zero_exps(), 1, order)


# -- homogeneous-slice helpers (packed-key dicts, no truncation data) --------


def _add_product(acc: Slice, a: Slice, b: Slice, scale: int) -> None:
    """``acc += scale * a * b`` in place; cancelled terms stay as zeros."""
    get = acc.get
    b_items = list(b.items())
    for ka, ca in a.items():
        ca *= scale
        for kb, cb in b_items:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def _add_square(acc: Slice, a: Slice, scale: int) -> None:
    """``acc += scale * a * a`` in place, forming each unordered pair once."""
    get = acc.get
    items = list(a.items())
    for i, (ka, ca) in enumerate(items):
        k = ka + ka
        acc[k] = get(k, 0) + scale * ca * ca
        ca *= 2 * scale
        for kb, cb in items[i + 1 :]:
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


def _homogeneous_exact_divide(num: Slice, den: Slice, packing: _Packing) -> Slice:
    """Exact quotient of a homogeneous slice by a one-term slice, term by
    term over Laurent exponents.

    ValueError for any other divisor, and for a coefficient the divisor's
    does not divide.
    """
    if len(den) != 1:
        raise ValueError("slice division needs a one-term divisor")
    (den_key, den_c), = den.items()
    den_reach = packing.bound(den)
    if den_reach:  # a constant divisor leaves every key as it is
        _check_exponent_bound(packing.bound(num) + den_reach)
    quot = {}
    for k, c in num.items():
        q, r = divmod(c, den_c)
        if r:
            raise ValueError("slice division is not exact over the integers")
        quot[k - den_key] = q
    return quot
