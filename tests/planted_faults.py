"""Faults planted in the package, for tests that show a check catches them.

Each helper takes pytest's ``monkeypatch`` and patches one primitive, so
the fault is undone when the test ends.  The module is a helper, not a test
module, so pytest does not collect it.
"""
from bananagv import qseries
from bananagv.series import TruncatedSeries


def double_theta_term(monkeypatch, index):
    """Double the ``n = index`` term of theta's triple-product sum.

    ``qseries._theta_quotient_at`` looks ``theta1_at`` up in the module
    globals, so every theta quotient the package builds sees the fault: the
    elliptic genus, phi and both closed forms.  The term ``(-1)^n
    q^{n(n-1)/2} p^n`` first reaches a table at the degree of its image.
    """

    def theta1_at(target, q_image, p_image, order):
        return qseries._sum_at(
            target, q_image, p_image, order,
            lambda n: (n * (n - 1) // 2, n, (-1) ** (n % 2) * (2 if n == index else 1)),
        )

    monkeypatch.setattr(qseries, "theta1_at", theta1_at)


def double_eta_cubed_term(monkeypatch, index):
    """Double the ``k = index`` term of eta cubed's sum
    ``sum_k (-1)^k (k+1) q^{k(k+1)/2}``.

    ``qseries._theta_quotient_at`` looks ``_eta_cubed_at`` up in the module
    globals, so every quotient over ``etatilde^6`` sees the fault: phi, and
    through it both closed forms, but not the elliptic genus, which has no
    eta.  The term first reaches a series at q-order ``k(k+1)/2``.
    """

    def eta_cubed_at(target, q_image, order):
        return qseries._sum_at(
            target, q_image, target.zero_exps(), order,
            lambda k: (k * (k + 1) // 2, 0, (-1) ** (k % 2) * (k + 1) * (2 if k == index else 1)),
        )

    monkeypatch.setattr(qseries, "_eta_cubed_at", eta_cubed_at)


def drop_top_degree_pairs(monkeypatch):
    """Drop the pairs of terms whose degrees add up to the order of their
    product, in every product of two series, and keep that order.

    The product's top slice is then 0 where it should hold the sum of those
    pairs, while the series still claims to be exact there.  Every product
    the package forms, ``reduce(mul, ...)`` included, calls
    ``TruncatedSeries.__mul__``; a product by an int, which is a shift, is
    left exact.
    """
    multiply = TruncatedSeries.__mul__

    def mul(self, other):
        product = multiply(self, other)
        if not isinstance(other, TruncatedSeries):
            return product
        degree, order = product.registry.degree, product.order
        terms = {e: c for e, c in product.terms.items() if degree(e) < order}
        return TruncatedSeries(product.registry, terms, order)

    monkeypatch.setattr(TruncatedSeries, "__mul__", mul)


def fix_last_rotated_variable(monkeypatch):
    """Rotate every block one variable short, so that its last variable
    stays fixed: ``x_v -> x_{v+1}`` for ``start <= v < stop - 2`` and
    ``x_{stop-2} -> x_start``.

    ``geometry._sum_over_locations`` is the one caller of
    ``TruncatedSeries._orbit_sum``, so the sum over B locations is wrong
    on ``1xW`` for w >= 3 (on ``r0, r1, r2`` it swaps r0 and r1 and fixes
    r2), and location 0 is untouched.  A reversed rotation, or one by a
    step coprime to w, would not do: it only reorders the orbit, and the
    sum comes out unchanged.
    """
    orbit_sum = TruncatedSeries._orbit_sum

    def short_orbit_sum(self, blocks, count):
        return orbit_sum(self, [(start, stop - 1) for start, stop in blocks], count)

    monkeypatch.setattr(TruncatedSeries, "_orbit_sum", short_orbit_sum)
