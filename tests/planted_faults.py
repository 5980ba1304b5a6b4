"""Faults planted in the package, for tests that show a check catches them.

Each helper takes pytest's ``monkeypatch`` and patches one primitive, so
the fault is undone when the test ends.  The module is a helper, not a test
module, so pytest does not collect it.
"""
from bananagv import qseries


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
