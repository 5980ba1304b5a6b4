"""Exact genus-0 invariant computations for banana configurations.

The package computes generating functions of genus-0 invariants for the
``(1, w)`` and ``(2, 2)`` banana shapes two independent ways — closed-form
Jacobi-form products and brute-force enumeration of thickening profiles —
and cross-checks them against each other.  The enumeration serves every
shape ``(v, w)``; the closed forms, and the CLI, cover only those two.  All
arithmetic is exact over the integers via truncated multivariate Laurent
series.

Layout:

* :mod:`bananagv.series` — the truncated-series engine.
* :mod:`bananagv.qseries` — eta/theta/phi products, the equivariant
  elliptic genus, and the classical identity suite.
* :mod:`bananagv.geometry` — shapes, and the branch labels read off one
  lattice walk of period lcm(v, w).
* :mod:`bananagv.oracle` — enumerative route (naive counts + sign twist).
* :mod:`bananagv.gvpf` — the closed forms and the cross-check engine.
* :mod:`bananagv.cli` — ``python -m bananagv`` front end.
"""
from .geometry import BananaShape, BranchSpec, parse_shape
from .gvpf import CrossCheckReport, GVTable, cross_check, gv_table, pf_1w, pf_22, pf_22_theta
from .oracle import behrend_twist, naive_pf
from .qseries import check_identities, elliptic_genus_c2, jacobi_phi
from .series import InvariantError, TruncatedSeries, VariableRegistry

__all__ = [
    "BananaShape",
    "BranchSpec",
    "CrossCheckReport",
    "GVTable",
    "InvariantError",
    "TruncatedSeries",
    "VariableRegistry",
    "behrend_twist",
    "check_identities",
    "cross_check",
    "elliptic_genus_c2",
    "gv_table",
    "jacobi_phi",
    "naive_pf",
    "parse_shape",
    "pf_1w",
    "pf_22",
    "pf_22_theta",
]

__version__ = "0.1.0"
