"""Exact genus-0 invariant computations for banana configurations.

The package computes generating functions of genus-0 invariants for the
``(1, w)`` and ``(2, 2)`` banana shapes two independent ways — closed-form
Jacobi-form products and brute-force enumeration of thickening profiles —
and cross-checks them against each other.  The enumeration serves every
shape ``(v, w)``; the closed forms, and the CLI, cover only those two.  All
arithmetic is exact over the integers via truncated multivariate Laurent
series.

Layout:

* :mod:`bananagv.keys` — the variable registry and its packed exponent keys.
* :mod:`bananagv.series` — the truncated-series engine.
* :mod:`bananagv.qseries` — eta/theta/phi products, the equivariant
  elliptic genus, and the classical identity suite.
* :mod:`bananagv.geometry` — shapes, the branch labels read off one
  lattice walk of period lcm(v, w), and the rotation that sums B location
  0 over the locations.
* :mod:`bananagv.oracle` — enumerative route (naive counts + sign twist).
* :mod:`bananagv.gvpf` — the closed forms and the cross-check engine.
* :mod:`bananagv.cli` — ``python -m bananagv`` front end, and the
  ``--shape`` selectors that :func:`parse_shape` reads.

``import bananagv`` loads :mod:`bananagv.series`, which imports
:mod:`bananagv.keys`, and nothing else of the package; every other public
name is imported from its home module on first access, so a command loads
only the modules it runs.  ``series`` is loaded first because it is the
largest module: without cached bytecode, the transient heap of compiling
the largest module sets a command's peak memory, and compiled first, that
transient sits on the smallest heap.
"""
from .series import InvariantError, TruncatedSeries
from .keys import VariableRegistry

#: Home module of each public name that is imported on first access.
_LAZY = {
    "parse_shape": "cli",
    "BananaShape": "geometry",
    "BranchSpec": "geometry",
    "CrossCheckReport": "gvpf",
    "cross_check": "gvpf",
    "pf_1w": "gvpf",
    "pf_22": "gvpf",
    "pf_22_theta": "gvpf",
    "behrend_twist": "oracle",
    "naive_pf": "oracle",
    "check_identities": "qseries",
    "elliptic_genus_c2": "qseries",
    "jacobi_phi": "qseries",
}

__all__ = ["InvariantError", "TruncatedSeries", "VariableRegistry", *_LAZY]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
