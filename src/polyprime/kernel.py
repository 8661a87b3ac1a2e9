"""Kernel selection, made once at import: the compiled rewrite kernel if it
imports, the pure-Python one otherwise.

This module is the kernel namespace. ``Basis``, ``BACKEND``,
``MAX_EXPONENT`` and ``MAX_NVARS`` come from the chosen kernel; both
implement the identical contract (see ``_kernel_py``), so the choice only
affects speed, never results. ``compare`` is ``binomials.compare``, the
one monomial comparison, exported here whichever kernel rewrites. Callers
look up ``compare``, ``Basis`` and its methods on this module at each
call, so that wrappers set on them see every call; ``get_kernel`` returns
the module itself, for code that takes the kernel as a value.
"""

import sys

from polyprime.binomials import compare

try:
    from polyprime._speedups import BACKEND, MAX_EXPONENT, MAX_NVARS, Basis
except ImportError:
    from polyprime._kernel_py import BACKEND, MAX_EXPONENT, MAX_NVARS, Basis


def get_kernel():
    """The kernel namespace: this module."""
    return sys.modules[__name__]


def backend_name():
    return BACKEND
