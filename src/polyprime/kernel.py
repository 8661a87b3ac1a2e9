"""Kernel selection, made once at import: the compiled rewrite kernel if it
imports, the pure-Python one otherwise.

This module is the kernel namespace. ``Basis``, ``BACKEND``,
``MAX_EXPONENT`` and ``MAX_NVARS`` come from the chosen kernel; both
implement the identical contract (see ``_kernel_py``), so the choice only
affects speed, never results. Monomial comparison, ``Order`` and
``compare``, has one implementation, in ``_kernel_py``, whichever kernel
rewrites. Callers look up ``compare`` and the ``Basis`` methods on the
namespace that ``get_kernel`` returns each time they call them, so that
wrappers set on those attributes see every call.
"""

import sys

from polyprime._kernel_py import Order, compare

try:
    from polyprime._speedups import BACKEND, MAX_EXPONENT, MAX_NVARS, Basis
except ImportError:
    from polyprime._kernel_py import BACKEND, MAX_EXPONENT, MAX_NVARS, Basis


def get_kernel():
    """The kernel namespace: this module."""
    return sys.modules[__name__]


def backend_name():
    return BACKEND
