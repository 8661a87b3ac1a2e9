"""Kernel selection, made once at import: the compiled extension if it
imports, the pure-Python kernel otherwise.

Both kernels implement the identical contract (see ``_kernel_py``), so the
choice only affects speed, never results. Callers look up ``compare`` and
the ``Basis`` methods on the module that ``get_kernel`` returns each time
they call them, so that wrappers set on those attributes see every call.
"""

try:
    from polyprime import _speedups as _selected
except ImportError:
    from polyprime import _kernel_py as _selected


def get_kernel():
    """The kernel module chosen at import."""
    return _selected


def backend_name():
    return _selected.BACKEND
