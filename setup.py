"""Build script for the optional compiled kernel.

The package is pure Python; `polyprime._speedups` is a C extension,
written by hand against the CPython C API in `src/polyprime/_speedups.c`,
that accelerates the Groebner engine's rewrite kernel (`Basis`). A C
compiler is all the build needs. The extension is optional: if it does
not build, the build goes on without it, and `polyprime.kernel` picks the
pure-Python kernel at import.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "polyprime._speedups", ["src/polyprime/_speedups.c"], extra_compile_args=["-O3"], optional=True)])
