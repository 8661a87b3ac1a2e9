"""Build script for the optional compiled kernel.

The package is pure Python; `polyprime._speedups` is a Cython extension
that accelerates the Groebner engine's inner loops. With Cython installed
the extension is built from `_speedups.pyx`; without it, from the
committed `_speedups.c`. The extension is optional: if no C compiler is
available the build goes on without it, and `polyprime.kernel` picks the
pure-Python kernel at import.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

source = "src/polyprime/_speedups.c" if cythonize is None else "src/polyprime/_speedups.pyx"
ext_modules = [Extension("polyprime._speedups", [source], extra_compile_args=["-O3"], optional=True)]
if cythonize is not None:
    ext_modules = cythonize(ext_modules, compiler_directives={"language_level": "3"})

setup(ext_modules=ext_modules)
