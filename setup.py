"""Build hook: compile the optional C extension when Cython is available.

The package is pure Python by design; ``chiprank._kernels`` merely accelerates
the stabilization / parking-reduction inner loops.  With Cython installed,
``cythonize`` generates ``src/chiprank/_kernels.c`` from ``_kernels.pyx`` at
build time (the C file is not kept in the repository); without Cython the
extension is skipped.  Installation must succeed without a compiler, so every
failure here degrades to a pure build.
"""

from setuptools import setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/chiprank/_kernels.pyx"],
        compiler_directives={"language_level": "3"},
    )
except Exception:
    ext_modules = []

setup(ext_modules=ext_modules)
