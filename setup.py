"""Build script for the optional compiled box scan kernel.

The package is pure Python; the extension only accelerates the
brute-force oracle's box scan.  If Cython or a C compiler is unavailable
the build falls back to the pure implementation selected at import time.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

ext_modules = []
if cythonize is not None:
    ext_modules = cythonize(
        [
            Extension(
                "galerobust._speed._native",
                ["src/galerobust/_speed/_native.pyx"],
                optional=True,
            )
        ],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=ext_modules)
