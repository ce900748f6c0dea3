"""Build hook for the optional compiled sorting core.

The package is pure Python except for tsokey._radixcore, which holds the hot
radix-sort loops.  If Cython or a C compiler is missing the extension is
skipped and the package falls back to the pure-Python argsort at import time.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = []
else:
    ext_modules = cythonize(
        [
            Extension(
                "tsokey._radixcore",
                ["src/tsokey/_radixcore.pyx"],
                extra_compile_args=["-O3"],
                optional=True,
            )
        ],
        language_level=3,
    )

setup(ext_modules=ext_modules)
