"""Build script: optionally compiles the simulation kernel with Cython.

src/snnkit/_kernel.py is the kernel's only source and runs as plain Python.
Where Cython is installed, it is also compiled in Cython's pure-Python mode,
with the C types declared in the augmenting src/snnkit/_kernel.pxd, into
the extension module snnkit._kernel, which shadows the .py on import. A
missing Cython or a failed compile must not break the install.
"""

from setuptools import Extension, setup

ext_modules = []
try:
    from Cython.Build import cythonize
except ImportError:
    pass
else:
    extension = Extension(
        "snnkit._kernel",
        ["src/snnkit/_kernel.py"],
        extra_compile_args=["-O2"],
    )
    extension.optional = True
    ext_modules = cythonize(
        [extension],
        compiler_directives={
            "language_level": "3",
            "boundscheck": False,
            "wraparound": False,
        },
    )

setup(ext_modules=ext_modules)
