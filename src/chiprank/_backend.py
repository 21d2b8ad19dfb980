"""The kernels the dynamics layer calls.

``dynamics`` reads these names at call time, so a test or the benchmark can
swap one for a wrapper.  ``COMPILED`` is always ``False``: the kernels are
pure Python.
"""

from ._pykernels import burning_test, parking_reduce, stabilize

COMPILED = False
