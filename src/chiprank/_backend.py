"""Kernel backend selection.

Uses the compiled extension whenever it is importable.  The compiled kernels
refuse inputs that could overflow machine integers (raising OverflowError
with the configuration untouched), so each call falls back to the pure
kernel on such inputs.
"""

from __future__ import annotations

from . import _pykernels as pure

COMPILED = False
impl = pure
try:
    from . import _kernels as _compiled  # type: ignore[attr-defined]

    impl = _compiled
    COMPILED = True
except ImportError:
    pass


def _dispatcher(name: str):
    fallback = getattr(pure, name)

    def kernel(n, degs, flat, cfg):
        # ``impl`` is read at call time, so it can be swapped for a wrapper
        if COMPILED:
            try:
                return getattr(impl, name)(n, degs, flat, cfg)
            except OverflowError:
                pass
        return fallback(n, degs, flat, cfg)

    kernel.__name__ = kernel.__qualname__ = name
    return kernel


stabilize = _dispatcher("stabilize")
burning_test = _dispatcher("burning_test")
parking_reduce = _dispatcher("parking_reduce")
