"""Kernel selection: compiled Cython implementation when available.

Set POISGEO_PURE=1 to force the pure-Python kernel (useful for benchmarking
and debugging).  ``ACTIVE`` names the implementation in use.
"""

import os

if os.environ.get("POISGEO_PURE"):
    from . import _kernel_py as _impl
else:
    try:
        from . import _kernel_cy as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernel_py as _impl

ACTIVE = _impl.__name__.rsplit(".", 1)[-1].lstrip("_")

poly_add = _impl.poly_add
poly_sub = _impl.poly_sub
poly_neg = _impl.poly_neg
poly_scale = _impl.poly_scale
poly_mul = _impl.poly_mul
poly_term_mul = _impl.poly_term_mul
poly_diff = _impl.poly_diff
poly_eval = _impl.poly_eval
grlex_key = _impl.grlex_key
poly_lead = _impl.poly_lead
