"""The polynomial kernel every layer imports, defined in ``_kernel_py``.

``ACTIVE`` names it; benchmark records carry the name in their provenance.
"""

from ._kernel_py import (
    grlex_key,
    poly_add,
    poly_diff,
    poly_eval_parts,
    poly_lead,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_sub,
    poly_term_mul,
)

ACTIVE = "kernel_py"
