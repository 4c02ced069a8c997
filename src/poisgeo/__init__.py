"""poisgeo: exact symbolic checks for Poisson structures with cotangent metrics.

Scalar arithmetic is the field of multivariate rational functions over Q
with canonical representatives, so every identity verdict ("this tensor is
zero") is an exact decision, not a numeric one.  On top of that sit
coordinate tensor calculus, the contravariant Levi-Civita connection of a
bivector/cometric pair, the symplectic-foliation frames and their leaf
geometry, a converse construction from foliation data, and truncated
Poisson-cohomology ranks through exact integer elimination.
"""

__version__ = "0.1.0"

from .chart import Chart, as_point
from .errors import PoisgeoError
from .kernel import ACTIVE as kernel_name
from .linalg import FieldMatrix, RationalMatrix
from .parser import parse_scalar
from .scalar import ScalarField
from .tensor import (
    OneForm,
    PForm,
    PVector,
    VectorField,
    exterior_d,
    interior_form,
    interior_vector,
    lie_bracket,
    lie_derivative,
    lie_derivative_bivector,
    lie_derivative_oneform,
    wedge,
)
from .poisson import Bivector
from .connection import (
    ChristoffelTable,
    CoMetric,
    cyclic_d_pi,
    d_pi_tensor,
    is_riemann_poisson,
    levi_civita,
    metric_defect,
    riemann_poisson_defect,
    torsion_defect,
)
from .foliation import (
    FoliationSplit,
    LeafwiseForm,
    TangentMetric,
    basic_form_family,
    bundle_like_report,
    casimir_monomials,
    foliate_report,
    induced_tangent_metric,
    invariance_report,
    is_basic_one_form,
    is_foliate,
    leaf_connection,
    leafwise_d,
    leafwise_symplectic,
    parallel_omega_residuals,
    split_cotangent,
)
from .reconstruct import (
    FoliationInput,
    build_structure,
    certify,
    extract_foliation_input,
    perpendicular_foliate_family,
    round_trip,
    validate_input,
)
from .cohomology import (
    GradedBasis,
    assemble_dpi_matrix,
    basic_pform_family,
    dpi_preserves_split,
    dpi_squared_matrix,
    pi_pushforward,
    pushforward_naturality_residual,
    sharp_basic,
    split_multivector,
    thm31_cochain_report,
    truncated_betti,
)
from .specfile import (
    FoliationSpec,
    ManifoldSpec,
    load_foliation_spec,
    load_manifold_spec,
    load_spec_file,
)

__all__ = [name for name in dir() if not name.startswith("_")]
