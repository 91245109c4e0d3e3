"""Spectral geometry of model manifolds and discretized surfaces.

Closed-form Dirac and Laplace spectra of spheres and flat tori, cotangent
Laplace operators with extrinsic curvature fields on triangle meshes, and
an inequality engine that evaluates eigenvalue bounds with margin reports.
"""

from .eigensolve import (
    EigenBasis,
    dense_eigenbasis,
    solve_smallest,
)
from .errors import (
    ClosedSurfaceRequiredError,
    EmptyRequestError,
    HypothesisViolatedError,
    InconsistentKernelError,
    IndexRangeError,
    InvalidModelError,
    MeshParseError,
    MeshValidationError,
    NormalizationError,
    SolverConvergenceError,
    SpecGeomError,
    UsageError,
)
from .inequalities import (
    InequalityReport,
    WeightedCurvatureTerms,
    aggregate_exit,
    check_background_bounds,
    check_corollary_eta,
    check_index_corollary,
    check_lp_spin,
    check_main_theorem,
    check_projective,
    check_reilly_I,
    check_reilly_II,
    check_reilly_III,
    check_sphere_theorem,
    check_universal_euclidean,
    check_universal_sphere,
    conjecture_probe,
    weighted_density_integral,
)
from .mesh import (
    ExtrinsicData,
    MeshGeometry,
    SparseOperatorPair,
    assemble_operators,
    extrinsic_summary,
    load_mesh,
    mesh_from_arrays,
)
from .models import (
    Lattice,
    ModelExtrinsic,
    Spectrum,
    SpinStructure,
    all_spin_structures,
    clifford_torus_lattice,
    field_dimension,
    product_torus_extrinsic,
    sphere_dirac_spectrum,
    sphere_extrinsic,
    sphere_laplace_spectrum,
    sphere_volume,
    torus_dirac_spectrum,
    torus_laplace_spectrum,
)
from .prooflab import (
    CoordinateIdentityReport,
    ExpansionTable,
    ResidualReport,
    coordinate_identities,
    expansion_coefficients,
    verify_anghel_lemma,
    verify_prop31,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
