"""Exception hierarchy used across the package.

Every error carries a machine-readable ``kind`` plus optional structured
detail, so the CLI can emit them as JSON and map them to exit codes.
The solver tolerance check lives here too, where the command line can
read it without importing the solver.
"""

from __future__ import annotations


class SpecGeomError(Exception):
    """Base class for all package errors."""

    kind = "error"

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "message": str(self), "detail": self.detail}


class UsageError(SpecGeomError):
    """Invalid request: bad arguments, missing parameters, out-of-range knobs."""

    kind = "usage"


# the solver tolerances accepted
TOL_RANGE = (1e-12, 1e-2)


def check_tol(tol: float) -> None:
    """Reject a solver tolerance outside ``TOL_RANGE``."""
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise UsageError("tol %g outside [%g, %g]" % (tol, *TOL_RANGE), tol=tol)


class InvalidModelError(SpecGeomError):
    """Unknown model id or parameters outside the model's domain."""

    kind = "invalid-model"


class EmptyRequestError(SpecGeomError):
    """A spectrum of zero eigenvalues was requested."""

    kind = "empty-request"


class MeshParseError(SpecGeomError):
    """Mesh file could not be parsed; carries the offending line number."""

    kind = "mesh-parse"


class MeshValidationError(SpecGeomError):
    """Mesh parsed but violates a structural invariant (manifoldness etc.)."""

    kind = "mesh-validation"


class ClosedSurfaceRequiredError(MeshValidationError):
    """Mesh has boundary edges; only closed surfaces are supported."""

    kind = "closed-surface-required"


class IndexRangeError(SpecGeomError):
    """Eigenvalue index outside the resolved part of the spectrum."""

    kind = "index-range"


class InconsistentKernelError(SpecGeomError):
    """Claimed zero-mode count disagrees with the spectrum's kernel."""

    kind = "inconsistent-kernel"


class HypothesisViolatedError(SpecGeomError):
    """An evaluator's structural hypothesis (e.g. zero modes exist) fails."""

    kind = "hypothesis-violated"


class NormalizationError(SpecGeomError):
    """Eigenvector fails the required mass normalization."""

    kind = "not-normalized"


class SolverConvergenceError(SpecGeomError):
    """Eigensolver did not converge; detail carries the best residuals."""

    kind = "solver-convergence"
