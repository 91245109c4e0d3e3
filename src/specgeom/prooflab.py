"""Numerical checks of the proof machinery behind the eigenvalue bounds.

The central identity tested here relates the expansion of a multiplied
eigenvector to an integral of Laplacian and gradient-coupling terms:

    sum_k (G_k - G_j) a_{jk}^2
        = integral of (Delta Psi s_j - 2 <grad Psi, grad s_j>) Psi s_j

with a_{jk} the expansion coefficients of Psi s_j in the eigenbasis.  In
the discrete model all sections are real vertex fields, Delta = M^{-1} L,
and gradients live per face on the affine interpolants.  The identity then
holds to roundoff when the full basis is used, because both sides reduce
to quadratic forms in the stiffness matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import IndexRangeError, UsageError
from .inequalities import weighted_density_integral
from .mesh import (
    MeshGeometry,
    SparseOperatorPair,
    coordinate_laplacians,
    face_gradients,
    mean_curvature_field,
    vertex_average_from_faces,
)

DEFAULT_TRUNCATION = 200


@dataclass(frozen=True)
class ExpansionTable:
    """Expansion coefficients a_{jk} = sum_v Psi s_j s_k M_vv for k <= K."""

    j: int
    coefficients: np.ndarray
    psi_norm_sq: float
    truncation_K: int

    def __post_init__(self):
        if self.bessel_defect < -1e-10:
            raise UsageError(
                "squared coefficients exceed the norm of the expanded field",
                excess=-self.bessel_defect,
            )

    @property
    def bessel_defect(self) -> float:
        """psi_norm_sq minus the captured sum; the unexpanded tail."""
        return float(self.psi_norm_sq - np.sum(self.coefficients**2))


@dataclass(frozen=True)
class ResidualReport:
    """Two sides of an identity plus absolute and relative residuals."""

    check_id: str
    j: int
    lhs: float
    rhs: float
    residual_abs: float
    residual_rel: float
    truncation_K: int
    terms: dict

    to_json_dict = asdict


def _relative(lhs: float, rhs: float) -> tuple[float, float]:
    resid = abs(lhs - rhs)
    return resid, resid / max(abs(lhs), abs(rhs), 1e-30)


def expansion_coefficients(
    psi: np.ndarray,
    basis,
    ops: SparseOperatorPair,
    j: int,
    trunc: int | None = None,
) -> ExpansionTable:
    """Coefficients of Psi s_j against the first K basis vectors.

    K defaults to min(200, basis size).  The Bessel bound (the squared
    coefficients sum to at most the squared mass norm of Psi s_j) is
    validated on construction.
    """
    basis.gamma(j)  # an index outside the basis is an IndexRangeError
    K = min(DEFAULT_TRUNCATION, basis.size) if trunc is None else trunc
    if K < 1 or K > basis.size:
        raise IndexRangeError(
            "truncation %d outside basis of size %d" % (K, basis.size),
            index=K,
            length=basis.size,
        )
    psi = np.asarray(psi, dtype=float)
    mass = ops.mass_diag
    w = psi * basis.vectors[:, j - 1]
    coeffs = basis.vectors[:, :K].T @ (mass * w)
    return ExpansionTable(
        j=j,
        coefficients=coeffs,
        psi_norm_sq=float(np.dot(w * w, mass)),
        truncation_K=K,
    )


def gradient_coupling(
    ops: SparseOperatorPair, u: np.ndarray, v: np.ndarray, weight: np.ndarray
) -> float:
    """Discrete integral of <grad u, grad v> * weight over the surface.

    Expanded through the product rule on affine interpolants,
    2 <grad u, grad v> w = <grad u, grad(v w)> + <grad v, grad(u w)>
                           - <grad w, grad(u v)>  + curvature-free rest,
    each pairing of piecewise-linear fields being an exact stiffness form
    u^T L v' per face.  Exact whenever u, v, w are affine on each face.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    weight = np.asarray(weight, dtype=float)
    lmat = ops.stiffness
    return 0.5 * float(
        u @ (lmat @ (v * weight)) + v @ (lmat @ (u * weight)) - weight @ (lmat @ (u * v))
    )


def verify_prop31(
    ops: SparseOperatorPair,
    basis,
    psi: np.ndarray,
    j: int,
    trunc: int | None = None,
) -> ResidualReport:
    """Check the expansion identity for the test field Psi against s_j.

    lhs: the truncated coefficient sum over the basis.
    rhs: the discrete integral with Delta Psi = M^{-1} L Psi and the
    gradient coupling assembled per face from the affine interpolants.
    The residual is the truncation tail plus discretization roundoff, so
    it vanishes to roundoff with a full dense basis and decays with K.
    """
    lam_j = basis.gamma(j)
    table = expansion_coefficients(psi, basis, ops, j, trunc)
    K = table.truncation_K
    lhs = float(np.sum((basis.values[:K] - lam_j) * table.coefficients**2))

    psi = np.asarray(psi, dtype=float)
    s = basis.vectors[:, j - 1]
    w = psi * s
    delta_term = float((ops.stiffness @ psi) @ (s * w))
    coupling = gradient_coupling(ops, psi, s, w)
    rhs = delta_term - 2.0 * coupling
    resid, rel = _relative(lhs, rhs)
    return ResidualReport(
        check_id="expansion-identity",
        j=j,
        lhs=lhs,
        rhs=rhs,
        residual_abs=resid,
        residual_rel=rel,
        truncation_K=K,
        terms={
            "coefficient_sum": lhs,
            "laplace_term": delta_term,
            "coupling_term": coupling,
            "bessel_defect": table.bessel_defect,
        },
    )


def verify_anghel_lemma(
    mesh: MeshGeometry, ops: SparseOperatorPair, basis, j: int
) -> ResidualReport:
    """Check the coordinate-wise gradient identity for the eigenvector s_j:

    sum_A || Delta x_A s_j - 2 <grad x_A, grad s_j> ||^2
        = 4 G_j + n^2 * integral of H^2 s_j^2     (function bundle)

    The coupling <grad x_A, grad s_j> is computed per face from affine
    interpolants and mass-averaged to vertices, so the left side carries a
    first-order discretization error that decays under refinement.
    """
    lam_j = basis.gamma(j)
    mass = ops.mass_diag
    s = basis.vectors[:, j - 1]
    delta_x = coordinate_laplacians(mesh, ops)
    grad_x = face_gradients(mesh, mesh.vertices)
    coupling = vertex_average_from_faces(
        mesh, np.einsum("fca,fc->fa", grad_x, face_gradients(mesh, s)))
    term = delta_x * s[:, None] - 2.0 * coupling
    lhs = float(np.einsum("va,va,v->", term, term, mass))
    # n^2 H^2 = sum_A (Delta x_A)^2 with n = 2
    h_term = weighted_density_integral(np.einsum("va,va->v", delta_x, delta_x), s, mass)
    rhs = 4.0 * lam_j + h_term
    resid, rel = _relative(lhs, rhs)
    return ResidualReport(
        check_id="coordinate-gradient-identity",
        j=j,
        lhs=lhs,
        rhs=rhs,
        residual_abs=resid,
        residual_rel=rel,
        truncation_K=basis.size,
        terms={
            "eigenvalue_term": 4.0 * lam_j,
            "h_sq_term": h_term,
        },
    )


@dataclass(frozen=True)
class CoordinateIdentityReport:
    """Residuals of the three pointwise coordinate-function identities."""

    grad_norm_max_err: float
    laplace_h_max_err: float
    cross_term_l2: float
    cross_term_max: float

    to_json_dict = asdict


def coordinate_identities(
    mesh: MeshGeometry, ops: SparseOperatorPair
) -> CoordinateIdentityReport:
    """Residuals of the coordinate identities on a surface (n = 2).

    Per face: sum_A |grad x_A|^2 = 2 exactly (affine coordinates).
    Per vertex: sum_A (Delta x_A)^2 = 4 H_sq exactly (definitional), and
    the cross term sum_A Delta x_A grad x_A, which vanishes only in the
    refinement limit and is reported as a diagnostic.
    """
    mass = ops.mass_diag
    delta = coordinate_laplacians(mesh, ops)
    grads = face_gradients(mesh, mesh.vertices)
    grad_sq_sum = np.einsum("fca,fca->f", grads, grads)
    cross = np.einsum("va,vca->vc", delta, vertex_average_from_faces(mesh, grads))
    h_sq = mean_curvature_field(mesh, ops)
    lap_err = np.abs(np.einsum("ij,ij->i", delta, delta) - 4.0 * h_sq)
    cross_norm = np.linalg.norm(cross, axis=1)
    total = float(np.sum(mass))
    return CoordinateIdentityReport(
        grad_norm_max_err=float(np.max(np.abs(grad_sq_sum - 2.0))),
        laplace_h_max_err=float(np.max(lap_err)),
        cross_term_l2=float(np.sqrt(np.dot(cross_norm**2, mass) / total)),
        cross_term_max=float(np.max(cross_norm)),
    )
