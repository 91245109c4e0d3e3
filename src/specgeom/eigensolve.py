"""Smallest eigenpairs of the generalized problem L v = lambda M v.

Sparse path: shift-inverted Lanczos seeded deterministically, with the
shift placed just below zero so the kernel (constant functions on a closed
surface) is resolved reliably.  The shifted pencil L + eps M is factorized
once per solve; ARPACK and the polish loop both use that LU.  ARPACK stops
at the caller's ``tol``; a Rayleigh-Ritz re-extraction follows, and every
kept pair must then meet ``||L v - lambda M v|| <= tol * max(1, ||L v||)``.
Dense path: a full LAPACK solve used as an independent oracle on small
meshes.  Both return the same container and obey the same normalization
and sign conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as dla
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import SolverConvergenceError, UsageError
from .mesh import SparseOperatorPair
from .models import IndexedSpectrum

TOL_RANGE = (1e-12, 1e-2)
MAX_RESTARTS = 500
MAX_POLISH_STEPS = 40
GRAM_TOL = 1e-8
ZERO_REL = 1e-8


@dataclass(frozen=True)
class EigenBasis(IndexedSpectrum):
    """Ascending eigenvalues with M-orthonormal eigenvectors as columns.

    Reads like a model :class:`~specgeom.models.Spectrum`: ``gamma(j)``,
    ``gamma_bar(i)``, ``zero_dim`` and ``total_count``.  ``zero_dim``
    counts the kept values below ``ZERO_REL`` times the largest |value|
    the solver computed, kept or not, so a basis of kernel values alone
    still counts them all.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    mass_gram_error: float
    zero_dim: int

    @property
    def size(self) -> int:
        return len(self.values)

    total_count = size

    def _value(self, j: int) -> float:
        return float(self.values[j - 1])

    def to_json_dict(self) -> dict:
        return {
            "values": list(self.values),
            "residuals": list(self.residuals),
            "mass_gram_error": self.mass_gram_error,
            "size": self.size,
        }


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first significantly-nonzero entry of each column positive."""
    out = np.array(vectors, copy=True)
    for col in range(out.shape[1]):
        v = out[:, col]
        peak = np.max(np.abs(v))
        if peak == 0.0:
            continue
        lead = int(np.argmax(np.abs(v) > 1e-6 * peak))
        if v[lead] < 0.0:
            out[:, col] = -v
    return out


def _mass_orthonormalize(vectors, mass_diag):
    gram = vectors.T @ (vectors * mass_diag[:, None])
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise SolverConvergenceError(
            "returned basis is numerically mass-degenerate",
            gram_error=float(np.max(np.abs(gram - np.eye(vectors.shape[1])))),
        )
    return dla.solve_triangular(chol, vectors.T, lower=True).T


def _ritz_extract(ops, vectors):
    """M-orthonormalize the block and rediagonalize the projected operator.

    Raw Krylov vectors inside a degenerate cluster carry arbitrary mixing;
    the Rayleigh-Ritz rotation resolves it and returns ascending values.
    """
    vectors = _mass_orthonormalize(vectors, ops.mass_diag)
    projected = vectors.T @ (ops.stiffness @ vectors)
    values, rotation = dla.eigh(0.5 * (projected + projected.T))
    return values, vectors @ rotation


def _residual_norms(ops, values, vectors):
    lv = ops.stiffness @ vectors
    resid_vec = lv - vectors * (ops.mass_diag[:, None] * values[None, :])
    residuals = np.linalg.norm(resid_vec, axis=0)
    return residuals, np.maximum(1.0, np.linalg.norm(lv, axis=0))


def _finalize(values, vectors, ops, tol, solved=None):
    """Fix signs and check the contract of pairs that arrive ascending and
    M-orthonormal (from :func:`_ritz_extract` or ``scipy.linalg.eigh``).

    ``solved`` holds every value computed, kept or not (default ``values``);
    its largest |value| is the scale of the zero-mode count.
    """
    vectors = _fix_signs(vectors)
    gram = vectors.T @ (vectors * ops.mass_diag[:, None])
    gram_error = float(np.max(np.abs(gram - np.eye(len(values)))))
    residuals, lv_scale = _residual_norms(ops, values, vectors)
    bounds = tol * lv_scale
    if gram_error > GRAM_TOL or np.any(residuals > bounds):
        raise SolverConvergenceError(
            "eigenpairs failed the residual or orthonormality check",
            worst_residual=float(residuals.max()),
            bound=float(bounds.min()),
            gram_error=gram_error,
        )
    scale = float(np.max(np.abs(values if solved is None else solved), initial=0.0))
    return EigenBasis(
        values=values,
        vectors=vectors,
        residuals=residuals,
        mass_gram_error=gram_error,
        zero_dim=int(np.count_nonzero(values < ZERO_REL * (scale or 1.0))),
    )


def check_tol(tol: float) -> None:
    """Reject a solver tolerance outside ``TOL_RANGE``."""
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise UsageError("tol %g outside [%g, %g]" % (tol, *TOL_RANGE), tol=tol)


def solve_smallest(
    ops: SparseOperatorPair, k: int, tol: float = 1e-9, seed: int = 0
) -> EigenBasis:
    """The k smallest eigenpairs of (L, M), deterministic for a fixed seed.

    The kernel of L appears as eigenvalues below the zero threshold (they
    may round to tiny negatives).  Raises a convergence error with the best
    residuals attached if the iteration stalls.
    """
    n = ops.stiffness.shape[0]
    if k < 1 or k >= n:
        raise UsageError("k must satisfy 1 <= k < %d, got %d" % (n, k), k=k)
    check_tol(tol)

    # shift slightly below the spectrum so the kernel maps to the largest
    # transformed eigenvalues and is found first; the one factorization of
    # the shifted pencil serves both ARPACK and the polish loop
    eps = 1e-8 * ops.stiffness.diagonal().sum() / max(ops.stiffness.nnz, 1)
    lu = splu((ops.stiffness + eps * ops.mass).tocsc())
    v0 = np.random.default_rng(seed).standard_normal(n)
    # pad the request so a multiplicity cluster cut at index k still lies
    # inside the converged subspace; the smallest k survive the polish
    k_solve = min(n - 1, k + max(8, k // 4))
    ncv = min(n, max(2 * k_solve + 1, 20))
    try:
        values, vectors = eigsh(
            ops.stiffness,
            k=k_solve,
            M=ops.mass,
            sigma=-eps,
            which="LM",
            v0=v0,
            ncv=ncv,
            maxiter=MAX_RESTARTS,
            tol=tol,
            OPinv=LinearOperator((n, n), matvec=lu.solve, dtype=float),
        )
    except ArpackNoConvergence as exc:
        raise SolverConvergenceError(
            "Lanczos iteration did not converge within %d restarts" % MAX_RESTARTS,
            converged=len(getattr(exc, "eigenvalues", [])),
            requested=k_solve,
        )

    # ARPACK stops at ``tol`` relative to the shift-inverted eigenvalues,
    # which does not by itself bound the residuals in the original pencil.
    # The Ritz re-extraction below and the check in _finalize enforce that
    # bound.  On icosphere and torus meshes at the default tol the worst
    # kept residual comes out at 1e-4 to 1e-3 of it, so no polish sweep runs.
    # Block inverse iteration with the same LU (full reorthogonalization
    # plus Ritz re-extraction each sweep) is a safety net for pairs that
    # miss half the bound.
    mass_diag = ops.mass_diag
    converged = False
    for _ in range(MAX_POLISH_STEPS):
        values, vectors = _ritz_extract(ops, vectors)
        residuals, lv_scale = _residual_norms(ops, values[:k], vectors[:, :k])
        if np.all(residuals <= 0.5 * tol * lv_scale):
            converged = True
            break
        vectors = lu.solve(mass_diag[:, None] * vectors)
    if not converged:
        values, vectors = _ritz_extract(ops, vectors)
    # release the factorization before the final checks allocate their blocks
    del lu
    return _finalize(values[:k], vectors[:, :k], ops, tol, solved=values)


def dense_eigenbasis(ops: SparseOperatorPair, k: int | None = None) -> EigenBasis:
    """Full dense generalized eigensolve, the oracle path for small meshes."""
    n = ops.stiffness.shape[0]
    if n > 3000:
        raise UsageError("dense path refused for %d vertices" % n, n=n)
    lmat = ops.stiffness.toarray()
    lmat = 0.5 * (lmat + lmat.T)
    solved, vectors = dla.eigh(lmat, ops.mass.toarray())
    if k is None:
        k = n
    elif k < 1 or k > n:
        raise UsageError("k must satisfy 1 <= k <= %d, got %d" % (n, k), k=k)
    return _finalize(solved[:k], vectors[:, :k], ops, tol=1e-8, solved=solved)
