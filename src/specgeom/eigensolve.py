"""Smallest eigenpairs of the generalized problem L v = lambda M v.

Sparse path: shift-inverted Lanczos seeded deterministically, with the
shift placed just below zero so the kernel (constant functions on a closed
surface) is resolved reliably.  ARPACK stops at the caller's ``tol``; a
Rayleigh-Ritz re-extraction follows, and every kept pair must then meet
``||L v - lambda M v|| <= tol * max(1, ||L v||)``.

Every factorization goes through :func:`_factor`.  It factors the pencil
in the mesh's nested-dissection order (``SparseOperatorPair.ordering``,
computed once per mesh by :func:`specgeom.mesh.nested_dissection`), which
SuperLU keeps (``NATURAL``, symmetric mode).  That order is a function of
the mesh alone, so reruns factor the same matrix.  Shift-invert factorizations keep SuperLU's threshold
pivoting; inertia counts take diagonal pivots only and refuse a count whose
row and column orders differ or whose smallest pivot is below
``PIVOT_FLOOR`` times the largest.

A request padded to at most ``WINDOW`` values is one window: the shifted
pencil L + eps M is factorized once, and ARPACK and the polish loop both
use that LU.  No count checks it; a short Krylov block from a second start
vector joins its Ritz step, so a copy of a multiple eigenvalue that
ARPACK's single start vector missed is found.  A larger request is sliced into spectral windows (the
shift-and-count strategy of Grimes, Lewis & Simon, SIAM J. Matrix Anal.
Appl. 15, 1994).  Each window ends at an edge placed in a gap between its
computed values, and the edge is counted by Sylvester's law of inertia
(:func:`inertia`).  A window is kept only when it holds exactly as many
values between its edges as the counts say; one that comes back short is
re-solved wider a bounded number of times and then raises
:class:`SolverConvergenceError` with the count and the number kept.  A
sliced solve therefore returns the k smallest values of a certified set,
never a truncated one.  Windows run in a fixed order with seeds derived
from ``seed``, so reruns are bit-identical.

Dense path: a full LAPACK solve used as an independent oracle on small
meshes.  Both return the same container and obey the same normalization
and sign conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as dla
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

# errors.check_tol is read through its module: an imported function would
# add a span to every solve traced by perfbench/tracer.py
from . import errors
from .errors import SolverConvergenceError, UsageError
from .mesh import SparseOperatorPair
from .models import IndexedSpectrum

MAX_RESTARTS = 500
MAX_POLISH_STEPS = 40
GRAM_TOL = 1e-8
ZERO_REL = 1e-8
# A request padded above WINDOW values is solved in windows of at most
# WINDOW values (see _slices).  Measured on 2 shared cores with one BLAS
# thread: at k = 192 on the 100x50 torus of revolution, windows of 90 to
# 140 values took 1.9-2.4 s against 3.4 s for one window; on an L4
# icosphere, an ellipsoid and an 80x40 torus the fastest size varied
# within that range, and each size in it beat one window 1.3-3.3x.  120
# keeps every request up to k = 96 on the one-window path.
# GUARD is the number of gaps a window's edge is chosen from, the number of
# values it reaches past its edges and the length of the one-window solve's
# second-start block (see solve_smallest), MAX_WIDEN bounds the re-solves of a
# short window, EDGE_TRIES the inertia counts per edge or centre, and a
# pivot below PIVOT_FLOOR times the largest puts the shift on an eigenvalue.
WINDOW = 120
GUARD = 8
MAX_WIDEN = 2
EDGE_TRIES = 4
PIVOT_FLOOR = 1e-12


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


class _Factors:
    """SuperLU factors ``lu`` of ``(L - shift M)[p][:, p]`` for the pair's
    ordering ``p``; :meth:`solve` takes and returns vertex order."""

    def __init__(self, lu, order):
        self.lu, self.order = lu, order

    def solve(self, rhs):
        out = np.empty(rhs.shape)
        out[self.order] = self.lu.solve(rhs[self.order])
        return out


def _factor(ops, shift, count=False):
    """Factor ``L - shift M`` in the pair's ordering: every factorization
    this module makes.

    SuperLU keeps that order (``NATURAL``) and, in symmetric mode, prefers
    diagonal pivots.  A count (``count=True``) takes only diagonal pivots,
    so its factors are the LDL^T that :func:`inertia` reads.  A
    shift-invert factorization keeps SuperLU's threshold pivoting, as the
    pencil is indefinite at a shift inside the spectrum.
    """
    order = ops.ordering
    matrix = (ops.stiffness - shift * ops.mass)[order][:, order].tocsc()
    pivoting = dict(diag_pivot_thresh=0.0) if count else {}
    lu = splu(matrix, permc_spec="NATURAL", options=dict(SymmetricMode=True), **pivoting)
    return _Factors(lu, order)


def inertia(ops: SparseOperatorPair, sigma: float) -> int | None:
    """Number of eigenvalues of (L, M) below ``sigma``, or None when
    ``sigma`` sits on one.

    Sylvester's law of inertia: a symmetric LDL^T factorization of
    ``L - sigma M`` has as many negative pivots as the pencil has eigenvalues
    below ``sigma``, and so does its symmetric permutation.  SuperLU in
    symmetric mode with diagonal pivoting gives that factorization when its
    row and column orders agree; a near-zero pivot (or an exactly singular
    matrix) means ``sigma`` is an eigenvalue to rounding, where the count
    is not to be trusted.
    """
    try:
        lu = _factor(ops, sigma, count=True).lu
    except RuntimeError:
        return None
    pivots = lu.U.diagonal()
    size = np.abs(pivots)
    if not np.array_equal(lu.perm_r, lu.perm_c) or size.min() <= PIVOT_FLOOR * size.max():
        return None
    return int(np.count_nonzero(pivots < 0.0))


def _lanczos(ops, lu, sigma, k, tol, v0):
    """The k eigenpairs of (L, M) nearest ``sigma``, by shift-invert Lanczos
    on the factorization ``lu`` of ``L - sigma M``."""
    n = ops.stiffness.shape[0]
    try:
        values, vectors = eigsh(
            ops.stiffness,
            k=k,
            M=ops.mass,
            sigma=sigma,
            which="LM",
            v0=v0,
            ncv=min(n, max(2 * k + 1, 20)),
            maxiter=MAX_RESTARTS,
            tol=tol,
            OPinv=LinearOperator((n, n), matvec=lu.solve, dtype=float),
        )
    except ArpackNoConvergence as exc:
        raise SolverConvergenceError(
            "Lanczos iteration did not converge within %d restarts" % MAX_RESTARTS,
            converged=len(getattr(exc, "eigenvalues", [])),
            requested=k,
        )
    return values, vectors


def _krylov(ops, lu, vectors, start, steps):
    """An M-orthonormal basis, M-orthogonal to ``vectors`` and at most
    ``steps`` long, of the Krylov space from ``start`` of the shift-inverted
    pencil whose factorization is ``lu``."""
    mass = ops.mass_diag
    block = np.empty((len(mass), steps))
    q = start
    for j in range(steps):
        if j:
            q = lu.solve(mass * block[:, j - 1])
        size = np.sqrt(q @ (mass * q))
        for basis in (vectors, block[:, :j]) * 2:
            q = q - basis @ (basis.T @ (mass * q))
        norm = np.sqrt(q @ (mass * q))
        if not norm > ZERO_REL * size:
            return block[:, :j]  # an invariant space: what is left is rounding
        block[:, j] = q / norm
    return block


def _edge(ops, values, lo, need, tol):
    """Place a window's top edge in a gap of its sorted ``values`` and count
    it: ``(edge, inertia)``, or None when no gap serves.

    Candidate gaps lie above ``lo`` and are wider than ``tol`` relative to
    the window's largest value (closer values may be one eigenvalue).  They
    are the ``GUARD`` gaps from the one above the ``need``-th value above
    ``lo``, or the window's top ``GUARD`` gaps if it ends sooner.  Gaps
    that finish the request go first, then the widest: the first whose
    midpoint counts cleanly wins, so an edge on an eigenvalue moves on.
    """
    first = int(np.searchsorted(values, lo))
    gaps = np.diff(values)
    top = len(values) - 1
    start = first + need - 1  # the gap above the ``need``-th value
    cands = np.arange(max(first, min(start, top - GUARD)), min(start + GUARD, top))
    cands = cands[gaps[cands] > tol * np.max(np.abs(values))]
    # edges that finish the request first, then the widest
    for i in cands[np.lexsort((-gaps[cands], cands < start))][:EDGE_TRIES]:
        sigma = 0.5 * (values[i] + values[i + 1])
        count = inertia(ops, sigma)
        if count is not None:
            return sigma, count
    return None


def _centre(ops, lo, below, target, spacing):
    """A window centre whose mirror image of ``lo`` has at most ``target``
    eigenvalues between them, so that the window's nearest values reach
    below ``lo``.

    The first guess for the distance to the mirror is ``target`` times the
    previous window's spacing.  Each inertia count at the mirror rescales
    it towards 7/8 of ``target`` (growing it at most 2x) until a count
    lands between 3/4 of ``target`` and ``target``.  The centre is the
    last mirror found with at most ``target`` values, or the last guess.
    """
    reach, best = target * spacing, None
    for _ in range(EDGE_TRIES):
        count = inertia(ops, lo + reach)
        if count is None:
            reach *= 1.01
            continue
        found = count - below
        if found <= target:
            best = reach
            if 4 * found >= 3 * target:
                break
        reach *= min(2.0, 0.875 * target / max(found, 1))
    return lo + 0.5 * (reach if best is None else best)


def _slices(ops, lu, eps, k, tol, seed, v0):
    """The k smallest eigenpairs, solved window by window.

    Returns the edges between windows, each window's shift, the pairs in
    every window's ``[lo, hi)`` (exactly as many as the inertia
    counts at its edges say) and every value computed.  Window 1 is the
    one-window solve (shift ``-eps``, factorization ``lu``, start ``v0``)
    cut to ``WINDOW`` values.  Each later window has its own factorization
    at a centre from :func:`_centre`, so that its values reach below the
    previous edge.  A window that comes back short of its count is re-solved
    wider, at most ``MAX_WIDEN`` times, with the same edge and a start
    vector of its own.
    """
    n = ops.stiffness.shape[0]
    shifts, edges, kept_values, kept_vectors, solved = [], [], [], [], []
    lo, below, centre, size = -np.inf, 0, -eps, WINDOW
    while below < k:
        if shifts:
            size = min(WINDOW, n - 1, k - below + 2 * GUARD + 1)
            centre = _centre(ops, lo, below, size - 2 * GUARD, spacing)
            lu = _factor(ops, centre)
            v0 = np.random.default_rng([seed, len(shifts)]).standard_normal(n)
        edge = None
        for attempt in range(MAX_WIDEN + 1):
            values, vectors = _lanczos(ops, lu, centre, size, tol, v0)
            order = np.argsort(values, kind="stable")
            values, vectors = values[order], vectors[:, order]
            solved.append(values)
            # the edge, once counted, stays for the wider re-solves
            edge = edge or _edge(ops, values, lo, k - below, tol)
            if edge:
                hi, count = edge
                inside = (values >= lo) & (values < hi)
                kept = int(np.count_nonzero(inside))
                if kept == count - below:
                    break
            size = min(n - 1, size + max(8, size // 4))
            v0 = np.random.default_rng([seed, len(shifts), attempt + 1]).standard_normal(n)
        else:
            if edge is None:
                raise SolverConvergenceError(
                    "no eigenvalue gap above %g gave a clean inertia count" % lo,
                    lo=float(lo),
                    returned=len(values),
                )
            raise SolverConvergenceError(
                "spectrum window [%g, %g) kept %d eigenvalues, inertia counts %d"
                % (lo, hi, kept, count - below),
                inertia=count - below,
                kept=kept,
                lo=float(lo),
                hi=float(hi),
            )
        shifts.append(centre)
        edges.append(hi)
        kept_values.append(values[inside])
        kept_vectors.append(vectors[:, inside])
        top = values[-(len(values) // 4 + 1):]
        spacing = (top[-1] - top[0]) / (len(top) - 1)
        lo, below = hi, count
    values, vectors = np.concatenate(kept_values), np.hstack(kept_vectors)
    return edges[:-1], shifts, values, vectors, np.concatenate(solved)


def solve_smallest(
    ops: SparseOperatorPair, k: int, tol: float = 1e-9, seed: int = 0
) -> EigenBasis:
    """The k smallest eigenpairs of (L, M), deterministic for a fixed seed.

    The kernel of L appears as eigenvalues below the zero threshold (they
    may round to tiny negatives).  Raises a convergence error with the best
    residuals attached if the iteration stalls, and with the inertia count
    and the values kept if a window of a sliced solve comes back short.
    """
    n = ops.stiffness.shape[0]
    if k < 1 or k >= n:
        raise UsageError("k must satisfy 1 <= k < %d, got %d" % (n, k), k=k)
    errors.check_tol(tol)

    # shift slightly below the spectrum so the kernel maps to the largest
    # transformed eigenvalues and is found first; the factorization of the
    # shifted pencil serves both ARPACK and the polish loop
    eps = 1e-8 * ops.stiffness.diagonal().sum() / max(ops.stiffness.nnz, 1)
    lu = _factor(ops, -eps)
    # pad the request so a multiplicity cluster cut at index k still lies
    # inside the converged subspace; the smallest k survive the polish.  A
    # pad clipped at n - 1 leaves no room above k for a window edge
    k_solve = min(n - 1, k + max(8, k // 4))
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if k_solve <= WINDOW or k_solve == n - 1:
        values, vectors = _lanczos(ops, lu, -eps, k_solve, tol, v0)
        # From one start vector, Lanczos finds the second and later copies
        # of a multiple eigenvalue only through rounding, and it can miss
        # one.  A Krylov block from a second start, M-orthogonal to ARPACK's
        # vectors, joins the Ritz step, so a copy it missed comes in among
        # the k smallest Ritz values and the polish loop converges it.
        block = _krylov(ops, lu, vectors, rng.standard_normal(n), min(GUARD, n - k_solve))
        vectors = np.hstack([vectors, block])
        edges, lus, solved = [], [lu], []
    else:
        edges, shifts, values, vectors, solved = _slices(ops, lu, eps, k, tol, seed, v0)
        # the windows' factorizations are released here, before the Ritz
        # step's blocks are allocated, and made again only for a polish sweep
        lus = None
    del lu

    # ARPACK stops at ``tol`` relative to the shift-inverted eigenvalues,
    # which does not by itself bound the residuals in the original pencil.
    # The Ritz re-extraction below and the check in _finalize enforce that
    # bound.  On connected icosphere and torus meshes at the default tol the
    # worst kept residual comes out at 1e-4 to 1e-3 of it, so no polish
    # sweep runs; two disjoint L3 icospheres (1,284 vertices, k = 4 to 8)
    # take one or two.  Block inverse iteration (full reorthogonalization
    # plus Ritz re-extraction each sweep) polishes the pairs that miss half
    # the bound, each with the factorization of the window it lies in.
    mass_diag = ops.mass_diag
    converged = False
    for _ in range(MAX_POLISH_STEPS):
        values, vectors = _ritz_extract(ops, vectors)
        residuals, lv_scale = _residual_norms(ops, values[:k], vectors[:, :k])
        if np.all(residuals <= 0.5 * tol * lv_scale):
            converged = True
            break
        if lus is None:
            lus = [_factor(ops, shift) for shift in shifts]
        parts = np.split(mass_diag[:, None] * vectors, np.searchsorted(values, edges), axis=1)
        parts = [lu_w.solve(part) for lu_w, part in zip(lus, parts)]
        vectors = parts[0] if len(parts) == 1 else np.hstack(parts)
    if not converged:
        values, vectors = _ritz_extract(ops, vectors)
    # release the factorizations before the final checks allocate their blocks
    del lus
    # the zero-mode scale covers the Ritz values of the solve's own pairs
    # (not the second start's) and every window's values
    solved = np.concatenate([values[:k_solve], solved])
    return _finalize(values[:k], vectors[:, :k], ops, tol, solved=solved)


def dense_eigenbasis(ops: SparseOperatorPair, k: int | None = None) -> EigenBasis:
    """Full dense generalized eigensolve, the oracle path for small meshes."""
    n = ops.stiffness.shape[0]
    if n > 3000:
        raise UsageError("dense path refused for %d vertices" % n, n=n)
    if k is None:
        k = n
    elif k < 1 or k > n:
        raise UsageError("k must satisfy 1 <= k <= %d, got %d" % (n, k), k=k)
    lmat = ops.stiffness.toarray()
    lmat = 0.5 * (lmat + lmat.T)
    solved, vectors = dla.eigh(lmat, ops.mass.toarray())
    return _finalize(solved[:k], vectors[:, :k], ops, tol=1e-8, solved=solved)
