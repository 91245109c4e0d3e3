"""Smallest eigenpairs of the generalized problem L v = lambda M v.

Sparse path: shift-inverted Lanczos seeded deterministically, with the
shift placed just below zero so the kernel (constant functions on a closed
surface) is resolved reliably.  ARPACK stops at the caller's ``tol``; a
Rayleigh-Ritz re-extraction follows, and every kept pair must then meet
``||L v - lambda M v|| <= tol * max(1, ||L v||)``.

Every factorization goes through :func:`_factor`.  It factors the pencil
in the mesh's nested-dissection order (``SparseOperatorPair.ordering``,
computed by :func:`specgeom.mesh.nested_dissection` before the mesh's
first factorization and kept with the mesh), which SuperLU keeps
(``NATURAL``, symmetric mode).  That order is a function of the mesh
alone, so reruns factor the same matrix.  Shift-invert factorizations
keep SuperLU's threshold pivoting; inertia counts take diagonal pivots
only and refuse a count whose row and column orders differ or whose
smallest pivot is below ``PIVOT_FLOOR`` times the largest.

A request padded to at most ``WINDOW`` values is one window, solved on one
factorization of L + eps M.  No count checks it; a short Krylov block from
a second start vector joins its Ritz step, so a copy of a multiple
eigenvalue that ARPACK's single start vector missed is found.  Each
window's factorization is released before the Ritz step; a polish sweep
factors the windows' shifts again.  A larger request is sliced into
spectral windows (the shift-and-count strategy of Grimes, Lewis & Simon,
SIAM J. Matrix Anal. Appl. 15, 1994).  Each window ends at an edge placed
in a gap between its computed values, and the edge is counted by
Sylvester's law of inertia (:func:`inertia`).  A window is kept only when
it holds exactly as many values between its edges as the counts say; one
that comes back short is re-solved wider a bounded number of times and
then raises :class:`SolverConvergenceError` with the count and the number
kept.  A sliced solve therefore returns the k smallest values of a
certified set, never a truncated one.  Windows run in a fixed order with
seeds derived from ``seed``, so reruns are bit-identical.

After the last window, the Ritz step, the residual check and the final
checks hold the basis and at most one more basis-sized array.  The Ritz
step solves the projected pencil (V^T L V, V^T M V) with one generalized
LAPACK call and rotates the basis in place a block of rows at a time; the
products that are only reduced (the projected and gram matrices, the
residual norms, the sign fix) are formed a block of columns at a time
(``BLOCK``).

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
# The steps after the solve (the Ritz step, the residual norms, the sign fix
# and the gram checks) walk the basis in blocks of at least BLOCK bytes of its
# rows or columns; a basis of less than 2 BLOCK is one block, and its steps
# make the calls they would make on the whole basis.  Measured on 2 shared
# cores with one BLAS thread: on the 5,000 x 193 basis of 192 pairs on the
# 100x50 torus (7.4 MiB, 3 blocks) the three steps' peaks above their entry
# fell from 2.1, 3.0 and 1.25 times the basis to 0.7 each, in 82 ms against
# 83 ms unblocked (100 ms with 1 MiB blocks); the 40,962 x 28 basis of an L6
# icosphere takes 52 ms against 32 ms.
BLOCK = 2 << 20
# the most vertices the dense oracle solves
DENSE_MAX = 3000


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


def _blocks(count, width):
    """Slices that cover ``range(count)`` in steps of at least ``BLOCK``
    bytes of float64 values, ``width`` of them per index, and at least 2
    long when ``count`` is: numpy sums a C-ordered block of one column
    pairwise and a wider one row by row, as it sums the whole basis."""
    step = max(2, BLOCK // (8 * width))
    parts = max(1, count // step)
    bounds = [count * i // parts for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _fix_signs(vectors: np.ndarray) -> None:
    """Make the first significantly-nonzero entry of each column positive,
    in place, a block of columns at a time."""
    for cols in _blocks(vectors.shape[1], len(vectors)):
        block = vectors[:, cols]
        size = np.abs(block)
        lead = np.argmax(size > 1e-6 * size.max(axis=0), axis=0)
        block *= np.where(block[lead, np.arange(block.shape[1])] < 0.0, -1.0, 1.0)


def _gram(vectors, mass_diag):
    """``vectors^T M vectors``, a block of columns at a time."""
    gram = np.empty((vectors.shape[1],) * 2)
    for cols in _blocks(vectors.shape[1], len(vectors)):
        gram[:, cols] = vectors.T @ (vectors[:, cols] * mass_diag[:, None])
    return gram


def _ritz_extract(ops, vectors):
    """Rayleigh-Ritz on the pencil projected onto ``vectors``: ascending
    values, and the M-orthonormal Ritz vectors rotated over ``vectors``.

    Raw Krylov vectors inside a degenerate cluster carry arbitrary mixing,
    and a polish sweep returns them unnormalized; one generalized
    eigensolve of the projected stiffness and gram matrices resolves both.
    To hold at most one more basis-sized array, both are formed by column
    blocks, the stiffness first; LAPACK's ``gv`` driver solves them in place
    as F-ordered views (reading the upper triangle of the projected
    stiffness); and the gram is gone before the rotation, by row blocks.
    """
    width = vectors.shape[1]
    projected = np.empty((width, width))
    for cols in _blocks(width, len(vectors)):
        projected[:, cols] = vectors.T @ (ops.stiffness @ vectors[:, cols])
    try:
        values, rotation = dla.eigh(projected.T, _gram(vectors, ops.mass_diag).T,
                                    overwrite_a=True, overwrite_b=True, driver="gv")
    except dla.LinAlgError:
        gram = _gram(vectors, ops.mass_diag)
        raise SolverConvergenceError(
            "returned basis is numerically mass-degenerate",
            gram_error=float(np.max(np.abs(gram - np.eye(width)))),
        )
    for rows in _blocks(len(vectors), width):
        vectors[rows] = vectors[rows] @ rotation
    return values, vectors


def _residual_norms(ops, values, vectors):
    """``||L v - lambda M v||`` and ``max(1, ||L v||)`` of each pair, a
    block of columns at a time."""
    residuals, lv_norms = np.empty(len(values)), np.empty(len(values))
    for cols in _blocks(len(values), len(vectors)):
        block = vectors[:, cols]
        lv = ops.stiffness @ block
        lv_norms[cols] = np.linalg.norm(lv, axis=0)
        lv -= block * (ops.mass_diag[:, None] * values[None, cols])
        residuals[cols] = np.linalg.norm(lv, axis=0)
    return residuals, np.maximum(1.0, lv_norms)


def _finalize(values, vectors, ops, tol, solved=None, norms=None):
    """Fix signs in place and check the contract of pairs that arrive
    ascending and M-orthonormal (from :func:`_ritz_extract` or ``eigh``),
    given their :func:`_residual_norms`, which a sign does not change, if known.

    ``solved`` holds every value computed, kept or not (default ``values``);
    its largest |value| is the scale of the zero-mode count.
    """
    _fix_signs(vectors)
    # the k x k gram is gone before the pairs are copied
    gram_error = float(np.max(np.abs(_gram(vectors, ops.mass_diag) - np.eye(len(values)))))
    residuals, lv_scale = norms or _residual_norms(ops, values, vectors)
    bounds = tol * lv_scale
    if gram_error > GRAM_TOL or np.any(residuals > bounds):
        worst = int(np.argmax(residuals / bounds))
        raise SolverConvergenceError(
            "eigenpairs failed the residual or orthonormality check",
            worst_residual=float(residuals[worst]),
            bound=float(bounds[worst]),
            index=worst + 1,
            gram_error=gram_error,
        )
    scale = float(np.max(np.abs(values if solved is None else solved), initial=0.0))
    if vectors.base is not None and vectors.base.size > vectors.size:
        # own exactly these pairs, not the padded basis they are cut from;
        # "K" keeps the layout, which later products read
        vectors = vectors.copy(order="K")
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
    pencil is indefinite at a shift inside the spectrum; one that SuperLU
    finds exactly singular is a :class:`SolverConvergenceError` naming the
    shift, and a singular count stays SuperLU's ``RuntimeError``.
    """
    order = ops.ordering
    matrix = (ops.stiffness - shift * ops.mass)[order][:, order].tocsc()
    pivoting = dict(diag_pivot_thresh=0.0) if count else {}
    try:
        lu = splu(matrix, permc_spec="NATURAL", options=dict(SymmetricMode=True), **pivoting)
    except RuntimeError as exc:
        if count:
            raise
        raise SolverConvergenceError("shift-invert factorization at shift %g failed: %s"
                                     % (shift, exc), shift=float(shift))
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


def _slices(ops, eps, k, tol, seed, v0):
    """The k smallest eigenpairs, solved window by window.

    Returns the edges between windows, each window's shift, the pairs in
    every window's ``[lo, hi)`` (exactly as many as the inertia
    counts at its edges say) and every value computed.  Window 1 is the
    one-window solve (shift ``-eps``, start ``v0``) cut to ``WINDOW``
    values.  Each later window is centred by :func:`_centre`, so that its
    values reach below the previous edge.  Every window factors its own
    shift and drops the factorization once the window is kept.  A window
    that comes back short of its count is re-solved wider on the same
    factorization, at most ``MAX_WIDEN`` times, with the same edge and a
    start vector of its own.
    """
    n = ops.stiffness.shape[0]
    shifts, edges, kept_values, kept_vectors, solved = [], [], [], [], []
    lo, below, centre, size = -np.inf, 0, -eps, WINDOW
    while below < k:
        if shifts:
            size = min(WINDOW, n - 1, k - below + 2 * GUARD + 1)
            centre = _centre(ops, lo, below, size - 2 * GUARD, spacing)
            v0 = np.random.default_rng([seed, len(shifts)]).standard_normal(n)
        lu = _factor(ops, centre)
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
        del lu
        shifts.append(centre)
        edges.append(hi)
        kept_values.append(values[inside])
        kept_vectors.append(vectors[:, inside])
        top = values[-(len(values) // 4 + 1):]
        spacing = (top[-1] - top[0]) / (len(top) - 1)
        lo, below = hi, count
    del vectors  # the last window's solve: its kept pairs are copied
    values = np.concatenate(kept_values)
    vectors = np.concatenate(kept_vectors, axis=1)
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
    # transformed eigenvalues and is found first
    eps = 1e-8 * ops.stiffness.diagonal().sum() / max(ops.stiffness.nnz, 1)
    # pad the request so a multiplicity cluster cut at index k still lies
    # inside the converged subspace; the smallest k survive the polish.  A
    # pad clipped at n - 1 leaves no room above k for a window edge
    k_solve = min(n - 1, k + max(8, k // 4))
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if k_solve <= WINDOW or k_solve == n - 1:
        lu = _factor(ops, -eps)
        values, vectors = _lanczos(ops, lu, -eps, k_solve, tol, v0)
        # From one start vector, Lanczos finds the second and later copies
        # of a multiple eigenvalue only through rounding, and it can miss
        # one.  A Krylov block from a second start, M-orthogonal to ARPACK's
        # vectors, joins the Ritz step, so a copy it missed comes in among
        # the k smallest Ritz values and the polish loop converges it.
        block = _krylov(ops, lu, vectors, rng.standard_normal(n), min(GUARD, n - k_solve))
        del lu
        vectors = np.hstack([vectors, block])
        edges, shifts, solved = [], [-eps], []
    else:
        edges, shifts, values, vectors, solved = _slices(ops, eps, k, tol, seed, v0)

    # ARPACK stops at ``tol`` relative to the shift-inverted eigenvalues,
    # which does not by itself bound the residuals in the original pencil.
    # The Ritz re-extraction below and the check in _finalize enforce that
    # bound.  On connected icosphere and torus meshes at the default tol the
    # worst kept residual comes out at 1e-4 to 1e-3 of it, so no polish
    # sweep runs; two disjoint L3 icospheres (1,284 vertices, k = 4 to 8)
    # take one or two.  Block inverse iteration (full reorthogonalization
    # plus Ritz re-extraction each sweep) polishes the pairs that miss half
    # the bound, each with the factorization of the window it lies in, made
    # again at the window's shift.  The last pass's pairs are the result.
    mass_diag = ops.mass_diag
    lus = None
    for sweep in range(MAX_POLISH_STEPS + 1):
        values, vectors = _ritz_extract(ops, vectors)
        residuals, lv_scale = _residual_norms(ops, values[:k], vectors[:, :k])
        if sweep == MAX_POLISH_STEPS or np.all(residuals <= 0.5 * tol * lv_scale):
            break
        lus = lus or [_factor(ops, shift) for shift in shifts]
        parts = np.split(mass_diag[:, None] * vectors, np.searchsorted(values, edges), axis=1)
        parts = [lu_w.solve(part) for lu_w, part in zip(lus, parts)]
        vectors = parts[0] if len(parts) == 1 else np.hstack(parts)
    # release the factorizations before the final checks allocate their blocks
    del lus
    # the zero-mode scale covers the Ritz values of the solve's own pairs
    # (not the second start's) and every window's values
    solved = np.concatenate([values[:k_solve], solved])
    return _finalize(values[:k], vectors[:, :k], ops, tol, solved=solved,
                     norms=(residuals, lv_scale))


def dense_eigenbasis(ops: SparseOperatorPair, k: int | None = None) -> EigenBasis:
    """Full dense generalized eigensolve, the oracle path for small meshes."""
    n = ops.stiffness.shape[0]
    if n > DENSE_MAX:
        raise UsageError("dense path refused for %d vertices" % n, n=n)
    if k is None:
        k = n
    elif k < 1 or k > n:
        raise UsageError("k must satisfy 1 <= k <= %d, got %d" % (n, k), k=k)
    # L is exactly symmetric: L[i, j] and L[j, i] sum the same two weights
    solved, vectors = dla.eigh(ops.stiffness.toarray(), ops.mass.toarray())
    return _finalize(solved[:k], vectors[:, :k], ops, tol=1e-8, solved=solved)
