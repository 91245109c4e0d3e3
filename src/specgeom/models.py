"""Closed-form spectra and extrinsic constants for model manifolds.

Covers round spheres (squared Dirac operator and scalar Laplacian) and flat
tori given by a lattice and a spin structure, with the extrinsic constants
of round spheres and of products of two circles.  Eigenvalues are always
reported for nonnegative operators (the Dirac operator enters through its
square), ascending, with exact multiplicities.

Conventions
-----------
* Sphere S^n(r): spec(D^2) = ((n/2 + k)/r)^2 with multiplicity
  2 * 2^[n/2] * C(k+n-1, k); spec(Laplacian) = k(k+n-1)/r^2 with the
  spherical-harmonic multiplicities.
* Flat torus R^n/Lambda: the dual lattice is taken with the pairing
  <gamma, lambda> in 2*pi*Z, so the Laplace eigenvalues are |gamma|^2 and
  the squared Dirac eigenvalues are |gamma + delta|^2 where delta is the
  half-integer spin shift expressed in the dual basis.  Each dual vector
  contributes 2^[n/2] to the Dirac multiplicity.
* The dual vectors come from an integer box around a ball that a
  lattice's spin shifts share.  The probe (``torus_dirac_lowest``) reads
  the two lowest norms of every shift on a stack of lattices
  (``LatticeStack``, the sweep's aspect ratios as arrays from one stacked
  determinant and inverse), a chunk of consecutive lattices at a time, in
  the union of their boxes; its first radius always holds them.  One
  lattice's spectrum enumerates its one spin shift and grows its own
  radius until it holds the dual vectors asked for.  Shells are grouped
  relative to the lattice's squared dual spacing, so a lattice scaled by
  2^k has every value scaled by 4^-k, bit for bit.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyRequestError,
    IndexRangeError,
    InvalidModelError,
)

# Distinct eigenvalue shells of the model operators are separated by gaps of
# order 1; collisions of genuinely equal values land many orders of magnitude
# inside this tolerance.
VALUE_GROUP_RTOL = 1e-9

# A shell's first value below this times the lattice's squared dual spacing
# is enumeration roundoff, an exact 0.
ZERO_FLOOR_REL = 1e-30

OPERATOR_KINDS = ("dirac_squared", "laplace")

# Grid points in one lattice's dual enumeration box, which all spin shifts
# of a request share.  The model-sweep probe (ratios 0.5 to 4) needs at most
# 136; ``spectrum`` on the "1 0; 0 1e-12" lattice (trivial spin, default 16
# values) needs 4.2e7.  A box past this limit would need many GiB: an error.
MAX_DUAL_BOX = 10**8

# Lattices times grid points that one enumeration chunk of consecutive
# lattices may hold in their union box, for all shifts at once: (n + 1)
# float64s per point and shift, 384 KiB for a 2-torus.  About 30 lattices of
# the model-sweep probe fit; a lattice whose own box is larger runs alone.
CHUNK_POINTS = 4096

# The first dual-lattice radius is this factor times (k * dual covolume)^(1/n)
# for k requested dual vectors, plus the length of the longest spin shift.  One
# lattice's spectrum grows it by 1.5 until k dual vectors lie inside; the
# probe's 2 dual vectors always do.
FIRST_RADIUS_FACTOR = 1.5


# ---------------------------------------------------------------------------
# spectrum containers


class IndexedSpectrum:
    """The read interface shared by exact and computed spectra.

    Indices are 1-based and multiplicity-repeated, and an index past the
    resolved part is an error, never a truncation.  Subclasses provide
    ``total_count``, ``zero_dim`` and ``_value(j)`` for
    ``1 <= j <= total_count``.
    """

    def gamma(self, j: int) -> float:
        """The j-th eigenvalue, 1-based, repeated by multiplicity."""
        if j < 1 or j > self.total_count:
            raise IndexRangeError(
                "index %d outside resolved spectrum of length %d"
                % (j, self.total_count),
                index=j,
                length=self.total_count,
            )
        return self._value(j)

    def gamma_bar(self, i: int) -> float:
        """The i-th nonzero eigenvalue (kernel skipped), 1-based."""
        if i < 1:
            raise IndexRangeError("nonzero-eigenvalue index %d < 1" % i, index=i)
        return self.gamma(i + self.zero_dim)


@dataclass(frozen=True)
class Spectrum(IndexedSpectrum):
    """Ascending eigenvalues with multiplicities for a nonnegative operator.

    ``entries`` is a tuple of (value, multiplicity) pairs with strictly
    increasing values.  Indexing is 1-based and multiplicity-repeated:
    ``gamma(1) <= gamma(2) <= ...``.  ``gamma_bar(i)`` skips the kernel,
    returning the i-th nonzero eigenvalue.
    """

    operator_kind: str
    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if self.operator_kind not in OPERATOR_KINDS:
            raise InvalidModelError(
                "unknown operator kind %r" % (self.operator_kind,),
                operator_kind=self.operator_kind,
            )
        if not self.entries:
            raise EmptyRequestError("spectrum with no entries")
        prev, cumulative = -math.inf, []
        for value, mult in self.entries:
            if value < 0.0:
                raise InvalidModelError("negative eigenvalue %r" % (value,))
            if value <= prev:
                raise InvalidModelError("entries not strictly increasing")
            if mult < 1 or mult != int(mult):
                raise InvalidModelError("bad multiplicity %r" % (mult,))
            prev = value
            cumulative.append(cumulative[-1] + mult if cumulative else mult)
        # the kernel dimension is the multiplicity of a leading 0 entry
        first, kernel = self.entries[0]
        object.__setattr__(self, "zero_dim", kernel if first == 0.0 else 0)
        object.__setattr__(self, "total_count", cumulative[-1])
        object.__setattr__(self, "cumulative", tuple(cumulative))

    def _value(self, j: int) -> float:
        return self.entries[bisect.bisect_left(self.cumulative, j)][0]

    def values(self, count: int) -> np.ndarray:
        """First ``count`` eigenvalues as a flat multiplicity-repeated array."""
        if count < 1:
            raise EmptyRequestError("requested %d eigenvalues" % count)
        if count > self.total_count:
            raise IndexRangeError(
                "requested %d values but only %d resolved"
                % (count, self.total_count),
                index=count,
                length=self.total_count,
            )
        # clip each shell to count: one Dirac shell of S^n holds over 2^(n/2) values
        mults = [min(m, count) for _, m in self.entries]
        return np.repeat([v for v, _ in self.entries], mults)[:count]

    def to_json_dict(self) -> dict:
        return {
            "operator": self.operator_kind,
            "entries": [[v, m] for v, m in self.entries],
            "zero_dim": self.zero_dim,
        }


def _entries_from_shells(shells, count):
    """Truncate an iterable of (value, mult) shells to cover ``count`` indices.

    Shells must already be ascending with complete multiplicities; the last
    kept shell keeps its full multiplicity so reported multiplicities are
    honest even when the cumulative count overshoots.
    """
    kept = []
    total = 0
    for value, mult in shells:
        kept.append((float(value), int(mult)))
        total += mult
        if total >= count:
            break
    if total < count:
        raise IndexRangeError(
            "shell enumeration exhausted at %d of %d values" % (total, count),
            length=total,
            index=count,
        )
    return tuple(kept)


# ---------------------------------------------------------------------------
# spheres


def spinor_rank(n: int) -> int:
    """Rank 2^[n/2] of the spinor bundle of an n-manifold, an
    ``InvalidModelError`` where it is not a finite float (n >= 2048)."""
    if n // 2 >= sys.float_info.max_exp:
        raise InvalidModelError("spinor rank 2^[n/2] is not a finite float", n=n)
    return 2 ** (n // 2)


def _check_sphere_args(n, radius, count, min_dim):
    if n < min_dim or int(n) != n:
        raise InvalidModelError("sphere dimension %r out of range" % (n,), n=n)
    if radius <= 0.0:
        raise InvalidModelError("sphere radius %r must be positive" % (radius,), radius=radius)
    if count < 1:
        raise EmptyRequestError("requested %d eigenvalues" % count)


def sphere_dirac_spectrum(n: int, radius: float, count: int) -> Spectrum:
    """First ``count`` eigenvalues of D^2 on the round sphere S^n(radius).

    Values ((n/2 + k)/r)^2, k = 0, 1, ..., each with multiplicity
    2 * 2^[n/2] * C(k+n-1, k).  The kernel is empty.
    """
    _check_sphere_args(n, radius, count, min_dim=2)
    shells = (
        (((n / 2.0 + k) / radius) ** 2, 2 * spinor_rank(n) * math.comb(k + n - 1, k))
        for k in itertools.count()
    )
    return Spectrum("dirac_squared", _entries_from_shells(shells, count))


def sphere_laplace_mult(n: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics on S^n."""
    if k == 0:
        return 1
    older = math.comb(n + k - 2, k - 2) if k >= 2 else 0
    return math.comb(n + k, k) - older


def sphere_laplace_spectrum(n: int, radius: float, count: int) -> Spectrum:
    """First ``count`` eigenvalues of the Laplacian on S^n(radius).

    Values k(k+n-1)/r^2 with the spherical-harmonic multiplicities; the
    constant functions give a one-dimensional kernel.
    """
    _check_sphere_args(n, radius, count, min_dim=1)
    shells = (
        (k * (k + n - 1) / radius**2, sphere_laplace_mult(n, k))
        for k in itertools.count()
    )
    return Spectrum("laplace", _entries_from_shells(shells, count))


def sphere_volume(n: int, radius: float = 1.0) -> float:
    """Riemannian volume of S^n(radius), checked to be a finite positive float."""
    try:
        volume = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0) * radius**n
    except OverflowError:
        volume = math.inf
    if not (math.isfinite(volume) and volume > 0.0):
        raise _sphere_out_of_range(n, radius)
    return volume


def _sphere_out_of_range(n, radius):
    return InvalidModelError("sphere constants are not finite floats with a positive volume",
                             n=n, radius=radius)


# ---------------------------------------------------------------------------
# flat tori


class LatticeStack(NamedTuple):
    """N full-rank lattices in R^n as arrays: ``bases`` (N, n, n) holds each
    lattice's generators as columns, ``duals`` (N, n, n) its dual lattice's
    generators, pairing in 2*pi*Z, ``covolumes`` (N,) and ``spacings`` (N,)
    the n-th roots of the dual covolumes."""

    bases: np.ndarray
    duals: np.ndarray
    covolumes: np.ndarray
    spacings: np.ndarray


def lattice_stack(bases) -> LatticeStack:
    """The lattices of the (N, n, n) stack ``bases``, from one stacked
    determinant and inverse; a singular basis, or a determinant or dual
    basis that is not finite, is an ``InvalidModelError``."""
    bases = np.ascontiguousarray(bases, dtype=float)
    with np.errstate(over="ignore"):
        dets = np.linalg.det(bases)
        if np.any(np.abs(dets) < 1e-300):
            raise InvalidModelError("lattice basis is singular")
        duals = np.ascontiguousarray(2.0 * math.pi * np.linalg.inv(bases).transpose(0, 2, 1))
    finite = np.isfinite(dets) & np.isfinite(duals).all(axis=(1, 2))
    if not finite.all():
        raise InvalidModelError("lattice determinant or dual basis is not finite",
                                determinant=float(dets[np.argmin(finite)]))
    covolumes = np.abs(dets)
    # 2 pi / covolume^(1/n), the n-th root of the dual covolume (2 pi)^n /
    # covolume, so that no power of 2 pi can overflow
    root = 1.0 / bases.shape[-1]
    spacings = np.array([2.0 * math.pi / c**root for c in covolumes.tolist()])
    return LatticeStack(bases, duals, covolumes, spacings)


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice in R^n; ``basis`` holds the generators as columns.

    A stack of one of :func:`lattice_stack`, kept as ``stack``:
    ``dual_basis`` holds the dual lattice's generators as columns,
    ``covolume`` and ``dual_spacing`` the stack's scalars."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise InvalidModelError("lattice basis must be square", shape=basis.shape)
        stack = lattice_stack(basis[None])
        dual = stack.duals[0]
        dual.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "dual_basis", dual)
        object.__setattr__(self, "covolume", float(stack.covolumes[0]))
        object.__setattr__(self, "dual_spacing", float(stack.spacings[0]))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class SpinStructure:
    """Half-integer shift per lattice generator: 0 (periodic) or 1/2."""

    shift: tuple[float, ...]

    def __post_init__(self):
        shift = tuple(float(s) for s in self.shift)
        for s in shift:
            if s not in (0.0, 0.5):
                raise InvalidModelError("spin shift entries must be 0 or 1/2", shift=shift)
        object.__setattr__(self, "shift", shift)

    @property
    def dim(self) -> int:
        return len(self.shift)

    @property
    def is_trivial(self) -> bool:
        return all(s == 0.0 for s in self.shift)

    def label(self) -> str:
        return ",".join("1/2" if s else "0" for s in self.shift)


def all_spin_structures(n: int) -> list[SpinStructure]:
    """All 2^n spin structures of the n-torus, lexicographic in the shifts."""
    return [SpinStructure(bits) for bits in itertools.product((0.0, 0.5), repeat=n)]


def _first_radii(stack: LatticeStack, shifts: np.ndarray, count: int):
    """The first enumeration radius of each lattice of ``stack`` for
    ``count`` dual vectors of every row of ``shifts``, and each lattice's
    reach: a dual vector no longer than R has coordinates at most R times
    the row norms of inv(G*) = B^T / 2 pi, so the basis column norms over
    2 pi."""
    with np.errstate(over="ignore"):  # a radius or reach past the floats fails the box check
        longest = np.linalg.norm(stack.duals @ shifts.T, axis=1).max(axis=1)
        radii = FIRST_RADIUS_FACTOR * count ** (1.0 / shifts.shape[1]) * stack.spacings + longest
        reach = np.linalg.norm(stack.bases, axis=1) / (2.0 * math.pi)
    return radii, reach


def _chunks(radii, reach, shifts):
    """Runs of consecutive lattices, as slices of the stack, each with its
    union box (lows, highs), whose length times the union's size stays
    within ``CHUNK_POINTS``.  Every lattice's own box is checked against
    ``MAX_DUAL_BOX`` before any grid is allocated."""
    with np.errstate(over="ignore", invalid="ignore"):
        half = radii[:, None] * reach
        lows = np.floor(-half - shifts.max(axis=0)) - 1
        highs = np.ceil(half - shifts.min(axis=0)) + 2
        sizes = np.prod(highs - lows, axis=1)
    if not np.all(sizes <= MAX_DUAL_BOX):  # a size that is not finite fails too
        raise InvalidModelError(
            "dual lattice enumeration needs more than %d grid points" % MAX_DUAL_BOX,
            limit=MAX_DUAL_BOX,
        )
    # k lattices cost at least k * sizes.min(), so no run is longer than this
    window = CHUNK_POINTS // int(sizes.min()) + 1
    start = 0
    while start < len(radii):
        lo = np.minimum.accumulate(lows[start:start + window])
        hi = np.maximum.accumulate(highs[start:start + window])
        # the run's cost with each next lattice added; the first always joins
        over = np.arange(2, len(lo) + 1) * np.prod(hi[1:] - lo[1:], axis=1) > CHUNK_POINTS
        end = 1 + (int(np.argmax(over)) if over.any() else len(over))
        yield slice(start, start + end), (lo[end - 1].astype(int).tolist(),
                                          hi[end - 1].astype(int).tolist())
        start += end


def _chunk_norms(chunk, union, radii, duals, shifts, count):
    """Sorted squared norms |G*(c + shift)|^2, c in the ``union`` box, of
    the lattices ``chunk``: one ``(rows, below)`` pair per row of
    ``shifts``, where row i of ``rows`` holds the first ``below[i]`` norms
    of the chunk's i-th lattice, those strictly below its own radius,
    ascending, then inf.  None when a lattice has fewer than ``count`` of
    them for some shift.  One product takes every shift, or one shift for a
    lone lattice past ``CHUNK_POINTS``."""
    lows, highs = union
    grid = np.indices([hi - lo for lo, hi in zip(lows, highs)]).reshape(len(lows), -1).T + lows
    gstar = np.ascontiguousarray(duals[chunk].transpose(0, 2, 1))
    limits = np.array([r**2 * (1.0 - 1e-12) for r in radii[chunk].tolist()])[:, None]
    batch = len(shifts) if len(gstar) * len(grid) <= CHUNK_POINTS else 1
    found = []
    for start in range(0, len(shifts), batch):
        points = (grid + shifts[start:start + batch, None, None]) @ gstar
        norms = np.einsum("...j,...j->...", points, points)
        inside = norms < limits
        below = inside.sum(axis=2)
        if np.any(below < count):
            return None
        # one row per shift and lattice, its norms inside first, so one sort serves all
        rows = np.full(below.shape + (below.max(),), np.inf)
        rows[np.arange(rows.shape[2]) < below[..., None]] = norms[inside]
        rows.sort(axis=2)
        found.extend(zip(rows, below))
    return found


def _lattice_norms(lat: Lattice, shift, count: int) -> np.ndarray:
    """Ascending squared norms |G*(c + shift)|^2 over c in Z^n of the dual
    lattice of ``lat``, at least ``count`` of them: all those strictly
    below R^2.  The radius R grows by 1.5, at most 63 times, until
    ``count`` dual vectors lie inside, which keeps every shell below it
    complete (no dual vector of smaller norm is missed)."""
    shifts = np.asarray([shift], dtype=float)
    radii, reach = _first_radii(lat.stack, shifts, count)
    for _ in range(64):
        [(chunk, union)] = _chunks(radii, reach, shifts)
        found = _chunk_norms(chunk, union, radii, lat.stack.duals, shifts, count)
        if found is not None:
            [(rows, below)] = found
            return rows[0, :below[0]]
        radii = radii * 1.5
    raise InvalidModelError("dual lattice enumeration failed to converge")


def _joins(v, first, floor):
    """Whether the value ``v`` joins the shell whose first value is
    ``first``: ``v - first <= VALUE_GROUP_RTOL * max(|v|, floor)``, on
    floats or elementwise on arrays."""
    gap = v - first
    return (gap <= VALUE_GROUP_RTOL * abs(v)) | (gap <= VALUE_GROUP_RTOL * floor)


def _snapped(v, floor):
    """A shell's first value ``v``: below ``floor`` it is enumeration
    roundoff, an exact 0.  On floats or elementwise on arrays."""
    return v * (abs(v) >= floor)


def _shells(norms: np.ndarray, scale: float):
    """Group a sorted nonnegative value array into ascending (value,
    multiplicity) shells, yielding each once the next one starts.

    A value joins the current shell by ``_joins``; a shell's first value
    below ``floor = ZERO_FLOOR_REL * scale`` is enumeration roundoff,
    reported as an exact 0 (``_snapped``).  ``scale`` is the lattice's
    squared dual spacing, so shells do not depend on the lattice's unit of
    length.
    """
    floor = ZERO_FLOOR_REL * scale
    first, mult = None, 0
    for v in norms.tolist():
        if mult and _joins(v, first, floor):
            mult += 1
        else:
            if mult:
                yield first, mult
            first, mult = _snapped(v, floor), 1
    if mult:
        yield first, mult


def _torus_spectrum(lat, shift, count, mult_factor, operator_kind):
    """The first ``count`` values of the flat torus R^n/lat whose squared
    norms are |G*(c + shift)|^2, each dual vector carrying ``mult_factor``
    values."""
    if count < 1:
        raise EmptyRequestError("requested %d eigenvalues" % count)
    # ceil(count / mult_factor) dual vectors
    shells = _shells(_lattice_norms(lat, shift, -(-count // mult_factor)), lat.dual_spacing**2)
    return Spectrum(operator_kind,
                    _entries_from_shells(((v, m * mult_factor) for v, m in shells), count))


def torus_dirac_spectrum(lat: Lattice, spin: SpinStructure, count: int) -> Spectrum:
    """First ``count`` eigenvalues of D^2 on the flat torus R^n/lat.

    For the spin structure with shift delta the eigenvalues are
    |gamma + G* delta|^2 over the dual lattice, each dual vector carrying
    multiplicity 2^[n/2].  The trivial structure has a 2^[n/2]-dimensional
    space of parallel spinors (the kernel).
    """
    if spin.dim != lat.dim:
        raise InvalidModelError(
            "spin structure dimension %d does not match lattice dimension %d"
            % (spin.dim, lat.dim),
            spin_dim=spin.dim,
            lattice_dim=lat.dim,
        )
    return _torus_spectrum(lat, spin.shift, count, spinor_rank(spin.dim), "dirac_squared")


def torus_dirac_lowest(stack: LatticeStack, spins):
    """The kernel dimension of D^2 and its lowest nonzero eigenvalue on the
    flat torus of each lattice of ``stack`` and spin structure of
    ``spins``, as two (N, len(spins)) arrays, read from the two lowest
    norms of one enumeration of each dual lattice, a chunk of consecutive
    lattices at a time.

    The lowest nonzero value's shell holds 2^[n/2] values per dual vector,
    so it is Gbar_1 = ... = Gbar_{2^[n/2]} of ``torus_dirac_spectrum``,
    whose shells follow the same rule (``_snapped``, ``_joins``).  A kernel
    is one dual vector, the trivial structure's zero: one more would be a
    dual vector 1e-15 spacings short, whose box is past ``MAX_DUAL_BOX``.
    """
    shifts = np.array([spin.shift for spin in spins], dtype=float)
    shifts = shifts.reshape(len(spins), stack.bases.shape[-1])
    lowest = np.empty((len(stack.bases), len(spins), 2))
    if lowest.size:  # no spin structure or no lattice leaves nothing to enumerate
        radii, reach = _first_radii(stack, shifts, 2)
        for chunk, union in _chunks(radii, reach, shifts):
            found = _chunk_norms(chunk, union, radii, stack.duals, shifts, 2)
            # In 2-D, c = 0 lies at |G* delta| <= ``longest``, and c plus the
            # shortest dual vector at most (4/3)^(1/4) ~ 1.075 dual spacings
            # further out; the first radius leaves 1.5 sqrt(2) ~ 2.12 spacings
            # of slack, so a short chunk is a broken invariant, never regrown.
            if found is None:
                raise InvalidModelError("the first dual radius holds fewer than 2 dual "
                                        "vectors of a spin shift")
            for s, (rows, _) in enumerate(found):
                lowest[chunk, s] = rows[:, :2]
    # squared as ``_torus_spectrum`` squares a float: numpy's x * x can differ
    floors = ZERO_FLOOR_REL * np.array([s**2 for s in stack.spacings.tolist()])[:, None]
    first, after = _snapped(lowest[..., 0], floors), _snapped(lowest[..., 1], floors)
    kernel = first == 0.0
    # past a kernel, the second norm starts the lowest nonzero shell
    if np.any(kernel & (_joins(lowest[..., 1], first, floors) | (after == 0.0))):
        raise InvalidModelError("flat-torus kernel of more than one dual vector")
    rank = spinor_rank(stack.bases.shape[-1])
    return np.where(kernel, rank, 0), np.where(kernel, after, first)


def torus_laplace_spectrum(lat: Lattice, count: int) -> Spectrum:
    """First ``count`` Laplace eigenvalues |gamma|^2 of the flat torus."""
    return _torus_spectrum(lat, np.zeros(lat.dim), count, 1, "laplace")


def clifford_torus_lattice() -> Lattice:
    """Lattice of the Clifford torus S^1(1/sqrt2)^2 in S^3, sqrt2*pi*Z^2."""
    return Lattice(math.sqrt(2.0) * math.pi * np.eye(2))


# ---------------------------------------------------------------------------
# extrinsic constants


@dataclass(frozen=True)
class ModelExtrinsic:
    """Constant extrinsic data of a homogeneous model immersion.

    ``H_sq`` is the squared mean curvature of the immersion into Euclidean
    space, ``B_sq`` the squared norm of the second fundamental form, and
    ``S`` the scalar curvature.
    """

    n: int
    H_sq: float
    B_sq: float
    S: float

    def __post_init__(self):
        gauss = self.n**2 * self.H_sq - self.B_sq - self.S
        scale = max(abs(self.n**2 * self.H_sq), abs(self.B_sq), abs(self.S), 1.0)
        if abs(gauss) > 1e-12 * scale:
            raise InvalidModelError(
                "extrinsic constants violate the Gauss identity",
                residual=gauss,
            )


FIELD_DIMENSION = {"R": 1, "C": 2, "Q": 4}


def field_dimension(field_id: str) -> int:
    """Real dimension of the base field: R -> 1, C -> 2, Q -> 4."""
    try:
        return FIELD_DIMENSION[field_id]
    except (KeyError, TypeError):
        raise InvalidModelError("unknown base field %r" % (field_id,), field=field_id)


def sphere_extrinsic(n: int, radius: float) -> ModelExtrinsic:
    """Extrinsic constants of the round sphere S^n(radius) in R^(n+1).

    Raises ``InvalidModelError`` when a constant is not a finite float,
    as for radii whose square overflows or underflows to 0.  The volume is
    ``sphere_volume``, computed apart, since no constant here needs it.
    """
    if n < 1 or radius <= 0:
        raise InvalidModelError("bad sphere parameters", n=n, radius=radius)
    try:
        r2 = radius**2
        consts = (1.0 / r2, n / r2, n * (n - 1) / r2)
    except (OverflowError, ZeroDivisionError):
        consts = (math.inf,)
    if not all(math.isfinite(c) for c in consts):
        raise _sphere_out_of_range(n, radius)
    return ModelExtrinsic(n, *consts)


def product_torus_extrinsic(*radii: float) -> tuple[Lattice, ModelExtrinsic]:
    """Lattice and extrinsic constants of S^1(r_1) x ... x S^1(r_n) in R^2n.

    The coordinate Laplacians give Delta x = -x/r_i^2 circle-wise, so
    sum_A (Delta x_A)^2 = sum_i 1/r_i^2 = n^2 H^2 = |B|^2; the torus is flat.
    """
    if not radii or min(radii) <= 0:
        raise InvalidModelError("circle radii must be positive", radii=list(radii))
    lat = Lattice(np.diag([2.0 * math.pi * r for r in radii]))
    n, curv_sum = len(radii), sum(1.0 / r**2 for r in radii)
    return lat, ModelExtrinsic(n, curv_sum / n**2, curv_sum, 0.0)
