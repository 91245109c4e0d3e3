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
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

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

OPERATOR_KINDS = ("dirac_squared", "laplace")

# Grid points in one dual-lattice enumeration box, which all spin shifts of
# a request share.  The model-sweep probe (ratios 0.5 to 4) needs at most
# 136; ``spectrum`` on the "1 0; 0 1e-12" lattice (trivial spin, default 16
# values) needs 4.2e7.  A box past this limit would need many GiB: an error.
MAX_DUAL_BOX = 10**8

# The first dual-lattice radius is this factor times (k * dual covolume)^(1/n)
# for k requested dual vectors, plus the length of the longest spin shift; the
# enumeration grows it by 1.5 until k dual vectors of every shift lie inside.
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
    """Rank 2^[n/2] of the spinor bundle of an n-manifold."""
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


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice in R^n; ``basis`` holds the generators as columns."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise InvalidModelError("lattice basis must be square", shape=basis.shape)
        with np.errstate(over="ignore"):
            det = float(np.linalg.det(basis))
            if abs(det) < 1e-300:
                raise InvalidModelError("lattice basis is singular")
            dual = 2.0 * math.pi * np.linalg.inv(basis).T
        if not (math.isfinite(det) and np.all(np.isfinite(dual))):
            raise InvalidModelError(
                "lattice determinant or dual basis is not finite", determinant=det
            )
        dual.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_dual_basis", dual)
        object.__setattr__(self, "covolume", abs(det))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @functools.cached_property
    def dual_spacing(self) -> float:
        """The n-th root of the dual covolume (2 pi)^n / covolume, taken as
        2 pi / covolume^(1/n) so that no power of 2 pi can overflow."""
        return 2.0 * math.pi / self.covolume ** (1.0 / self.dim)

    @functools.cached_property
    def dual_reach(self) -> np.ndarray:
        """Row norms of the inverse dual basis, inv(G*) = B^T / 2 pi, so the
        basis column norms over 2 pi: a dual vector no longer than R has
        coordinates at most R times these."""
        return np.linalg.norm(self.basis, axis=0) / (2.0 * math.pi)

    @property
    def dual_basis(self) -> np.ndarray:
        """Generators (as columns) of the dual lattice, pairing in 2*pi*Z."""
        return self._dual_basis


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


def _shifted_dual_norms(lat: Lattice, shifts, count: int) -> list[np.ndarray]:
    """Sorted squared norms |G*(c + shift)|^2 over c in Z^n, at least
    ``count`` of them, for each shift of the stack ``shifts`` (one per row),
    in order; no shifts give an empty list.

    The shifts share one enumeration radius and one integer box.  The radius
    grows geometrically until at least ``count`` dual vectors of every shift
    lie strictly below R^2, which guarantees every kept shell is complete
    (no dual vector of smaller norm is missed).
    """
    gstar = lat.dual_basis
    n = lat.dim
    stack = np.asarray(shifts, dtype=float).reshape(len(shifts), n)
    if not len(stack):
        return []
    longest = float(np.linalg.norm(gstar @ stack.T, axis=0).max())
    radius = FIRST_RADIUS_FACTOR * count ** (1.0 / n) * lat.dual_spacing + longest
    for _ in range(64):
        try:
            half = (radius * lat.dual_reach).tolist()
            lows = [math.floor(-h - s) - 1 for h, s in zip(half, stack.max(axis=0).tolist())]
            sides = [math.ceil(h - s) + 2 - lo
                     for h, s, lo in zip(half, stack.min(axis=0).tolist(), lows)]
            size = math.prod(sides)
        except (OverflowError, ValueError):  # a half-width that is not finite
            size = math.inf
        if size > MAX_DUAL_BOX:
            raise InvalidModelError(
                "dual lattice enumeration needs more than %d grid points" % MAX_DUAL_BOX,
                limit=MAX_DUAL_BOX,
            )
        grid = np.indices(sides).reshape(n, -1).T + lows
        found = []
        for shift in stack:  # one shift at a time keeps the memory of one
            points = (grid + shift) @ gstar.T
            norms = np.einsum("ij,ij->i", points, points)
            norms = np.sort(norms[norms <= radius**2])
            below = int(np.searchsorted(norms, radius**2 * (1.0 - 1e-12)))
            if below < count:
                break
            found.append(norms[:below])
        else:
            return found
        radius *= 1.5
    raise InvalidModelError("dual lattice enumeration failed to converge")


def _shells(norms: np.ndarray):
    """Group a sorted nonnegative value array into ascending (value,
    multiplicity) shells, yielding each once the next one starts.

    A value joins the current shell when it exceeds the shell's first value
    by at most ``VALUE_GROUP_RTOL * max(|v|, 1e-30)``; a shell's first value
    below 1e-30 is enumeration roundoff, reported as an exact 0.
    """
    first, mult = None, 0
    for v in norms.tolist():
        if mult and v - first <= VALUE_GROUP_RTOL * max(abs(v), 1e-30):
            mult += 1
        else:
            if mult:
                yield first, mult
            first, mult = (0.0 if abs(v) < 1e-30 else v), 1
    if mult:
        yield first, mult


def _torus_spectra(lat, shifts, count, mult_factor, operator_kind) -> list[Spectrum]:
    """One spectrum per row of ``shifts``, all from one dual enumeration."""
    if count < 1:
        raise EmptyRequestError("requested %d eigenvalues" % count)
    # ceil(count / mult_factor): each dual vector carries mult_factor values
    vectors = -(-count // mult_factor)
    return [Spectrum(operator_kind, _entries_from_shells(
                ((v, m * mult_factor) for v, m in _shells(norms)), count))
            for norms in _shifted_dual_norms(lat, shifts, vectors)]


def torus_dirac_spectra(lat: Lattice, spins, count: int) -> list[Spectrum]:
    """``torus_dirac_spectrum`` for each of one or more ``spins``, in order,
    from one enumeration of the dual lattice shared by their shifts."""
    for spin in spins:
        if spin.dim != lat.dim:
            raise InvalidModelError(
                "spin structure dimension %d does not match lattice dimension %d"
                % (spin.dim, lat.dim),
                spin_dim=spin.dim,
                lattice_dim=lat.dim,
            )
    shifts = [spin.shift for spin in spins]
    return _torus_spectra(lat, shifts, count, spinor_rank(lat.dim), "dirac_squared")


def torus_dirac_spectrum(lat: Lattice, spin: SpinStructure, count: int) -> Spectrum:
    """First ``count`` eigenvalues of D^2 on the flat torus R^n/lat.

    For the spin structure with shift delta the eigenvalues are
    |gamma + G* delta|^2 over the dual lattice, each dual vector carrying
    multiplicity 2^[n/2].  The trivial structure has a 2^[n/2]-dimensional
    space of parallel spinors (the kernel).
    """
    return torus_dirac_spectra(lat, [spin], count)[0]


def torus_laplace_spectrum(lat: Lattice, count: int) -> Spectrum:
    """First ``count`` Laplace eigenvalues |gamma|^2 of the flat torus."""
    return _torus_spectra(lat, np.zeros((1, lat.dim)), count, 1, "laplace")[0]


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
