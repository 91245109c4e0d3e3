"""Closed-form spectra and extrinsic constants for model manifolds.

Covers round spheres (squared Dirac operator and scalar Laplacian), flat
tori given by a lattice and a spin structure, and the standard projective
model surfaces.  Eigenvalues are always reported for nonnegative operators
(the Dirac operator enters through its square), ascending, with exact
multiplicities.

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
    InconsistentKernelError,
    IndexRangeError,
    InvalidModelError,
    NonUnitVectorError,
)

# Distinct eigenvalue shells of the model operators are separated by gaps of
# order 1; collisions of genuinely equal values land many orders of magnitude
# inside this tolerance.
VALUE_GROUP_RTOL = 1e-9

OPERATOR_KINDS = ("dirac_squared", "laplace")


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
    zero_dim: int

    def __post_init__(self):
        if self.operator_kind not in OPERATOR_KINDS:
            raise InvalidModelError(
                "unknown operator kind %r" % (self.operator_kind,),
                operator_kind=self.operator_kind,
            )
        if not self.entries:
            raise EmptyRequestError("spectrum with no entries")
        prev = -math.inf
        zero_mult = 0
        for value, mult in self.entries:
            if value < 0.0:
                raise InvalidModelError("negative eigenvalue %r" % (value,))
            if value <= prev:
                raise InvalidModelError("entries not strictly increasing")
            if mult < 1 or mult != int(mult):
                raise InvalidModelError("bad multiplicity %r" % (mult,))
            if value == 0.0:
                zero_mult = mult
            prev = value
        if self.zero_dim != zero_mult:
            raise _inconsistent_kernel(self.zero_dim, zero_mult)

    @functools.cached_property
    def total_count(self) -> int:
        return sum(m for _, m in self.entries)

    @functools.cached_property
    def cumulative(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(m for _, m in self.entries))

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
        out = np.concatenate([np.full(m, v) for v, m in self.entries])
        return out[:count]

    def to_json_dict(self) -> dict:
        return {
            "operator": self.operator_kind,
            "entries": [[v, m] for v, m in self.entries],
            "zero_dim": self.zero_dim,
        }


def _inconsistent_kernel(claimed, actual):
    return InconsistentKernelError(
        "zero_dim %d does not match multiplicity %d of eigenvalue 0"
        % (claimed, actual),
        zero_dim=claimed,
        kernel_multiplicity=actual,
    )


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
    spinor_rank = 2 ** (n // 2)
    shells = (
        (((n / 2.0 + k) / radius) ** 2, 2 * spinor_rank * math.comb(k + n - 1, k))
        for k in itertools.count()
    )
    return Spectrum("dirac_squared", _entries_from_shells(shells, count), 0)


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
    return Spectrum("laplace", _entries_from_shells(shells, count), 1)


def sphere_volume(n: int, radius: float = 1.0) -> float:
    """Riemannian volume of the round sphere S^n(radius)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0) * radius**n


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
        if abs(np.linalg.det(basis)) < 1e-300:
            raise InvalidModelError("lattice basis is singular")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def covolume(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

    @property
    def dual_basis(self) -> np.ndarray:
        """Generators (as columns) of the dual lattice, pairing in 2*pi*Z."""
        return 2.0 * math.pi * np.linalg.inv(self.basis).T


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


def _shifted_dual_norms(lat: Lattice, shift, count: int) -> np.ndarray:
    """Sorted squared norms |G*(c + shift)|^2 over c in Z^n, first >= count.

    The enumeration radius grows geometrically until at least ``count``
    values lie strictly below R^2, which guarantees every kept shell is
    complete (no dual vector of smaller norm is missed).
    """
    gstar = lat.dual_basis
    n = lat.dim
    shift = np.asarray(shift, dtype=float)
    inv_rows = np.linalg.norm(np.linalg.inv(gstar), axis=1)
    # crude initial radius from the covolume of the dual lattice
    dual_covol = abs(np.linalg.det(gstar))
    radius = 1.5 * (count * dual_covol) ** (1.0 / n) + float(
        np.linalg.norm(gstar @ shift)
    )
    for _ in range(64):
        ranges = []
        for i in range(n):
            half = radius * inv_rows[i]
            lo = math.floor(-half - shift[i]) - 1
            hi = math.ceil(half - shift[i]) + 1
            ranges.append(np.arange(lo, hi + 1))
        grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
        points = (grid + shift) @ gstar.T
        norms = np.einsum("ij,ij->i", points, points)
        norms = np.sort(norms[norms <= radius**2])
        below = int(np.searchsorted(norms, radius**2 * (1.0 - 1e-12)))
        if below >= count:
            return norms[:below]
        radius *= 1.5
    raise InvalidModelError("dual lattice enumeration failed to converge")


def _group_values(norms: np.ndarray) -> list[tuple[float, int]]:
    """Group a sorted value array into (value, multiplicity) shells."""
    shells: list[tuple[float, int]] = []
    for v in norms:
        v = float(v)
        if shells and v - shells[-1][0] <= VALUE_GROUP_RTOL * max(abs(v), 1e-30):
            shells[-1] = (shells[-1][0], shells[-1][1] + 1)
        else:
            # snap near-zero enumeration roundoff to an exact kernel value
            shells.append((0.0 if abs(v) < 1e-30 else v, 1))
    return shells


def _torus_spectrum(lat, shift, count, mult_factor, operator_kind):
    norms = _shifted_dual_norms(lat, shift, count)
    shells = [(v, m * mult_factor) for v, m in _group_values(norms)]
    entries = _entries_from_shells(shells, count)
    zero_dim = entries[0][1] if entries[0][0] == 0.0 else 0
    return Spectrum(operator_kind, entries, zero_dim)


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
    if count < 1:
        raise EmptyRequestError("requested %d eigenvalues" % count)
    spinor_rank = 2 ** (lat.dim // 2)
    return _torus_spectrum(lat, spin.shift, count, spinor_rank, "dirac_squared")


def torus_laplace_spectrum(lat: Lattice, count: int) -> Spectrum:
    """First ``count`` Laplace eigenvalues |gamma|^2 of the flat torus."""
    if count < 1:
        raise EmptyRequestError("requested %d eigenvalues" % count)
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
    space, ``B_sq`` the squared norm of the second fundamental form, ``S``
    the scalar curvature, and ``curvature_term_kappa`` a lower bound for the
    curvature term of the squared Dirac operator on the model's bundle
    (S/4 for the classical spinor bundle, 0 for functions).
    """

    n: int
    H_sq: float
    B_sq: float
    S: float
    volume: float
    curvature_term_kappa: float

    def __post_init__(self):
        gauss = self.n**2 * self.H_sq - self.B_sq - self.S
        scale = max(abs(self.n**2 * self.H_sq), abs(self.B_sq), abs(self.S), 1.0)
        if abs(gauss) > 1e-12 * scale:
            raise InvalidModelError(
                "extrinsic constants violate the Gauss identity",
                residual=gauss,
            )


FIELD_DIMENSION = {"R": 1, "C": 2, "Q": 4}


def field_dimension(field_id) -> int:
    """Real dimension of the base field: R -> 1, C -> 2, Q -> 4.

    Accepts the letter or the dimension itself.
    """
    if field_id in (1, 2, 4):
        return int(field_id)
    try:
        return FIELD_DIMENSION[field_id]
    except (KeyError, TypeError):
        raise InvalidModelError("unknown base field %r" % (field_id,), field=field_id)


def _projective_constants(field_id: str, m: int) -> ModelExtrinsic:
    """Extrinsic constants of FP^m under its standard isometric embedding
    into the Hermitian matrices, normalized so the (F-sectional) curvature
    maximum is 4 (real case: constant curvature 1).

    The embedding is minimal in a round hypersphere, so the Euclidean mean
    curvature square is the equality case 2(n + d_F)/n of the projective
    mean-curvature bound.
    """
    d = field_dimension(field_id)
    if m < 1 or int(m) != m:
        raise InvalidModelError("projective dimension %r out of range" % (m,), m=m)
    n = d * m
    H_sq = 2.0 * (n + d) / n
    if field_id == "R":
        S = float(n * (n - 1))
        volume = sphere_volume(m) / 2.0
    elif field_id == "C":
        S = float(n * (n + 2))
        volume = math.pi**m / math.factorial(m)
    else:
        S = float(n * (n + 8))
        volume = math.pi ** (2 * m) / math.factorial(2 * m + 1)
    B_sq = n**2 * H_sq - S
    return ModelExtrinsic(n, H_sq, B_sq, S, volume, S / 4.0)


def model_extrinsic(model_id: str, **params) -> ModelExtrinsic:
    """Extrinsic constants of a named homogeneous model.

    Supported ids: ``sphere`` (n, radius), ``clifford_torus``,
    ``veronese_rp2``, ``projective_point_model`` (field, m).
    """
    if model_id == "sphere":
        n = params.get("n", 2)
        radius = params.get("radius", 1.0)
        if n < 1 or radius <= 0:
            raise InvalidModelError("bad sphere parameters", n=n, radius=radius)
        r2 = radius**2
        return ModelExtrinsic(
            n,
            1.0 / r2,
            n / r2,
            n * (n - 1) / r2,
            sphere_volume(n, radius),
            n * (n - 1) / (4.0 * r2),
        )
    if model_id == "clifford_torus":
        # S^1(1/sqrt2) x S^1(1/sqrt2) in S^3(1): flat, |Delta x|^2 sums to 4
        return ModelExtrinsic(2, 1.0, 4.0, 0.0, 2.0 * math.pi**2, 0.0)
    if model_id == "veronese_rp2":
        return _projective_constants("R", 2)
    if model_id == "projective_point_model":
        return _projective_constants(params.get("field", "C"), params.get("m", 1))
    raise InvalidModelError("unknown model id %r" % (model_id,), model_id=model_id)


def product_torus_extrinsic(r1: float, r2: float) -> tuple[Lattice, ModelExtrinsic]:
    """Lattice and extrinsic constants of S^1(r1) x S^1(r2) in R^4.

    The coordinate Laplacians give Delta x = -x/r_i^2 circle-wise, so
    sum_A (Delta x_A)^2 = 1/r1^2 + 1/r2^2 = 4 H^2; the surface is flat.
    """
    if r1 <= 0 or r2 <= 0:
        raise InvalidModelError("circle radii must be positive", r1=r1, r2=r2)
    lat = Lattice(np.diag([2.0 * math.pi * r1, 2.0 * math.pi * r2]))
    curv_sum = 1.0 / r1**2 + 1.0 / r2**2
    extr = ModelExtrinsic(
        2,
        curv_sum / 4.0,
        curv_sum,
        0.0,
        4.0 * math.pi**2 * r1 * r2,
        0.0,
    )
    return lat, extr


# ---------------------------------------------------------------------------
# projective-space embedding points and quaternion helpers


def quat_conj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate, negating all three imaginary components."""
    out = np.array(q, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = (a[..., i] for i in range(4))
    w2, x2, y2, z2 = (b[..., i] for i in range(4))
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of quaternion matrices, shapes (m,k,4) x (k,p,4)."""
    prod = quat_mul(a[:, :, None, :], b[None, :, :, :])
    return prod.sum(axis=1)


def _embed_norm_sq(z: np.ndarray, field_id: str) -> float:
    if field_id == "Q":
        return float(np.sum(np.asarray(z, dtype=float) ** 2))
    return float(np.sum(np.abs(np.asarray(z)) ** 2))


def projective_embedding_point(z: np.ndarray, field_id: str) -> np.ndarray:
    """The rank-one Hermitian projector z z* onto the line through z.

    ``z`` must be a unit vector: real shape (m+1,), complex shape (m+1,),
    quaternion shape (m+1, 4).  The returned matrix is Hermitian and
    idempotent and has trace one; it is the image of the point [z] under
    the isometric embedding of FP^m into the Hermitian matrices.
    """
    d = field_dimension(field_id)
    z = np.asarray(z)
    if field_id == "Q":
        if z.ndim != 2 or z.shape[1] != 4:
            raise InvalidModelError("quaternion vector must have shape (m+1, 4)")
    elif z.ndim != 1:
        raise InvalidModelError("vector must be one-dimensional")
    norm_sq = _embed_norm_sq(z, field_id)
    if abs(norm_sq - 1.0) > 1e-12:
        raise NonUnitVectorError(
            "input vector has squared norm %r" % (norm_sq,), norm_sq=norm_sq
        )
    if field_id == "R":
        return np.outer(z.astype(float), z.astype(float))
    if field_id == "C":
        zc = z.astype(complex)
        return np.outer(zc, np.conj(zc))
    return quat_mul(z[:, None, :], quat_conj(z)[None, :, :])


def hermitian_inner(p: np.ndarray, q: np.ndarray, field_id: str) -> float:
    """Inner product <P, Q> = (1/2) Re tr(PQ) on Hermitian matrices."""
    field_dimension(field_id)
    if field_id == "Q":
        prod = quat_matmul(p, q)
        return 0.5 * float(np.trace(prod[:, :, 0]))
    return 0.5 * float(np.real(np.trace(p @ q)))


def projective_center_distance_sq(p: np.ndarray, field_id: str) -> float:
    """Squared distance of an embedding point to the center I/(m+1)."""
    if field_id == "Q":
        m1 = p.shape[0]
        center = np.zeros_like(p)
        center[np.arange(m1), np.arange(m1), 0] = 1.0 / m1
    else:
        m1 = p.shape[0]
        center = np.eye(m1, dtype=p.dtype) / m1
    diff = p - center
    return hermitian_inner(diff, diff, field_id)
