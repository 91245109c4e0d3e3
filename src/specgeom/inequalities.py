"""Eigenvalue inequality evaluators with uniform margin reports.

Every evaluator consumes a spectrum (closed-form or computed), the index
and dimension parameters, and the curvature data its right-hand side
needs, and emits an :class:`InequalityReport` carrying both sides, the
margin, satisfaction and equality flags, a term breakdown that recombines
exactly to the reported sides, and caller-supplied provenance.

Margins are oriented so that nonnegative means the bound holds:
``rhs - lhs`` for upper bounds, ``lhs - rhs`` for lower bounds.  A check is
satisfied when the margin is not below ``-1e-10 * max(|lhs|, |rhs|, 1)``
and flagged as an equality case when ``|margin| <= 1e-9`` on the same
scale.  Indices are 1-based and multiplicity-repeated; an index beyond the
resolved part of a spectrum is a hard error, never a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    HypothesisViolatedError,
    IndexRangeError,
    InconsistentKernelError,
    NormalizationError,
    UsageError,
)
from .models import (
    IndexedSpectrum,
    Lattice,
    all_spin_structures,
    field_dimension,
    torus_dirac_spectrum,
)

ABS_TOL_REL = 1e-10
EQUALITY_REL = 1e-9

UPPER = "upper"
LOWER = "lower"
EXPLORATORY = "exploratory"


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation."""

    ineq_id: str
    direction: str
    params: dict
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    equality: bool
    term_breakdown: dict
    provenance: dict
    exploratory: bool = False
    subreports: tuple = ()

    def to_json_dict(self) -> dict:
        out = {
            "ineq_id": self.ineq_id,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "satisfied": self.satisfied,
            "equality": self.equality,
            "terms": self.term_breakdown,
            "provenance": self.provenance,
        }
        if self.exploratory:
            out["exploratory"] = True
        if self.subreports:
            out["subreports"] = [r.to_json_dict() for r in self.subreports]
        return out


def make_report(
    ineq_id,
    direction,
    lhs,
    rhs,
    params,
    terms,
    provenance=None,
    exploratory=False,
    subreports=(),
) -> InequalityReport:
    lhs = float(lhs)
    rhs = float(rhs)
    margin = (rhs - lhs) if direction == UPPER else (lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return InequalityReport(
        ineq_id=ineq_id,
        direction=direction,
        params=dict(params),
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        satisfied=bool(margin >= -ABS_TOL_REL * scale),
        equality=bool(abs(margin) <= EQUALITY_REL * scale),
        term_breakdown=dict(terms),
        provenance=dict(provenance or {}),
        exploratory=exploratory,
        subreports=tuple(subreports),
    )


# ---------------------------------------------------------------------------
# spectrum access


def _require_spectrum(spectrum) -> None:
    if not isinstance(spectrum, IndexedSpectrum):
        raise UsageError(
            "expected a Spectrum or EigenBasis, got %r" % type(spectrum).__name__
        )


def _gamma_sum(spectrum, start: int, count: int) -> float:
    """sum_{k=1..count} gamma(start + k), validated up front."""
    spectrum.gamma(start + count)  # fail before any partial work
    return float(sum(spectrum.gamma(start + k) for k in range(1, count + 1)))


def weighted_density_integral(field_values, s, mass_diag) -> float:
    """Discrete integral of ``field * s^2`` against the vertex measure.

    ``s`` must be mass-normalized; a normalization error is raised when
    |s^T M s - 1| exceeds 1e-6.
    """
    field_values = np.asarray(field_values, dtype=float)
    s = np.asarray(s, dtype=float)
    mass_diag = np.asarray(mass_diag, dtype=float)
    if field_values.shape != s.shape or s.shape != mass_diag.shape:
        raise UsageError(
            "field, eigenvector, and mass diagonal must share one shape",
            shapes=[field_values.shape, s.shape, mass_diag.shape],
        )
    norm_sq = float(np.dot(s * s, mass_diag))
    if abs(norm_sq - 1.0) > 1e-6:
        raise NormalizationError(
            "eigenvector has squared mass norm %.12g" % norm_sq, norm_sq=norm_sq
        )
    return float(np.dot(field_values * s * s, mass_diag))


@dataclass(frozen=True)
class WeightedCurvatureTerms:
    """The two curvature integrals of the main bound for one eigenvector.

    ``h_term`` is n^2 * integral of H^2 <s_j, s_j>; ``r_term`` is
    4 * integral of <R s_j, s_j> for the bundle curvature term R.  For
    homogeneous models with constant fields and unit-normalized sections
    these reduce to n^2 H^2 and 4 kappa.
    """

    h_term: float
    r_term: float

    @classmethod
    def from_constants(cls, n: int, H_sq: float, kappa: float) -> "WeightedCurvatureTerms":
        return cls(h_term=n**2 * H_sq, r_term=4.0 * kappa)

    @classmethod
    def from_vertex_fields(cls, n, H_sq_field, s, mass_diag) -> "WeightedCurvatureTerms":
        """Mesh form for scalar functions, whose bundle curvature term vanishes."""
        h = n**2 * weighted_density_integral(H_sq_field, s, mass_diag)
        return cls(h_term=h, r_term=0.0)


def _base_params(spectrum, **extra) -> dict:
    params = {"spectrum_length": spectrum.total_count, "zero_dim": spectrum.zero_dim}
    params.update(extra)
    return params


# ---------------------------------------------------------------------------
# the three formula families


def validate_index(j: int, n: int = 1) -> None:
    """Reject an index j < 1 or a dimension n < 1 of a sum bound or gap form."""
    if j < 1:
        raise IndexRangeError("index j must be >= 1, got %d" % j, index=j)
    if n < 1:
        raise UsageError("dimension n must be >= 1, got %d" % n, n=n)


def _sum_bound(
    ineq_id, spectrum, j, n, params, terms, plus=0.0, minus=0.0,
    provenance=None, show_gamma_j=False,
) -> InequalityReport:
    """sum_{k=1..n} G_{j+k} <= (n + 4) G_j + plus - minus.

    The main theorem and the corollaries that share its shape differ only
    in the constant ``plus - minus``; ``terms`` names its pieces, after the
    sum (and, for the main theorem, G_j) and the lead term.
    """
    _require_spectrum(spectrum)
    validate_index(j, n)
    lhs = _gamma_sum(spectrum, j, n)
    gamma_j = spectrum.gamma(j)
    lead = (n + 4) * gamma_j
    head = {"gamma_sum": lhs, "gamma_j": gamma_j} if show_gamma_j else {"gamma_sum": lhs}
    return make_report(
        ineq_id,
        UPPER,
        lhs,
        lead + plus - minus,
        _base_params(spectrum, **params),
        {**head, "lead_term": lead, **terms},
        provenance,
    )


def _gap_form(ineq_id, spectrum, j, n, offsets, params, terms, provenance=None):
    """sum_{i=1..n} (G_{i+j} - G_j) <= 4 (G_j + offsets[0] + offsets[1] + ...).

    ``terms(gamma_j, shifted)`` names the breakdown after the gap sum, where
    ``shifted`` is G_j plus the offsets.
    """
    _require_spectrum(spectrum)
    validate_index(j, n)
    gamma_j = spectrum.gamma(j)
    lhs = _gamma_sum(spectrum, j, n) - n * gamma_j
    shifted = gamma_j
    for offset in offsets:
        shifted += offset
    return make_report(
        ineq_id,
        UPPER,
        lhs,
        4.0 * shifted,
        _base_params(spectrum, **params),
        {"gap_sum": lhs, **terms(gamma_j, shifted)},
        provenance,
    )


def _kernel_mean(
    ineq_id, spectrum, n, m, integral, terms, rhs_term=None, volume=None,
    field_id=None, provenance=None,
) -> InequalityReport:
    """Bounds on the n eigenvalues that follow the m zero modes.

    With a volume: (1/n) sum_{k=1..n} G_{k+m} <= (n/vol) (integral + A vol),
    where A = 2(n + d_F)/n for a projective target over ``field_id`` and 0
    otherwise.  Without one: sum_{k=1..n} G_{k+m} <= integral.  Either way
    m must be the spectrum's zero count.
    """
    _require_spectrum(spectrum)
    if n < 1:
        raise UsageError("dimension n must be >= 1, got %d" % n, n=n)
    if m < 0:
        raise UsageError("kernel dimension m must be >= 0, got %d" % m, m=m)
    if m != spectrum.zero_dim:
        raise InconsistentKernelError(
            "claimed kernel dimension %d but the spectrum has %d zero modes"
            % (m, spectrum.zero_dim),
            claimed=m,
            zero_dim=spectrum.zero_dim,
        )
    params = _base_params(spectrum, n=n, m=m)
    if volume is None:
        lhs = _gamma_sum(spectrum, m, n)
        return make_report(
            ineq_id, UPPER, lhs, integral, params,
            {"gamma_bar_sum": lhs, **terms}, provenance,
        )
    if volume <= 0.0:
        raise UsageError("volume must be positive, got %g" % volume, volume=volume)
    terms = dict(terms)
    if field_id is not None:
        params["field"] = field_id
        ambient = 2.0 * (n + field_dimension(field_id)) / n
        terms["ambient_term"] = ambient
        integral = integral + ambient * volume
    params["volume"] = volume
    lhs = _gamma_sum(spectrum, m, n) / n
    rhs = (n / volume) * integral
    return make_report(
        ineq_id, UPPER, lhs, rhs, params,
        {"gamma_mean": lhs, **terms, rhs_term: rhs}, provenance,
    )


# ---------------------------------------------------------------------------
# the main bound and its relatives


def check_main_theorem(
    spectrum, j: int, n: int, terms: WeightedCurvatureTerms, provenance=None
) -> InequalityReport:
    """The main sum bound, C = h_term - r_term."""
    return _sum_bound(
        "main", spectrum, j, n, {"j": j, "n": n},
        {"h_term": terms.h_term, "r_term": terms.r_term},
        plus=terms.h_term, minus=terms.r_term, provenance=provenance,
        show_gamma_j=True,
    )


def check_corollary_eta(
    spectrum, j: int, n: int, c_sup: float, kappa: float, provenance=None
) -> InequalityReport:
    """Shifted form: with eta_i = G_i + (c_sup - 4 kappa)/4,
    sum_{i=1..n} (eta_{i+j} - eta_j) <= 4 eta_j.

    The shifted sequence eta is the spectrum shifted by a quarter of the
    curvature surplus; the margin agrees with the main bound at
    c_sup = n^2 H^2 identically.
    """
    shift = (c_sup - 4.0 * kappa) / 4.0
    return _gap_form(
        "eta-shift", spectrum, j, n, (shift,),
        {"j": j, "n": n, "c_sup": c_sup, "kappa": kappa,
         "eigenvalue_convention": "raw spectrum values"},
        lambda gamma_j, eta_j: {"eta_j": eta_j, "shift": shift, "gamma_j": gamma_j},
        provenance,
    )


def check_universal_euclidean(
    spectrum, j: int, n: int, c1: float, c2: float, provenance=None
) -> InequalityReport:
    """The sum bound with immersion-wide constants, C = c1 - 4 c2.

    c1 bounds n^2 H^2 from above, c2 bounds the bundle curvature term from
    below; for a minimal immersion into a round sphere c1 = n^2.
    """
    return _sum_bound(
        "universal-euclidean", spectrum, j, n, {"j": j, "n": n, "c1": c1, "c2": c2},
        {"c1": c1, "c2_term": 4.0 * c2}, plus=c1, minus=4.0 * c2, provenance=provenance,
    )


def check_universal_sphere(
    spectrum, j: int, n: int, c3: float, provenance=None
) -> InequalityReport:
    """Minimal-in-the-unit-sphere form of the sum bound, C = n^2 - 4 c3."""
    return _sum_bound(
        "universal-sphere", spectrum, j, n, {"j": j, "n": n, "c3": c3},
        {"n_sq": float(n**2), "c3_term": 4.0 * c3}, plus=n**2, minus=4.0 * c3,
        provenance=provenance,
    )


def check_sphere_theorem(
    spectrum, j: int, n: int, hbar1_integral: float, r_term: float, provenance=None
) -> InequalityReport:
    """Immersions into the unit sphere: the sum bound with
    C = n^2 hbar1_integral - r_term, where the H^2 integral splits as
    (Hbar^2 + 1) with Hbar the mean curvature inside the sphere.

    ``hbar1_integral`` is the weighted integral of Hbar^2 + 1 against
    <s_j, s_j>; for homogeneous models it is the constant Hbar^2 + 1.
    """
    h_term = n**2 * hbar1_integral
    return _sum_bound(
        "sphere", spectrum, j, n, {"j": j, "n": n},
        {"h_term": h_term, "r_term": r_term}, plus=h_term, minus=r_term,
        provenance=provenance,
    )


def check_reilly_I(
    spectrum, n: int, m: int, h_sq_integral: float, volume: float, provenance=None
) -> InequalityReport:
    """(1/n) sum_{k=1..n} G_{k+m} <= (n/vol) * integral of H^2.

    Also emits the first-nonzero-eigenvalue specialization
    G_{m+1} <= (n/vol) * integral of H^2 as a sub-report.
    """
    report = _kernel_mean(
        "reilly-mean-curvature", spectrum, n, m, h_sq_integral,
        {"h_sq_integral": h_sq_integral}, "mean_h_sq", volume=volume,
        provenance=provenance,
    )
    gamma_bar_1 = spectrum.gamma(m + 1)
    first = make_report(
        "first-nonzero-mean-curvature",
        UPPER,
        gamma_bar_1,
        report.rhs,
        report.params,
        {"gamma_bar_1": gamma_bar_1, "mean_h_sq": report.rhs},
        provenance,
    )
    return replace(report, subreports=(first,))


def check_reilly_II(
    spectrum, n: int, m: int, hbar1_integral_total: float, volume: float, provenance=None
) -> InequalityReport:
    """Sphere-immersion form of the kernel-shifted mean bound:
    (1/n) sum G_{k+m} <= (n/vol) * integral of (Hbar^2 + 1)."""
    return _kernel_mean(
        "reilly-sphere", spectrum, n, m, hbar1_integral_total,
        {"hbar1_integral": hbar1_integral_total}, "mean_bound", volume=volume,
        provenance=provenance,
    )


def check_reilly_III(
    spectrum,
    n: int,
    m: int,
    field_id: str,
    htilde_sq_integral: float,
    volume: float,
    provenance=None,
) -> InequalityReport:
    """Projective-target form: (1/n) sum G_{k+m} <=
    (n/vol) * integral of (Htilde^2 + 2(n + d_F)/n)."""
    return _kernel_mean(
        "reilly-projective", spectrum, n, m, htilde_sq_integral,
        {"htilde_sq_integral": htilde_sq_integral}, "mean_bound", volume=volume,
        field_id=field_id, provenance=provenance,
    )


def check_projective(
    spectrum,
    j: int,
    n: int,
    field_id: str,
    sup_term: float | None = None,
    s_inf: float | None = None,
    minimal: bool = False,
    provenance=None,
) -> InequalityReport:
    """Gap form for immersions into a projective space:

    sum_{i=1..n} (G_{i+j} - G_j) <= 4 (G_j + (n/2)(n + d_F) + sup_term/4)

    with ``sup_term`` an upper bound for n^2 Htilde^2 - 4 kappa_S over the
    surface (infimum over congruences of the supremum).  For minimal
    immersions Htilde vanishes and the caller passes the scalar curvature
    infimum ``s_inf`` instead; the bound becomes
    4 (G_j + (n/2)(n + d_F) - s_inf).
    """
    ambient = 0.5 * n * (n + field_dimension(field_id))
    if minimal:
        if s_inf is None:
            raise UsageError("minimal form needs s_inf")
        offsets, last = (ambient, -s_inf), {"s_inf": s_inf}
    else:
        if sup_term is None:
            raise UsageError("general form needs sup_term")
        offsets, last = (ambient, sup_term / 4.0), {"sup_term": sup_term}
    return _gap_form(
        "projective", spectrum, j, n, offsets,
        {"j": j, "n": n, "field": field_id, "minimal": minimal},
        lambda gamma_j, _: {"gamma_j": gamma_j, "ambient": ambient, **last},
        provenance,
    )


def check_lp_spin(
    spectrum, j: int, n: int, b_sq_supinf: float, provenance=None
) -> InequalityReport:
    """Flat-space spin form of the sum bound, C = inf sup |B|^2."""
    return _sum_bound(
        "flat-spin", spectrum, j, n, {"j": j, "n": n},
        {"b_sq_supinf": b_sq_supinf}, plus=b_sq_supinf, provenance=provenance,
    )


def check_index_corollary(
    spectrum, n: int, m: int, b_sq_supinf: float, provenance=None
) -> InequalityReport:
    """Kernel-anchored form: sum_{i=1..n} Gbar_i <= inf sup |B|^2.

    Requires actual zero modes (m >= 1); the hypothesis is consumed as the
    presence of a kernel, so m must match the spectrum's zero count.
    """
    if m < 1:
        raise HypothesisViolatedError(
            "the kernel-anchored bound needs at least one zero mode", m=m
        )
    return _kernel_mean(
        "kernel-gap-sum", spectrum, n, m, b_sq_supinf,
        {"b_sq_supinf": b_sq_supinf}, provenance=provenance,
    )


# ---------------------------------------------------------------------------
# background bounds


def check_background_bounds(spectrum, params: dict, provenance=None) -> list:
    """Evaluate the classical comparison bounds whose inputs are present.

    Keys of ``params`` select the bounds: every bound with all of its
    required inputs available is evaluated, the rest are skipped.  All
    constant curvature inputs follow the homogeneous-model convention
    (fields constant, sections unit-normalized).
    """
    _require_spectrum(spectrum)
    n = params.get("n")
    if n is None:
        raise UsageError("background bounds need the dimension n")
    reports = []

    def add(ineq_id, direction, lhs, rhs, extra, terms):
        reports.append(make_report(
            ineq_id, direction, lhs, rhs, _base_params(spectrum, n=n, **extra), terms,
            provenance,
        ))

    if "S0" in params:
        s0 = params["S0"]
        if n < 2:
            raise UsageError("the scalar-curvature lower bound needs n >= 2", n=n)
        rhs = n * s0 / (4.0 * (n - 1.0))
        add("scalar-curvature-lower", LOWER, spectrum.gamma(1), rhs, {"S0": s0},
            {"gamma_1": spectrum.gamma(1), "bound": rhs})

    if "genus" in params and "area" in params:
        genus, area = params["genus"], params["area"]
        rhs = 4.0 * np.pi * (1.0 - genus) / area
        add("genus-area-lower", LOWER, spectrum.gamma(1), rhs,
            {"genus": genus, "area": area}, {"gamma_1": spectrum.gamma(1), "bound": rhs})

    if "gap_k" in params and "H_sq" in params:
        k = params["gap_k"]
        kappa = params.get("kappa", 0.0)
        h_sq = params["H_sq"]
        partial = sum(spectrum.gamma(i) for i in range(1, k + 1))
        lhs = spectrum.gamma(k + 1) - spectrum.gamma(k)
        rhs = n * h_sq + (4.0 / (k * n)) * partial - (4.0 / n) * kappa
        add("successive-gap", UPPER, lhs, rhs, {"k": k, "H_sq": h_sq, "kappa": kappa}, {
            "gap": lhs,
            "h_lead": n * h_sq,
            "partial_sum_term": (4.0 / (k * n)) * partial,
            "kappa_term": (4.0 / n) * kappa,
        })

    if "B_sq_sup" in params:
        rank = 2 ** (n // 2)
        add("second-form-first-nonzero", UPPER, spectrum.gamma_bar(1),
            rank * params["B_sq_sup"], {"B_sq_sup": params["B_sq_sup"]},
            {"gamma_bar_1": spectrum.gamma_bar(1), "rank_factor": float(rank)})

    if "H_sq_integral" in params and "volume" in params:
        rhs = n**2 / (4.0 * params["volume"]) * params["H_sq_integral"]
        add("hypersurface-euclidean", UPPER, spectrum.gamma_bar(1), rhs,
            {"volume": params["volume"]},
            {"gamma_bar_1": spectrum.gamma_bar(1), "mean_h_sq_term": rhs})

    if "Htilde_sq_integral" in params and "volume" in params:
        mean_term = n**2 / (4.0 * params["volume"]) * params["Htilde_sq_integral"]
        add("hypersurface-sphere", UPPER, spectrum.gamma_bar(1), n**2 / 4.0 + mean_term,
            {"volume": params["volume"]}, {
                "gamma_bar_1": spectrum.gamma_bar(1),
                "flat_term": n**2 / 4.0,
                "mean_term": mean_term,
            })

    if "yang_k" in params and "H_sq" in params:
        k = params["yang_k"]
        kappa = params.get("kappa", 0.0)
        h_sq = params["H_sq"]
        top = spectrum.gamma(k + 1)
        gaps = np.array([top - spectrum.gamma(i) for i in range(1, k + 1)])
        weights = np.array(
            [spectrum.gamma(i) + n**2 / 4.0 * h_sq - kappa for i in range(1, k + 1)]
        )
        lhs = float(np.sum(gaps**2))
        rhs = float(4.0 / n * np.sum(gaps * weights))
        add("quadratic-gap", UPPER, lhs, rhs, {"k": k, "H_sq": h_sq, "kappa": kappa},
            {"gap_sq_sum": lhs, "weighted_gap_sum": rhs})

    if "chen_H_sq" in params:
        kappa = params.get("kappa", 0.0)
        terms = WeightedCurvatureTerms.from_constants(n, params["chen_H_sq"], kappa)
        base = check_main_theorem(spectrum, 1, n, terms, provenance)
        reports.append(replace(base, ineq_id="low-order-gap"))

    if "lp_j" in params:
        j = params["lp_j"]
        reports.append(
            _sum_bound("flat-domain-sum", spectrum, j, n, {"n": n, "j": j}, {},
                       provenance=provenance)
        )

    if not reports:
        raise UsageError("no background bound matched the supplied parameters",
                         keys=sorted(params.keys()))
    return reports


# ---------------------------------------------------------------------------
# exploratory conjecture probe


def conjecture_probe(
    lat: Lattice, area: float | None = None, spins=None, count: int = 64
) -> list:
    """Exploratory flat-torus probe: (Gbar_1 + Gbar_2)/2 against 4 pi^2/area.

    Evaluated for every spin structure (all four on a 2-torus by default)
    because the conjectured statement does not pin one down.  The reports
    are labeled exploratory; they never feed pass/fail aggregation.
    """
    if lat.dim != 2:
        raise UsageError(
            "the probe needs a 2-dimensional lattice, got dimension %d" % lat.dim,
            dim=lat.dim,
        )
    if area is None:
        area = lat.covolume
    if area <= 0.0:
        raise UsageError("area must be positive, got %g" % area, area=area)
    if spins is None:
        spins = all_spin_structures(lat.dim)
    rhs = 4.0 * np.pi**2 / area
    reports = []
    for spin in spins:
        spec = torus_dirac_spectrum(lat, spin, count)
        g1, g2 = spec.gamma_bar(1), spec.gamma_bar(2)
        lhs = 0.5 * (g1 + g2)
        reports.append(
            make_report(
                "two-mean-lower",
                LOWER,
                lhs,
                rhs,
                {
                    "spin": spin.label(),
                    "area": area,
                    "zero_dim": spec.zero_dim,
                },
                {"gamma_bar_1": g1, "gamma_bar_2": g2, "two_mean": lhs, "bound": rhs},
                provenance={"spectrum": "torus_dirac"},
                exploratory=True,
            )
        )
    return reports


def aggregate_exit(reports) -> bool:
    """True when every non-exploratory report is satisfied."""
    return all(r.satisfied for r in reports if not r.exploratory)
