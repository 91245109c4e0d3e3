"""Eigenvalue inequality evaluators with uniform margin reports.

``INEQS`` holds every check id once: its formula family, which fixes the
spectrum indices it reads, and its body, which reads its parameters by name
and emits :class:`InequalityReport` objects carrying both sides, the margin,
satisfaction and equality flags, a term breakdown that recombines exactly
to the reported sides, and caller-supplied provenance.  Library callers use
:func:`evaluate` with keyword parameters.

Margins are oriented so that nonnegative means the bound holds:
``rhs - lhs`` for upper bounds, ``lhs - rhs`` for lower bounds.  A check is
satisfied when the margin is not below ``-1e-10 * max(|lhs|, |rhs|, 1)``
and flagged as an equality case when ``|margin| <= 1e-9`` on the same
scale.  Indices are 1-based and multiplicity-repeated; an index beyond the
resolved part of a spectrum is a hard error, never a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

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
# spectrum access and parameters


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


class Inputs:
    """The named parameters that the body of one check id reads.

    ``p[key]`` is a value, or a usage error that names the parameter and the
    id; ``optional(key)`` is a value or None; ``given(key)`` says whether the
    caller supplied the key itself.  Keys are the ``check`` flags'
    destinations (``h_sq``, ``b_sq_sup``, ...) plus ``n``.  This class reads
    a plain mapping; the command line's subclass adds the fallbacks it
    derives from a model or mesh.
    """

    def __init__(self, ineq, values, spectrum=None, provenance=None):
        self.ineq, self.values = ineq, values
        self.spectrum, self.provenance = spectrum, provenance

    def given(self, key) -> bool:
        return self.values.get(key) is not None

    def optional(self, key):
        return self.values.get(key)

    def __getitem__(self, key):
        value = self.optional(key)
        if value is None:
            raise UsageError(
                "inequality %r needs parameter %r" % (self.ineq, key),
                parameter=key,
                ineq=self.ineq,
            )
        return value

    @property
    def n(self) -> int:
        return self["n"]

    def weighted_h_sq(self, j):
        """The integral of H^2 <s_j, s_j> over the unit-normalized j-th
        section: ``h_sq`` itself for constant H^2."""
        return self["h_sq"]


def _base_params(spectrum, **extra) -> dict:
    params = {"spectrum_length": spectrum.total_count, "zero_dim": spectrum.zero_dim}
    params.update(extra)
    return params


# ---------------------------------------------------------------------------
# the three formula families


def validate_index(j: int) -> None:
    """Reject an index j < 1 of a sum bound or gap form."""
    if j < 1:
        raise IndexRangeError("index j must be >= 1, got %d" % j, index=j)


def _check_kernel(spectrum, m: int) -> None:
    """Reject a claimed kernel dimension m that is not the spectrum's zero count."""
    if m < 0:
        raise UsageError("kernel dimension m must be >= 0, got %d" % m, m=m)
    if m != spectrum.zero_dim:
        raise InconsistentKernelError(
            "claimed kernel dimension %d but the spectrum has %d zero modes"
            % (m, spectrum.zero_dim),
            claimed=m,
            zero_dim=spectrum.zero_dim,
        )


def _sum_report(
    report_id, p, j, params, terms, plus=0.0, minus=0.0, show_gamma_j=False
) -> InequalityReport:
    """sum_{k=1..n} G_{j+k} <= (n + 4) G_j + plus - minus.

    The main theorem and the corollaries that share its shape differ only
    in the constant ``plus - minus``; ``terms`` names its pieces, after the
    sum (and, for the main theorem, G_j) and the lead term.
    """
    spectrum, n = p.spectrum, p.n
    validate_index(j)
    lhs = _gamma_sum(spectrum, j, n)
    gamma_j = spectrum.gamma(j)
    lead = (n + 4) * gamma_j
    head = {"gamma_sum": lhs, "gamma_j": gamma_j} if show_gamma_j else {"gamma_sum": lhs}
    return make_report(
        report_id,
        UPPER,
        lhs,
        lead + plus - minus,
        _base_params(spectrum, **params),
        {**head, "lead_term": lead, **terms},
        p.provenance,
    )


def _gap_report(report_id, p, j, offsets, params, terms) -> InequalityReport:
    """sum_{i=1..n} (G_{i+j} - G_j) <= 4 (G_j + offsets[0] + offsets[1] + ...).

    ``terms(gamma_j, shifted)`` names the breakdown after the gap sum, where
    ``shifted`` is G_j plus the offsets.
    """
    spectrum, n = p.spectrum, p.n
    validate_index(j)
    gamma_j = spectrum.gamma(j)
    lhs = _gamma_sum(spectrum, j, n) - n * gamma_j
    shifted = gamma_j
    for offset in offsets:
        shifted += offset
    return make_report(
        report_id,
        UPPER,
        lhs,
        4.0 * shifted,
        _base_params(spectrum, **params),
        {"gap_sum": lhs, **terms(gamma_j, shifted)},
        p.provenance,
    )


def _kernel_report(
    report_id, p, m, integral, terms, rhs_term=None, volume=None, field_id=None
) -> InequalityReport:
    """Bounds on the n eigenvalues that follow the m zero modes.

    With a volume: (1/n) sum_{k=1..n} G_{k+m} <= (n/vol) (integral + A vol),
    where A = 2(n + d_F)/n for a projective target over ``field_id`` and 0
    otherwise.  Without one: sum_{k=1..n} G_{k+m} <= integral.  Either way
    m must be the spectrum's zero count.
    """
    spectrum, n = p.spectrum, p.n
    _check_kernel(spectrum, m)
    params = _base_params(spectrum, n=n, m=m)
    if volume is None:
        lhs = _gamma_sum(spectrum, m, n)
        return make_report(
            report_id, UPPER, lhs, integral, params,
            {"gamma_bar_sum": lhs, **terms}, p.provenance,
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
        report_id, UPPER, lhs, rhs, params,
        {"gamma_mean": lhs, **terms, rhs_term: rhs}, p.provenance,
    )


# ---------------------------------------------------------------------------
# the check ids


class Ineq(NamedTuple):
    """One ``check --ineq`` id.

    ``body(p, j)`` evaluates it from its parameters ``p`` (an
    :class:`Inputs`); ``j`` is None unless ``per_j``, when it runs once per
    requested j.  Its family fixes the other fields: ``reads(p, j_max, m)``
    is the highest spectrum index it reads, given the largest requested j
    and the kernel dimension m, or None for an id that reads no spectrum.
    """

    body: Callable
    reads: Callable | None
    per_j: bool


# every check id, in the order the command line lists them
INEQS = {}


def lookup(ineq_id) -> Ineq:
    """The entry of a check id, or the usage error that lists the known ids."""
    if ineq_id not in INEQS:
        raise UsageError(
            "unknown inequality id %r (known: %s)" % (ineq_id, ", ".join(INEQS)),
            ineq=ineq_id,
        )
    return INEQS[ineq_id]


def _family(reads, per_j=False):
    """The decorator that registers a body as a check id of one family."""
    def entry(ineq_id):
        def register(body):
            INEQS[ineq_id] = Ineq(body, reads, per_j)
            return body

        return register

    return entry


# sum bounds and gap forms read up to G_{j+n}; kernel means read the n
# values after the m zero modes
_sum_bound = _gap_form = _family(lambda p, j_max, m: j_max + p.n, per_j=True)
_kernel_mean = _family(lambda p, j_max, m: m + p.n)


@_sum_bound("main")
def _main(p, j):
    """The main theorem: sum_{k=1..n} G_{j+k} <= (n + 4) G_j + C with
    C = n^2 h - 4 kappa, where h is the integral of H^2 <s_j, s_j> and
    kappa the bundle curvature term (S/4 for spinors, 0 for functions)."""
    n = p.n
    h_term, r_term = n**2 * p.weighted_h_sq(j), 4.0 * p["kappa"]
    return _sum_report(
        "main", p, j, {"j": j, "n": n}, {"h_term": h_term, "r_term": r_term},
        plus=h_term, minus=r_term, show_gamma_j=True,
    )


@_gap_form("eta")
def _eta(p, j):
    """Shifted form: with eta_i = G_i + (c_sup - 4 kappa)/4,
    sum_{i=1..n} (eta_{i+j} - eta_j) <= 4 eta_j.  Its margin is the main
    bound's at c_sup = n^2 H^2."""
    n, c_sup, kappa = p.n, p["c_sup"], p["kappa"]
    shift = (c_sup - 4.0 * kappa) / 4.0
    return _gap_report(
        "eta-shift", p, j, (shift,),
        {"j": j, "n": n, "c_sup": c_sup, "kappa": kappa,
         "eigenvalue_convention": "raw spectrum values"},
        lambda gamma_j, eta_j: {"eta_j": eta_j, "shift": shift, "gamma_j": gamma_j},
    )


@_sum_bound("universal-euclidean")
def _universal_euclidean(p, j):
    """The sum bound with immersion-wide constants, C = c1 - 4 c2: c1
    bounds n^2 H^2 from above, c2 the bundle curvature term from below."""
    n, c1, c2 = p.n, p["c1"], p["c2"]
    return _sum_report(
        "universal-euclidean", p, j, {"j": j, "n": n, "c1": c1, "c2": c2},
        {"c1": c1, "c2_term": 4.0 * c2}, plus=c1, minus=4.0 * c2,
    )


@_sum_bound("universal-sphere")
def _universal_sphere(p, j):
    """Minimal-in-the-unit-sphere form of the sum bound, C = n^2 - 4 c3."""
    n, c3 = p.n, p["c3"]
    return _sum_report(
        "universal-sphere", p, j, {"j": j, "n": n, "c3": c3},
        {"n_sq": float(n**2), "c3_term": 4.0 * c3}, plus=n**2, minus=4.0 * c3,
    )


@_sum_bound("sphere")
def _sphere(p, j):
    """Immersions into the unit sphere: the sum bound with
    C = n^2 hbar1_integral - 4 kappa, where hbar1_integral is the integral
    of Hbar^2 + 1 against <s_j, s_j>, Hbar the mean curvature inside the
    sphere (the constant Hbar^2 + 1 on a homogeneous model)."""
    n = p.n
    h_term, r_term = n**2 * p["hbar1_integral"], 4.0 * p["kappa"]
    return _sum_report(
        "sphere", p, j, {"j": j, "n": n}, {"h_term": h_term, "r_term": r_term},
        plus=h_term, minus=r_term,
    )


@_kernel_mean("reilly1")
def _reilly1(p, j):
    """(1/n) sum_{k=1..n} G_{k+m} <= (n/vol) * integral of H^2, with the
    first-nonzero specialization G_{m+1} <= (n/vol) * integral of H^2 as
    a sub-report."""
    m, h_sq_integral, volume = p["m"], p["h_sq_integral"], p["volume"]
    report = _kernel_report(
        "reilly-mean-curvature", p, m, h_sq_integral,
        {"h_sq_integral": h_sq_integral}, "mean_h_sq", volume=volume,
    )
    gamma_bar_1 = p.spectrum.gamma(m + 1)
    first = make_report(
        "first-nonzero-mean-curvature",
        UPPER,
        gamma_bar_1,
        report.rhs,
        report.params,
        {"gamma_bar_1": gamma_bar_1, "mean_h_sq": report.rhs},
        p.provenance,
    )
    return replace(report, subreports=(first,))


@_kernel_mean("reilly2")
def _reilly2(p, j):
    """Sphere-immersion form of the kernel mean bound:
    (1/n) sum G_{k+m} <= (n/vol) * integral of (Hbar^2 + 1)."""
    volume = p["volume"]
    total = p["hbar1_integral"] * volume
    return _kernel_report(
        "reilly-sphere", p, p["m"], total, {"hbar1_integral": total}, "mean_bound",
        volume=volume,
    )


@_kernel_mean("reilly3")
def _reilly3(p, j):
    """Projective-target form: (1/n) sum G_{k+m} <=
    (n/vol) * integral of (Htilde^2 + 2(n + d_F)/n)."""
    m, field, integral, volume = p["m"], p["field"], p["htilde_sq_integral"], p["volume"]
    return _kernel_report(
        "reilly-projective", p, m, integral, {"htilde_sq_integral": integral},
        "mean_bound", volume=volume, field_id=field,
    )


@_gap_form("projective")
def _projective(p, j):
    """Gap form for immersions into a projective space over ``field``:
    sum_{i=1..n} (G_{i+j} - G_j) <= 4 (G_j + (n/2)(n + d_F) + sup_term/4),
    with sup_term an upper bound for n^2 Htilde^2 - 4 kappa_S over the
    surface.  A ``minimal`` immersion has Htilde = 0 and takes the scalar
    curvature infimum instead: 4 (G_j + (n/2)(n + d_F) - s_inf)."""
    n, field, minimal = p.n, p["field"], bool(p.optional("minimal"))
    ambient = 0.5 * n * (n + field_dimension(field))
    if minimal:
        s_inf = p["s_inf"]
        offsets, last = (ambient, -s_inf), {"s_inf": s_inf}
    else:
        sup_term = p["sup_term"]
        offsets, last = (ambient, sup_term / 4.0), {"sup_term": sup_term}
    return _gap_report(
        "projective", p, j, offsets,
        {"j": j, "n": n, "field": field, "minimal": minimal},
        lambda gamma_j, _: {"gamma_j": gamma_j, "ambient": ambient, **last},
    )


@_sum_bound("lp-spin")
def _lp_spin(p, j):
    """Flat-space spin form of the sum bound, C = inf sup |B|^2."""
    b_sq = p["b_sq_sup"]
    return _sum_report(
        "flat-spin", p, j, {"j": j, "n": p.n}, {"b_sq_supinf": b_sq}, plus=b_sq
    )


@_kernel_mean("index")
def _index(p, j):
    """Kernel-anchored form: sum_{i=1..n} Gbar_i <= inf sup |B|^2.  It
    needs actual zero modes, m >= 1."""
    m, b_sq = p["m"], p["b_sq_sup"]
    if m < 1:
        raise HypothesisViolatedError(
            "the kernel-anchored bound needs at least one zero mode", m=m
        )
    return _kernel_report("kernel-gap-sum", p, m, b_sq, {"b_sq_supinf": b_sq})


# the background sub-bounds' switches, in the order of their reports
BACKGROUND_SWITCHES = ("s0", "genus", "gap_k", "b_sq_sup", "h_sq_integral",
                       "htilde_sq_integral", "yang_k", "chen_h_sq", "lp_j")


def _background_reads(p, j_max, m):
    """Gbar_1, G_1 and G_2, and what the index-taking sub-bounds read."""
    need = [m + 1, 2]
    for key, extra in (("gap_k", 1), ("yang_k", 1), ("lp_j", p.n)):
        if p.given(key):
            need.append(p[key] + extra)
    if p.given("chen_h_sq"):
        need.append(1 + p.n)
    return max(need)


@_family(_background_reads)("background")
def _background(p, j):
    """Classical comparison bounds: one report for each sub-bound whose
    switch (``BACKGROUND_SWITCHES``) is given.
    Constant curvature inputs follow the homogeneous-model convention
    (fields constant, sections unit-normalized)."""
    spectrum, n, m = p.spectrum, p.n, p.optional("m")
    if m is not None:
        _check_kernel(spectrum, m)
    reports = []

    def positive(key):
        value = p[key]
        if not value > 0:
            raise UsageError("%s must be positive, got %g" % (key, value),
                             parameter=key, value=value)
        return value

    def add(ineq_id, direction, lhs, rhs, extra, terms):
        reports.append(make_report(
            ineq_id, direction, lhs, rhs, _base_params(spectrum, n=n, **extra), terms,
            p.provenance,
        ))

    if p.given("s0"):
        s0 = p["s0"]
        if n < 2:
            raise UsageError("the scalar-curvature lower bound needs n >= 2", n=n)
        rhs = n * s0 / (4.0 * (n - 1.0))
        add("scalar-curvature-lower", LOWER, spectrum.gamma(1), rhs, {"S0": s0},
            {"gamma_1": spectrum.gamma(1), "bound": rhs})

    if p.given("genus"):
        genus, area = p["genus"], positive("area")
        rhs = 4.0 * np.pi * (1.0 - genus) / area
        add("genus-area-lower", LOWER, spectrum.gamma(1), rhs,
            {"genus": genus, "area": area}, {"gamma_1": spectrum.gamma(1), "bound": rhs})

    if p.given("gap_k"):
        k, h_sq, kappa = positive("gap_k"), p["h_sq"], p["kappa"]
        partial = sum(spectrum.gamma(i) for i in range(1, k + 1))
        lhs = spectrum.gamma(k + 1) - spectrum.gamma(k)
        rhs = n * h_sq + (4.0 / (k * n)) * partial - (4.0 / n) * kappa
        add("successive-gap", UPPER, lhs, rhs, {"k": k, "H_sq": h_sq, "kappa": kappa}, {
            "gap": lhs,
            "h_lead": n * h_sq,
            "partial_sum_term": (4.0 / (k * n)) * partial,
            "kappa_term": (4.0 / n) * kappa,
        })

    if p.given("b_sq_sup"):
        b_sq_sup = p["b_sq_sup"]
        rank = 2 ** (n // 2)
        add("second-form-first-nonzero", UPPER, spectrum.gamma_bar(1),
            rank * b_sq_sup, {"B_sq_sup": b_sq_sup},
            {"gamma_bar_1": spectrum.gamma_bar(1), "rank_factor": float(rank)})

    if p.given("h_sq_integral"):
        integral, volume = p["h_sq_integral"], positive("volume")
        rhs = n**2 / (4.0 * volume) * integral
        add("hypersurface-euclidean", UPPER, spectrum.gamma_bar(1), rhs,
            {"volume": volume},
            {"gamma_bar_1": spectrum.gamma_bar(1), "mean_h_sq_term": rhs})

    if p.given("htilde_sq_integral"):
        integral, volume = p["htilde_sq_integral"], positive("volume")
        mean_term = n**2 / (4.0 * volume) * integral
        add("hypersurface-sphere", UPPER, spectrum.gamma_bar(1), n**2 / 4.0 + mean_term,
            {"volume": volume}, {
                "gamma_bar_1": spectrum.gamma_bar(1),
                "flat_term": n**2 / 4.0,
                "mean_term": mean_term,
            })

    if p.given("yang_k"):
        k, h_sq, kappa = positive("yang_k"), p["h_sq"], p["kappa"]
        top = spectrum.gamma(k + 1)
        gaps = np.array([top - spectrum.gamma(i) for i in range(1, k + 1)])
        weights = np.array(
            [spectrum.gamma(i) + n**2 / 4.0 * h_sq - kappa for i in range(1, k + 1)]
        )
        lhs = float(np.sum(gaps**2))
        rhs = float(4.0 / n * np.sum(gaps * weights))
        add("quadratic-gap", UPPER, lhs, rhs, {"k": k, "H_sq": h_sq, "kappa": kappa},
            {"gap_sq_sum": lhs, "weighted_gap_sum": rhs})

    if p.given("chen_h_sq"):
        h_term, r_term = n**2 * p["chen_h_sq"], 4.0 * p["kappa"]
        reports.append(_sum_report(
            "low-order-gap", p, 1, {"j": 1, "n": n},
            {"h_term": h_term, "r_term": r_term}, plus=h_term, minus=r_term,
            show_gamma_j=True,
        ))

    if p.given("lp_j"):
        lp_j = p["lp_j"]
        reports.append(_sum_report("flat-domain-sum", p, lp_j, {"n": n, "j": lp_j}, {}))

    if not reports:
        raise UsageError("no background bound matched the supplied parameters",
                         keys=list(BACKGROUND_SWITCHES))
    return reports


@_family(None)("conjecture")
def _conjecture(p, j):
    """Exploratory: (Gbar_1 + Gbar_2)/2 >= 4 pi^2 / area on a flat 2-torus,
    see :func:`conjecture_probe`."""
    return conjecture_probe(
        p["lattice"],
        p["area"] if p.given("area") else None,
        p["count"] if p.given("count") else 64,
    )


def evaluate_inputs(p, j=None):
    """Evaluate the check id ``p.ineq`` from the parameters ``p``, at ``j``
    (default ``p["j"]``) for a per-j id.  Returns a report, or a list for
    ``background`` and ``conjecture``.
    """
    ineq = lookup(p.ineq)
    if ineq.reads is not None:
        if not isinstance(p.spectrum, IndexedSpectrum):
            raise UsageError(
                "expected a Spectrum or EigenBasis, got %r" % type(p.spectrum).__name__
            )
        if p.n < 1:
            raise UsageError("dimension n must be >= 1, got %d" % p.n, n=p.n)
    if ineq.per_j and j is None:
        j = p["j"]
    return ineq.body(p, j)


def evaluate(ineq_id, spectrum=None, provenance=None, **values):
    """Evaluate one check id with keyword parameters, for example
    ``evaluate("reilly1", spectrum, n=2, m=1, h_sq_integral=..., volume=...)``.

    Keys are those of :class:`Inputs`; a missing one is a usage error that
    names it.  ``main`` reads ``h_sq`` as the integral of H^2 <s_j, s_j>.
    """
    return evaluate_inputs(Inputs(ineq_id, values, spectrum, provenance))


# ---------------------------------------------------------------------------
# exploratory conjecture probe


def conjecture_probe(lat: Lattice, area: float | None = None, count: int = 64) -> list:
    """Exploratory flat-torus probe: (Gbar_1 + Gbar_2)/2 against 4 pi^2/area.

    Evaluated for all four spin structures of the 2-torus because the
    conjectured statement does not pin one down.  The reports are labeled
    exploratory; they never feed pass/fail aggregation.
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
    rhs = 4.0 * np.pi**2 / area
    reports = []
    for spin in all_spin_structures(lat.dim):
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
