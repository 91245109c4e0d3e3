"""Command-line front end.

Subcommands: spectrum (model or mesh spectra), check (inequality reports),
sweep (flat-torus family probe), prooflab (identity residual checks).

Exit codes: 0 success and, for checks, every non-exploratory report
satisfied; 1 when a non-exploratory check is unsatisfied; 2 usage or
validation error; 3 solver non-convergence.  Validation and solver errors
print one JSON object {"kind", "message", "detail"} to stderr.

Configuration comes from flags or from a single JSON config file
(--config); explicitly given flags override config entries.  All output is
deterministic: reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .eigensolve import check_tol, dense_eigenbasis, solve_smallest
from .errors import SolverConvergenceError, SpecGeomError, UsageError
from .inequalities import (
    WeightedCurvatureTerms,
    aggregate_exit,
    check_background_bounds,
    check_corollary_eta,
    check_index_corollary,
    check_lp_spin,
    check_main_theorem,
    check_projective,
    check_reilly_I,
    check_reilly_II,
    check_reilly_III,
    check_sphere_theorem,
    check_universal_euclidean,
    check_universal_sphere,
    conjecture_probe,
    validate_index,
)
from .mesh import assemble_operators, extrinsic_summary, load_mesh
from .models import (
    Lattice,
    SpinStructure,
    clifford_torus_lattice,
    product_torus_extrinsic,
    sphere_dirac_spectrum,
    sphere_extrinsic,
    sphere_laplace_spectrum,
    torus_dirac_spectrum,
    torus_laplace_spectrum,
)
from .prooflab import coordinate_identities, verify_anghel_lemma, verify_prop31
from .serialize import (
    REPORT_COLUMNS,
    dumps_json,
    format_csv,
    format_float,
    report_csv_rows,
    write_eigenbasis,
)

CLIFFORD_AREA = 2.0 * math.pi**2


class _Parser(argparse.ArgumentParser):
    """Argument parser that records each flag's action by destination, so
    config file entries can be converted and checked like flags."""

    def __init__(self, *args, **kwargs):
        self.flags = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    # argparse exits on its own; route through the shared error path instead
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config plumbing


# values of the flags that neither the command line nor the config file set;
# every other flag defaults to None
DEFAULTS = {
    "spectrum": {"dim": 2, "radius": 1.0, "count": 16, "seed": 0, "tol": 1e-9,
                 "include_vectors": False},
    "check": {"dim": 2, "radius": 1.0, "seed": 0, "tol": 1e-9, "field": "C",
              "minimal": False, "csv": False},
    "sweep": {"area": CLIFFORD_AREA, "count": 64},
    "prooflab": {"psi": "x", "seed": 0, "tol": 1e-9},
}


def _load_config(path) -> dict:
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read config file: %s" % exc, path=str(path))
    except ValueError as exc:
        raise UsageError("config file is not valid JSON: %s" % exc, path=str(path))
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object", path=str(path))
    return data


def _config_value(action, key, value):
    """A config entry converted and checked as its flag's argument would be."""
    if action.nargs == 0 and not isinstance(value, bool):
        raise UsageError("config key %r: expected true or false, got %r" % (key, value),
                         key=key)
    if action.type is not None:
        try:
            value = action.type(str(value))
        except ValueError:
            raise UsageError(
                "config key %r: invalid %s value %r" % (key, action.type.__name__, value),
                key=key,
            )
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            "config key %r: invalid choice %r (choose from %s)"
            % (key, value, ", ".join(action.choices)),
            key=key,
        )
    return value


def _merge_config(args, parser, defaults: dict) -> dict:
    flags = {k: a for k, a in parser.flags.items() if k not in ("help", "config")}
    cfg = {key: defaults.get(key) for key in flags}
    if args.config:
        for key, value in _load_config(args.config).items():
            norm = key.replace("-", "_")
            if norm not in flags:
                raise UsageError("unknown config key %r" % key, key=key)
            if value is not None:
                cfg[norm] = _config_value(flags[norm], key, value)
    for key in flags:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    return cfg


# ---------------------------------------------------------------------------
# input parsing helpers


def _parse_lattice(text) -> Lattice:
    if text == "clifford":
        return clifford_torus_lattice()
    try:
        rows = [
            [float(tok) for tok in row.split()]
            for row in str(text).split(";")
            if row.strip()
        ]
    except ValueError:
        raise UsageError("cannot parse lattice %r" % text, lattice=str(text))
    if not rows or any(len(r) != len(rows) for r in rows):
        raise UsageError("lattice rows must form a square matrix", lattice=str(text))
    if not all(math.isfinite(x) for row in rows for x in row):
        raise UsageError("lattice entries must be finite", lattice=str(text))
    # rows of the flag are the generators; the Lattice type stores columns
    return Lattice(np.array(rows, dtype=float).T)


def _parse_spin(text, dim: int) -> SpinStructure:
    shifts = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if tok in ("1/2", "0.5", ".5"):
            shifts.append(0.5)
        elif tok in ("0", "0.0"):
            shifts.append(0.0)
        else:
            raise UsageError("spin shifts must be 0 or 1/2, got %r" % tok, token=tok)
    if len(shifts) != dim:
        raise UsageError(
            "spin structure has %d shifts, lattice dimension is %d"
            % (len(shifts), dim),
            shifts=len(shifts),
            dim=dim,
        )
    return SpinStructure(tuple(shifts))


def _j_values(cfg) -> list:
    if cfg.get("j_range"):
        text = str(cfg["j_range"])
        try:
            lo, hi = (int(part) for part in text.split(":"))
        except ValueError:
            raise UsageError("j-range must look like a:b, got %r" % text)
        if lo < 1 or hi < lo:
            raise UsageError("empty j-range %r" % text, lo=lo, hi=hi)
        return list(range(lo, hi + 1))
    if cfg.get("j") is not None:
        j = int(cfg["j"])
        validate_index(j)
        return [j]
    return [1]


def _emit(cfg, text: str) -> None:
    if cfg.get("output"):
        with open(cfg["output"], "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)



# ---------------------------------------------------------------------------
# source resolution


def _diagonal_radii(lat: Lattice):
    """Circle radii of a rectangular lattice, or None if oblique."""
    basis = lat.basis
    off = basis - np.diag(np.diag(basis))
    if np.max(np.abs(off)) > 1e-12 * np.max(np.abs(basis)):
        return None
    return np.diag(basis) / (2.0 * math.pi)


def _resolve_operator(cfg) -> str:
    # a spin structure only makes sense for the Dirac operator, so its
    # presence selects dirac when --operator is not given
    operator = cfg.get("operator")
    if operator is None:
        operator = "dirac" if cfg.get("spin") is not None else "laplace"
    return operator


def _torus_lattice(cfg, user: str) -> Lattice:
    """The one lattice of a run: the Clifford lattice for --model
    clifford-torus, which fixes it, or else --lattice."""
    if cfg.get("model") == "clifford-torus":
        if cfg.get("lattice") is not None:
            raise UsageError("--model clifford-torus fixes its lattice; drop --lattice",
                             parameter="lattice")
        return clifford_torus_lattice()
    if cfg.get("lattice") is None:
        raise UsageError("%s needs --lattice" % user, parameter="lattice")
    return _parse_lattice(cfg["lattice"])


def _model_source(cfg) -> dict:
    model = cfg["model"]
    operator = _resolve_operator(cfg)
    dirac = operator == "dirac"
    if model == "sphere":
        n = int(cfg["dim"])
        radius = float(cfg["radius"])
        spectrum = sphere_dirac_spectrum if dirac else sphere_laplace_spectrum
        return {
            "kind": "model",
            "n": n,
            "build": lambda count: spectrum(n, radius, count),
            "extr": sphere_extrinsic(n, radius),
            "radius": radius,
            "zero_dim": 0 if dirac else 1,
            "operator": operator,
            "provenance": {
                "spectrum": "sphere-%s n=%d r=%s" % (operator, n, format_float(radius)),
                "extrinsic": "model:sphere",
            },
        }
    lat = _torus_lattice(cfg, "torus model")
    n = lat.dim
    spin = None
    if dirac:
        spin = (
            _parse_spin(cfg["spin"], n)
            if cfg.get("spin") is not None
            else SpinStructure((0.0,) * n)
        )
    radii = _diagonal_radii(lat)
    extr = None
    if radii is not None and n == 2:
        _, extr = product_torus_extrinsic(radii[0], radii[1])
    basis_text = "; ".join(
        " ".join(format_float(x) for x in lat.basis[:, i]) for i in range(n)
    )
    src = {"kind": "model", "n": n, "extr": extr, "radii": radii, "operator": operator}
    if dirac:
        src.update(
            build=lambda count: torus_dirac_spectrum(lat, spin, count),
            zero_dim=2 ** (n // 2) if spin.is_trivial else 0,
        )
    else:
        src.update(build=lambda count: torus_laplace_spectrum(lat, count), zero_dim=1)
    src["provenance"] = {
        "spectrum": "torus-%s lattice=[%s]%s"
        % (operator, basis_text, " spin=%s" % spin.label() if spin else ""),
        "extrinsic": "model:product-torus" if extr is not None else "explicit",
    }
    return src


def _mesh_source(cfg, path=None) -> dict:
    """Mesh source, loaded, validated and assembled once, here.
    ``build(count)`` solves and fills in the provenance."""
    path = cfg["mesh"] if path is None else path
    # the solver checks tol too, but only after the mesh is loaded and assembled
    tol = float(cfg["tol"])
    check_tol(tol)
    mesh = load_mesh(path, cfg.get("mesh_format"))
    if _resolve_operator(cfg) != "laplace":
        raise UsageError(
            "mesh spectra are scalar Laplace only", operator=cfg["operator"]
        )
    ops = assemble_operators(mesh)

    def build(count):
        if count >= mesh.n_vertices:
            raise UsageError(
                "count %d must be below the vertex count %d" % (count, mesh.n_vertices),
                count=count,
                vertices=mesh.n_vertices,
            )
        basis = solve_smallest(ops, count, tol=tol, seed=int(cfg["seed"]))
        src["provenance"] = {
            "spectrum": "mesh:%s laplace count=%d seed=%d"
            % (os.path.basename(str(path)), count, int(cfg["seed"])),
            "extrinsic": "mesh-fields",
        }
        return basis

    src = {"kind": "mesh", "n": 2, "operator": "laplace", "mesh": mesh, "ops": ops,
           "build": build}
    return src


def _source(cfg):
    """The model or mesh source the config names, or None for neither."""
    if cfg.get("mesh") and cfg.get("model"):
        raise UsageError("pass either --model or --mesh, not both")
    if cfg.get("mesh"):
        return _mesh_source(cfg)
    return _model_source(cfg) if cfg.get("model") else None


# ---------------------------------------------------------------------------
# spectrum command


def cmd_spectrum(cfg) -> int:
    count = int(cfg["count"])
    src = _source(cfg)
    if src is None:
        raise UsageError("spectrum needs --model or --mesh", parameter="model")
    spec = src["build"](count)
    if src["kind"] == "mesh":
        if cfg.get("output"):
            write_eigenbasis(cfg["output"], spec, bool(cfg["include_vectors"]))
        else:
            sys.stdout.write(dumps_json(spec.to_json_dict(bool(cfg["include_vectors"]))))
        return 0
    doc = spec.to_json_dict()
    doc["values"] = list(spec.values(count))
    _emit(cfg, dumps_json(doc))
    return 0


# ---------------------------------------------------------------------------
# check command


def _missing(key, ineq):
    return UsageError(
        "inequality %r needs parameter %r" % (ineq, key), parameter=key, ineq=ineq
    )


# parameters read off the source's extrinsic data when no flag gives them:
# (attribute, how a mesh reduces its per-vertex field, or None for no mesh
# fallback); a model's extrinsic data holds constants
EXTRINSIC = {
    "h_sq": ("H_sq", np.max),
    "s_inf": ("S", np.min),
    "b_sq_sup": ("B_sq", None),
    "volume": ("volume", float),
}


class Params:
    """The parameters of one check id: a flag wins, then the source's fallback.

    Fallbacks come from ``EXTRINSIC`` or from the method named after the
    parameter with a leading underscore.  A parameter with neither a flag
    nor a fallback value is a usage error that names it.
    """

    def __init__(self, ineq, cfg, src=None, spectrum=None):
        self.ineq, self.cfg, self.spectrum = ineq, cfg, spectrum
        self.src = src or {}
        self.n = self.src.get("n")
        self.extr = self.src.get("extr")
        self.mesh = self.src.get("kind") == "mesh"
        self.prov = self.src.get("provenance")

    def optional(self, key):
        if self.cfg.get(key) is not None:
            return self.cfg[key]
        if key in EXTRINSIC:
            attr, reduce = EXTRINSIC[key]
            if self.extr is None or (self.mesh and reduce is None):
                return None
            value = getattr(self.extr, attr)
            return float(reduce(value)) if self.mesh else value
        fallback = getattr(self, "_" + key, None)
        return None if fallback is None else fallback()

    def __getitem__(self, key):
        value = self.optional(key)
        if value is None:
            raise _missing(key, self.ineq)
        return value

    def _kappa(self):
        """Curvature term of the operator's bundle: S/4 for spinors, 0 for
        functions; flat models give 0 either way."""
        if self.src["operator"] == "laplace":
            return 0.0
        if self.extr is None:
            raise _missing("kappa", "dirac-bundle")
        return self.extr.curvature_term_kappa

    def _m(self):
        return self.spectrum.zero_dim

    def _c_sup(self):
        return self.n**2 * self["h_sq"]

    _c1 = _c_sup

    def _c2(self):
        return self["kappa"]

    _c3 = _c2

    def _area(self):
        return self["volume"]

    def _h_sq_integral(self):
        if self.mesh:
            return self.extr.willmore
        return self["h_sq"] * self["volume"]

    def _htilde_sq_integral(self):
        return 0.0

    def _hbar1_integral(self):
        """Constant (Hbar^2 + 1) for a model immersed in the unit sphere."""
        radius, radii = self.src.get("radius"), self.src.get("radii")
        if self.mesh or (radius is None and radii is None):
            return None
        if radius is not None:
            if radius > 1.0 + 1e-12:
                raise UsageError(
                    "a sphere of radius %s does not fit in the unit sphere"
                    % format_float(radius),
                    radius=radius,
                )
            return 1.0 / radius**2
        rsum = float(np.sum(np.asarray(radii) ** 2))
        if abs(rsum - 1.0) > 1e-6:
            raise UsageError(
                "torus must be scaled into the unit sphere (sum of squared "
                "radii is %s)" % format_float(rsum),
                parameter="hbar1_integral",
            )
        return self["h_sq"]


def _main(p, j):
    if p.mesh:
        terms = WeightedCurvatureTerms.from_vertex_fields(
            p.n, p.extr.H_sq, p.spectrum.vectors[:, j - 1], p.src["ops"].mass_diag
        )
    else:
        terms = WeightedCurvatureTerms.from_constants(p.n, p["h_sq"], p["kappa"])
    return check_main_theorem(p.spectrum, j, p.n, terms, p.prov)


def _reilly2(p, j):
    volume = p["volume"]
    hbar1_total = p["hbar1_integral"] * volume
    return check_reilly_II(p.spectrum, p.n, p["m"], hbar1_total, volume, p.prov)


def _projective(p, j):
    return check_projective(
        p.spectrum, j, p.n, p["field"], sup_term=p.optional("sup_term"),
        s_inf=p.optional("s_inf"), minimal=bool(p.cfg["minimal"]), provenance=p.prov,
    )


# flag -> the check_background_bounds parameters it switches on, each
# (key, check parameter); a sub-bound runs when its flag is given
BACKGROUND = {
    "s0": (("S0", "s0"),),
    "genus": (("genus", "genus"), ("area", "area")),
    "gap_k": (("gap_k", "gap_k"), ("H_sq", "h_sq"), ("kappa", "kappa")),
    "yang_k": (("yang_k", "yang_k"), ("H_sq", "h_sq"), ("kappa", "kappa")),
    "b_sq_sup": (("B_sq_sup", "b_sq_sup"),),
    "h_sq_integral": (("H_sq_integral", "h_sq_integral"), ("volume", "volume")),
    "htilde_sq_integral": (("Htilde_sq_integral", "htilde_sq_integral"),
                           ("volume", "volume")),
    "chen_h_sq": (("chen_H_sq", "chen_h_sq"), ("kappa", "kappa")),
    "lp_j": (("lp_j", "lp_j"),),
}


def _background(p, j):
    params = {"n": p.n}
    for flag, pairs in BACKGROUND.items():
        if p.cfg.get(flag) is not None:
            params.update((key, p[name]) for key, name in pairs)
    return check_background_bounds(p.spectrum, params, p.prov)


def _background_reads(j_max, n, m, cfg):
    need = [m + 1, 2]
    for flag, extra in (("gap_k", 1), ("yang_k", 1), ("lp_j", n)):
        if cfg.get(flag) is not None:
            need.append(cfg[flag] + extra)
    if cfg.get("chen_h_sq") is not None:
        need.append(1 + n)
    return max(need)


def _conjecture(p, j):
    cfg = p.cfg
    lat = _torus_lattice(cfg, "the conjecture probe")
    count = cfg["count"] if cfg.get("count") is not None else 64
    return conjecture_probe(lat, area=cfg.get("area"), count=count)


def _after_j(j_max, n, m, cfg):
    return j_max + n


def _after_kernel(j_max, n, m, cfg):
    return m + n


@dataclass(frozen=True)
class Check:
    """One ``check --ineq`` id.

    ``evaluate(params, j)`` returns its report or list of reports; ``j`` is
    None unless ``per_j``, in which case it runs once per requested j.
    ``reads(j_max, n, m, cfg)`` is the highest spectrum index it reads,
    given the largest j, the dimension and the kernel dimension; it is None
    for a check that needs no model or mesh, which reports first.
    """

    evaluate: Callable
    reads: Callable | None
    per_j: bool = False


INEQS = {
    "main": Check(_main, _after_j, per_j=True),
    "eta": Check(
        lambda p, j: check_corollary_eta(
            p.spectrum, j, p.n, p["c_sup"], p["kappa"], p.prov),
        _after_j, per_j=True),
    "universal-euclidean": Check(
        lambda p, j: check_universal_euclidean(
            p.spectrum, j, p.n, p["c1"], p["c2"], p.prov),
        _after_j, per_j=True),
    "universal-sphere": Check(
        lambda p, j: check_universal_sphere(p.spectrum, j, p.n, p["c3"], p.prov),
        _after_j, per_j=True),
    "sphere": Check(
        lambda p, j: check_sphere_theorem(
            p.spectrum, j, p.n, p["hbar1_integral"], 4.0 * p["kappa"], p.prov),
        _after_j, per_j=True),
    "reilly1": Check(
        lambda p, j: check_reilly_I(
            p.spectrum, p.n, p["m"], p["h_sq_integral"], p["volume"], p.prov),
        _after_kernel),
    "reilly2": Check(_reilly2, _after_kernel),
    "reilly3": Check(
        lambda p, j: check_reilly_III(
            p.spectrum, p.n, p["m"], p["field"], p["htilde_sq_integral"],
            p["volume"], p.prov),
        _after_kernel),
    "projective": Check(_projective, _after_j, per_j=True),
    "lp-spin": Check(
        lambda p, j: check_lp_spin(p.spectrum, j, p.n, p["b_sq_sup"], p.prov),
        _after_j, per_j=True),
    "index": Check(
        lambda p, j: check_index_corollary(
            p.spectrum, p.n, p["m"], p["b_sq_sup"], p.prov),
        lambda j_max, n, m, cfg: max(m, 1) + n),
    "background": Check(_background, _background_reads),
    "conjecture": Check(_conjecture, None),
}


def _check_spectrum(cfg, checks, jlist):
    """The source and its spectrum, resolved up to the highest index read,
    with the kernel dimension from --m or from the source; a mesh's kernel
    dimension is its number of connected components."""
    src = _source(cfg)
    if src is None:
        raise UsageError("check needs --model, --mesh, or a probe lattice")
    m = cfg.get("m")
    if m is None:
        m = src["mesh"].n_components if src["kind"] == "mesh" else src["zero_dim"]
    need = max([1] + [c.reads(max(jlist), src["n"], m, cfg) for c in checks])
    if cfg.get("count") is not None and cfg["count"] < need:
        raise UsageError(
            "count %d is below the %d values the requested checks read"
            % (cfg["count"], need),
            parameter="count",
            required=need,
        )
    spectrum = src["build"](need if cfg.get("count") is None else cfg["count"])
    if src["kind"] == "mesh":
        src["extr"] = extrinsic_summary(src["mesh"], src["ops"])
    return src, spectrum


def cmd_check(cfg) -> int:
    if not cfg.get("ineq"):
        raise UsageError("check needs --ineq", parameter="ineq")
    ineqs = [tok.strip() for tok in str(cfg["ineq"]).split(",") if tok.strip()]
    for iq in ineqs:
        if iq not in INEQS:
            raise UsageError(
                "unknown inequality id %r (known: %s)" % (iq, ", ".join(INEQS)),
                ineq=iq,
            )
    jlist = _j_values(cfg)
    # checks that need no model or mesh (the conjecture probe) report first
    ineqs.sort(key=lambda iq: INEQS[iq].reads is not None)
    sourced = [INEQS[iq] for iq in ineqs if INEQS[iq].reads is not None]
    src = spectrum = None
    reports = []
    for iq in ineqs:
        check = INEQS[iq]
        if check.reads is not None and src is None:
            src, spectrum = _check_spectrum(cfg, sourced, jlist)
        params = Params(iq, cfg, src, spectrum)
        for j in jlist if check.per_j else [None]:
            out = check.evaluate(params, j)
            reports.extend(out if isinstance(out, list) else [out])

    if cfg.get("csv") or (cfg.get("output") and str(cfg["output"]).endswith(".csv")):
        text = format_csv(REPORT_COLUMNS, report_csv_rows(reports))
    else:
        text = dumps_json(
            {
                "reports": [r.to_json_dict() for r in reports],
                "all_satisfied": aggregate_exit(reports),
            }
        )
    _emit(cfg, text)
    return 0 if aggregate_exit(reports) else 1


# ---------------------------------------------------------------------------
# sweep command


def _parse_grid(text) -> list:
    try:
        start, stop, step = (float(tok) for tok in str(text).split(":"))
    except ValueError:
        raise UsageError("ratio grid must look like start:stop:step, got %r" % text)
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(
            "ratio grid %r must be finite" % text, start=start, stop=stop, step=step
        )
    if step <= 0.0:
        raise UsageError("grid step must be positive, got %s" % format_float(step))
    steps = int(math.floor((stop - start) / step + 0.5))
    if start <= 0.0 or steps < 0:
        raise UsageError(
            "empty or invalid ratio grid %r" % text, start=start, stop=stop, step=step
        )
    return [start + i * step for i in range(steps + 1)]


def cmd_sweep(cfg) -> int:
    if not cfg.get("ratio_grid"):
        raise UsageError("sweep needs --ratio-grid", parameter="ratio_grid")
    ratios = _parse_grid(cfg["ratio_grid"])
    area = float(cfg["area"])
    if not (math.isfinite(area) and area > 0.0):
        raise UsageError("sweep area must be finite and positive, got %r" % area, area=area)
    count = int(cfg["count"])
    rows = []
    for ratio in ratios:
        # fixed area, aspect ratio r2/r1 = ratio
        r1 = math.sqrt(area / (4.0 * math.pi**2 * ratio))
        lat = Lattice(np.diag([2.0 * math.pi * r1, 2.0 * math.pi * r1 * ratio]))
        rows.extend(
            [ratio, rep.params["spin"], rep.ineq_id, rep.lhs, rep.rhs, rep.margin,
             rep.satisfied]
            for rep in conjecture_probe(lat, area=area, count=count)
        )
    header = ("ratio", "spin", "ineq_id", "lhs", "rhs", "margin", "satisfied")
    _emit(cfg, format_csv(header, rows))
    return 0


# ---------------------------------------------------------------------------
# prooflab command


def _prooflab_basis(cfg, src, default_count=None):
    """Eigenbasis for a prooflab task.

    Explicit --count forces a sparse solve of that size.  Otherwise tasks
    that only need a single low eigenpair pass default_count and get a
    small sparse solve on large meshes; the full dense basis is the
    fallback for small ones.
    """
    if cfg.get("count") is not None:
        return src["build"](int(cfg["count"]))
    if default_count is not None and src["mesh"].n_vertices > 4 * default_count:
        return src["build"](default_count)
    return dense_eigenbasis(src["ops"])


def _psi_field(cfg, mesh) -> np.ndarray:
    spec = str(cfg.get("psi", "x"))
    if spec in ("const", "one", "1"):
        return np.ones(mesh.n_vertices)
    if spec in ("x", "y", "z"):
        return mesh.vertices[:, "xyz".index(spec)].copy()
    if spec.startswith("seed:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError("bad psi seed %r" % spec)
        return np.random.default_rng(seed).standard_normal(mesh.n_vertices)
    raise UsageError("psi must be const, x, y, z, or seed:<int>, got %r" % spec)


def _anghel_report(cfg, path):
    src = _mesh_source(cfg, path)
    j = int(cfg["j"]) if cfg.get("j") is not None else 2
    basis = _prooflab_basis(cfg, src, default_count=j + 8)
    return verify_anghel_lemma(src["mesh"], src["ops"], basis, j)


def cmd_prooflab(cfg) -> int:
    task = cfg.get("task")
    if task not in ("prop31", "anghel", "identities", "refinement"):
        raise UsageError(
            "task must be prop31, anghel, identities, or refinement", task=task
        )
    if task == "refinement":
        if not cfg.get("mesh_list"):
            raise UsageError("refinement needs --mesh-list", parameter="mesh_list")
        paths = [p.strip() for p in str(cfg["mesh_list"]).split(",") if p.strip()]
        if len(paths) < 2:
            raise UsageError("refinement needs at least two meshes", count=len(paths))
        rows = [
            [level, _anghel_report(cfg, path).residual_rel]
            for level, path in enumerate(paths, start=1)
        ]
        _emit(cfg, format_csv(("level", "residual"), rows))
        return 0

    if not cfg.get("mesh"):
        raise UsageError("prooflab needs --mesh", parameter="mesh")
    if task == "anghel":
        report = _anghel_report(cfg, cfg["mesh"])
    else:
        src = _mesh_source(cfg)
        mesh, ops = src["mesh"], src["ops"]
        if task == "identities":
            report = coordinate_identities(mesh, ops)
        else:
            basis = _prooflab_basis(cfg, src)
            j = int(cfg["j"]) if cfg.get("j") is not None else 1
            psi = _psi_field(cfg, mesh)
            trunc = None if cfg.get("trunc") is None else int(cfg["trunc"])
            report = verify_prop31(mesh, ops, basis, psi, j, trunc)
    _emit(cfg, dumps_json(report.to_json_dict()))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specgeom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_source(p):
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--model", choices=("sphere", "torus", "clifford-torus"))
        p.add_argument("--mesh", help="OFF or OBJ mesh path")
        p.add_argument("--mesh-format", dest="mesh_format", choices=("off", "obj"))
        p.add_argument("--operator", choices=("dirac", "laplace"))
        p.add_argument("--dim", type=int, help="sphere dimension n")
        p.add_argument("--radius", type=float, help="sphere radius")
        p.add_argument("--lattice", help='torus lattice rows "a b; c d" or clifford')
        p.add_argument("--spin", help="spin shifts per generator, e.g. 0,1/2")
        p.add_argument("--count", type=int, help="number of eigenvalues")
        p.add_argument("--seed", type=int, help="solver start-vector seed")
        p.add_argument("--tol", type=float, help="solver tolerance")
        p.add_argument("--output", help="output path (default stdout)")

    p_spec = sub.add_parser("spectrum", help="compute a model or mesh spectrum")
    add_common_source(p_spec)
    p_spec.add_argument(
        "--include-vectors",
        dest="include_vectors",
        action="store_true",
        default=None,
        help="store eigenvectors in a binary sidecar",
    )

    p_check = sub.add_parser("check", help="evaluate inequality reports")
    add_common_source(p_check)
    p_check.add_argument("--ineq", help="comma-separated inequality ids")
    p_check.add_argument("--j", type=int)
    p_check.add_argument("--j-range", dest="j_range", help="inclusive range a:b")
    p_check.add_argument("--m", type=int, help="kernel dimension")
    p_check.add_argument("--h-sq", dest="h_sq", type=float)
    p_check.add_argument("--kappa", type=float)
    p_check.add_argument("--c-sup", dest="c_sup", type=float)
    p_check.add_argument("--c1", type=float)
    p_check.add_argument("--c2", type=float)
    p_check.add_argument("--c3", type=float)
    p_check.add_argument("--b-sq-sup", dest="b_sq_sup", type=float)
    p_check.add_argument("--s0", type=float, help="scalar curvature lower bound")
    p_check.add_argument("--genus", type=float)
    p_check.add_argument("--area", type=float)
    p_check.add_argument("--volume", type=float)
    p_check.add_argument("--h-sq-integral", dest="h_sq_integral", type=float)
    p_check.add_argument("--hbar1-integral", dest="hbar1_integral", type=float)
    p_check.add_argument(
        "--htilde-sq-integral", dest="htilde_sq_integral", type=float
    )
    p_check.add_argument("--field", choices=("R", "C", "Q"))
    p_check.add_argument("--sup-term", dest="sup_term", type=float)
    p_check.add_argument("--s-inf", dest="s_inf", type=float)
    p_check.add_argument("--minimal", action="store_true", default=None)
    p_check.add_argument("--gap-k", dest="gap_k", type=int)
    p_check.add_argument("--yang-k", dest="yang_k", type=int)
    p_check.add_argument("--chen-h-sq", dest="chen_h_sq", type=float)
    p_check.add_argument("--lp-j", dest="lp_j", type=int)
    p_check.add_argument("--csv", action="store_true", default=None)

    p_sweep = sub.add_parser("sweep", help="probe a torus family on a ratio grid")
    p_sweep.add_argument("--config")
    p_sweep.add_argument(
        "--ratio-grid", dest="ratio_grid", help="aspect grid start:stop:step"
    )
    p_sweep.add_argument("--area", type=float, help="fixed torus area")
    p_sweep.add_argument("--count", type=int)
    p_sweep.add_argument("--output")

    p_lab = sub.add_parser("prooflab", help="residual checks of proof identities")
    p_lab.add_argument("--config")
    p_lab.add_argument("--task", choices=("prop31", "anghel", "identities", "refinement"))
    p_lab.add_argument("--mesh")
    p_lab.add_argument("--mesh-format", dest="mesh_format", choices=("off", "obj"))
    p_lab.add_argument("--mesh-list", dest="mesh_list", help="comma-separated paths")
    p_lab.add_argument("--j", type=int)
    p_lab.add_argument("--psi", help="test field: const, x, y, z, or seed:<int>")
    p_lab.add_argument("--trunc", type=int, help="expansion truncation")
    p_lab.add_argument("--count", type=int, help="sparse basis size (default dense)")
    p_lab.add_argument("--seed", type=int)
    p_lab.add_argument("--tol", type=float)
    p_lab.add_argument("--output")
    parser.commands = sub.choices
    return parser


HANDLERS = {
    "spectrum": cmd_spectrum,
    "check": cmd_check,
    "sweep": cmd_sweep,
    "prooflab": cmd_prooflab,
}


def _printable(value):
    """Error detail with non-finite floats written as strings ("inf",
    "nan"), which the report serializer rejects."""
    if isinstance(value, dict):
        return {key: _printable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_printable(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return str(float(value))
    return value


def _write_error(doc) -> None:
    sys.stderr.write(dumps_json(_printable(doc)))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(
            args, parser.commands[args.command], DEFAULTS[args.command]
        )
        return HANDLERS[args.command](cfg)
    except SolverConvergenceError as exc:
        _write_error(exc.to_json_dict())
        return 3
    except SpecGeomError as exc:
        _write_error(exc.to_json_dict())
        return 2
    except OSError as exc:
        _write_error({"kind": "io", "message": str(exc), "detail": {}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
