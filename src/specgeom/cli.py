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
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .eigensolve import basis_zero_dim, dense_eigenbasis, solve_smallest
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
)
from .mesh import assemble_operators, extrinsic_summary, load_mesh
from .models import (
    Lattice,
    SpinStructure,
    clifford_torus_lattice,
    model_extrinsic,
    product_torus_extrinsic,
    sphere_dirac_spectrum,
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

KNOWN_INEQS = (
    "main",
    "eta",
    "universal-euclidean",
    "universal-sphere",
    "sphere",
    "reilly1",
    "reilly2",
    "reilly3",
    "projective",
    "lp-spin",
    "index",
    "background",
    "conjecture",
)

J_STYLE_INEQS = (
    "main",
    "eta",
    "universal-euclidean",
    "universal-sphere",
    "sphere",
    "lp-spin",
    "projective",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits on its own; route through the shared error path instead
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config plumbing


SPECTRUM_DEFAULTS = {
    "model": None,
    "mesh": None,
    "mesh_format": None,
    "operator": None,
    "dim": 2,
    "radius": 1.0,
    "lattice": None,
    "spin": None,
    "count": 16,
    "seed": 0,
    "tol": 1e-9,
    "include_vectors": False,
    "output": None,
}

CHECK_DEFAULTS = {
    "ineq": None,
    "model": None,
    "mesh": None,
    "mesh_format": None,
    "operator": None,
    "dim": 2,
    "radius": 1.0,
    "lattice": None,
    "spin": None,
    "count": None,
    "seed": 0,
    "tol": 1e-9,
    "j": None,
    "j_range": None,
    "m": None,
    "h_sq": None,
    "kappa": None,
    "c_sup": None,
    "c1": None,
    "c2": None,
    "c3": None,
    "b_sq_sup": None,
    "s0": None,
    "genus": None,
    "area": None,
    "volume": None,
    "h_sq_integral": None,
    "hbar1_integral": None,
    "htilde_sq_integral": None,
    "field": "C",
    "sup_term": None,
    "s_inf": None,
    "minimal": False,
    "gap_k": None,
    "yang_k": None,
    "chen_h_sq": None,
    "lp_j": None,
    "csv": False,
    "output": None,
}

SWEEP_DEFAULTS = {
    "family": "torus-lattice",
    "ratio_grid": None,
    "area": CLIFFORD_AREA,
    "count": 64,
    "workers": None,
    "output": None,
}

PROOFLAB_DEFAULTS = {
    "task": None,
    "mesh": None,
    "mesh_format": None,
    "mesh_list": None,
    "j": None,
    "psi": "x",
    "trunc": None,
    "count": None,
    "seed": 0,
    "tol": 1e-9,
    "output": None,
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


def _merge_config(args, defaults: dict) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        for key, value in _load_config(args.config).items():
            norm = key.replace("-", "_")
            if norm not in defaults:
                raise UsageError("unknown config key %r" % key, key=key)
            cfg[norm] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


# ---------------------------------------------------------------------------
# input parsing helpers


def _parse_lattice(text) -> Lattice:
    if isinstance(text, Lattice):
        return text
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
    # rows of the flag are the generators; the Lattice type stores columns
    return Lattice(np.array(rows, dtype=float).T)


def _parse_spin(text, dim: int) -> SpinStructure:
    if isinstance(text, SpinStructure):
        return text
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
        return [int(cfg["j"])]
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
    if operator not in ("dirac", "laplace"):
        raise UsageError("operator must be dirac or laplace, got %r" % operator)
    return operator


def _model_source(cfg) -> dict:
    model = cfg["model"]
    operator = _resolve_operator(cfg)
    if model == "sphere":
        n = int(cfg["dim"])
        radius = float(cfg["radius"])
        extr = model_extrinsic("sphere", n=n, radius=radius)

        def build(count):
            if operator == "dirac":
                return sphere_dirac_spectrum(n, radius, count)
            return sphere_laplace_spectrum(n, radius, count)

        zero_guess = 0 if operator == "dirac" else 1
        return {
            "kind": "model",
            "n": n,
            "build": build,
            "extr": extr,
            "radius": radius,
            "lattice": None,
            "zero_guess": zero_guess,
            "operator": operator,
            "provenance": {
                "spectrum": "sphere-%s n=%d r=%s" % (operator, n, format_float(radius)),
                "extrinsic": "model:sphere",
            },
        }
    if model in ("torus", "clifford-torus"):
        if model == "clifford-torus":
            lat = clifford_torus_lattice()
        else:
            if cfg.get("lattice") is None:
                raise UsageError("torus model needs --lattice", parameter="lattice")
            lat = _parse_lattice(cfg["lattice"])
        n = lat.dim
        spin = None
        if operator == "dirac":
            spin = (
                _parse_spin(cfg["spin"], n)
                if cfg.get("spin") is not None
                else SpinStructure((0.0,) * n)
            )
        radii = _diagonal_radii(lat)
        extr = None
        if radii is not None and n == 2:
            _, extr = product_torus_extrinsic(radii[0], radii[1])

        def build(count, _lat=lat, _spin=spin):
            if operator == "dirac":
                return torus_dirac_spectrum(_lat, _spin, count)
            return torus_laplace_spectrum(_lat, count)

        if operator == "dirac":
            zero_guess = 2 ** (n // 2) if spin.is_trivial else 0
        else:
            zero_guess = 1
        basis_text = "; ".join(
            " ".join(format_float(x) for x in lat.basis[:, i]) for i in range(n)
        )
        prov = {
            "spectrum": "torus-%s lattice=[%s]%s"
            % (operator, basis_text, " spin=%s" % spin.label() if spin else ""),
            "extrinsic": "model:product-torus" if extr is not None else "explicit",
        }
        return {
            "kind": "model",
            "n": n,
            "build": build,
            "extr": extr,
            "radius": None,
            "lattice": lat,
            "radii": radii,
            "zero_guess": zero_guess,
            "operator": operator,
            "provenance": prov,
        }
    raise UsageError("unknown model %r" % model, model=model)


def _mesh_source(cfg, count: int) -> dict:
    mesh = load_mesh(cfg["mesh"], cfg.get("mesh_format"))
    if _resolve_operator(cfg) != "laplace":
        raise UsageError(
            "mesh spectra are scalar Laplace only", operator=cfg["operator"]
        )
    ops = assemble_operators(mesh)
    if count >= mesh.n_vertices:
        raise UsageError(
            "count %d must be below the vertex count %d" % (count, mesh.n_vertices),
            count=count,
            vertices=mesh.n_vertices,
        )
    basis = solve_smallest(ops, count, tol=float(cfg["tol"]), seed=int(cfg["seed"]))
    extr = extrinsic_summary(mesh, ops)
    return {
        "kind": "mesh",
        "n": 2,
        "mesh": mesh,
        "ops": ops,
        "basis": basis,
        "extr": extr,
        "operator": "laplace",
        "provenance": {
            "spectrum": "mesh:%s laplace count=%d seed=%d"
            % (os.path.basename(str(cfg["mesh"])), count, int(cfg["seed"])),
            "extrinsic": "mesh-fields",
        },
    }


# ---------------------------------------------------------------------------
# spectrum command


def cmd_spectrum(cfg) -> int:
    count = int(cfg["count"])
    if cfg.get("mesh") and cfg.get("model"):
        raise UsageError("pass either --model or --mesh, not both")
    if cfg.get("mesh"):
        src = _mesh_source(cfg, count)
        basis = src["basis"]
        if cfg.get("output"):
            write_eigenbasis(cfg["output"], basis, bool(cfg["include_vectors"]))
        else:
            sys.stdout.write(
                dumps_json(basis.to_json_dict(bool(cfg["include_vectors"])))
            )
        return 0
    if not cfg.get("model"):
        raise UsageError("spectrum needs --model or --mesh", parameter="model")
    src = _model_source(cfg)
    spec = src["build"](count)
    doc = spec.to_json_dict()
    doc["values"] = list(spec.values(count))
    _emit(cfg, dumps_json(doc))
    return 0


# ---------------------------------------------------------------------------
# check command


def _required_index(ineqs, jlist, n, m_guess, cfg) -> int:
    need = 0
    jmax = max(jlist)
    for iq in ineqs:
        if iq in J_STYLE_INEQS:
            need = max(need, jmax + n)
        elif iq in ("reilly1", "reilly2", "reilly3"):
            need = max(need, m_guess + n)
        elif iq == "index":
            need = max(need, max(m_guess, 1) + n)
        elif iq == "background":
            need = max(need, m_guess + 1, 2)
            if cfg.get("gap_k") is not None:
                need = max(need, int(cfg["gap_k"]) + 1)
            if cfg.get("yang_k") is not None:
                need = max(need, int(cfg["yang_k"]) + 1)
            if cfg.get("lp_j") is not None:
                need = max(need, int(cfg["lp_j"]) + n)
            if cfg.get("chen_h_sq") is not None:
                need = max(need, 1 + n)
    return max(need, 1)


def _need(cfg, key, value, ineq):
    if value is None:
        raise UsageError(
            "inequality %r needs parameter %r" % (ineq, key), parameter=key, ineq=ineq
        )
    return value


def _bundle_kappa(cfg, src) -> float:
    """Curvature term of the operator's bundle: S/4 for spinors, 0 for
    functions; flat models give 0 either way."""
    if cfg.get("kappa") is not None:
        return float(cfg["kappa"])
    if src["operator"] == "laplace":
        return 0.0
    extr = src.get("extr")
    if extr is not None:
        return extr.curvature_term_kappa
    return _need(cfg, "kappa", None, "dirac-bundle")


def _model_h_sq(cfg, src, ineq) -> float:
    """Constant H^2 of a model; on a mesh, the sup of its per-vertex field."""
    if cfg.get("h_sq") is not None:
        return float(cfg["h_sq"])
    if src["kind"] == "mesh":
        return float(np.max(src["extr"].H_sq))
    if src.get("extr") is not None:
        return src["extr"].H_sq
    return _need(cfg, "h_sq", None, ineq)


def _model_volume(cfg, src, ineq) -> float:
    if cfg.get("volume") is not None:
        return float(cfg["volume"])
    if src.get("extr") is not None:
        return src["extr"].volume
    return _need(cfg, "volume", None, ineq)


def _sphere_form_integral(cfg, src, ineq) -> float:
    """Constant (Hbar^2 + 1) for a model immersed in the unit sphere."""
    if cfg.get("hbar1_integral") is not None:
        return float(cfg["hbar1_integral"])
    if src["kind"] == "model" and src.get("radius") is not None:
        radius = src["radius"]
        if radius > 1.0 + 1e-12:
            raise UsageError(
                "a sphere of radius %s does not fit in the unit sphere"
                % format_float(radius),
                radius=radius,
            )
        return 1.0 / radius**2
    if src["kind"] == "model" and src.get("radii") is not None:
        radii = src["radii"]
        rsum = float(np.sum(np.asarray(radii) ** 2))
        if abs(rsum - 1.0) > 1e-6:
            raise UsageError(
                "torus must be scaled into the unit sphere (sum of squared "
                "radii is %s)" % format_float(rsum),
                parameter="hbar1_integral",
            )
        return _model_h_sq(cfg, src, ineq)
    return _need(cfg, "hbar1_integral", None, ineq)


def _check_one(ineq, j, src, cfg, spectrum_like):
    n = src["n"]
    prov = src["provenance"]
    if ineq == "main":
        if src["kind"] == "mesh":
            terms = WeightedCurvatureTerms.from_vertex_fields(
                n,
                src["extr"].H_sq,
                src["basis"].vectors[:, j - 1],
                src["ops"].mass_diag,
            )
        else:
            terms = WeightedCurvatureTerms.from_constants(
                n, _model_h_sq(cfg, src, ineq), _bundle_kappa(cfg, src)
            )
        return check_main_theorem(spectrum_like, j, n, terms, prov)
    if ineq == "eta":
        c_sup = (
            float(cfg["c_sup"])
            if cfg.get("c_sup") is not None
            else n**2 * _model_h_sq(cfg, src, ineq)
        )
        return check_corollary_eta(
            spectrum_like, j, n, c_sup, _bundle_kappa(cfg, src), prov
        )
    if ineq == "universal-euclidean":
        c1 = (
            float(cfg["c1"])
            if cfg.get("c1") is not None
            else n**2 * _model_h_sq(cfg, src, ineq)
        )
        c2 = float(cfg["c2"]) if cfg.get("c2") is not None else _bundle_kappa(cfg, src)
        return check_universal_euclidean(spectrum_like, j, n, c1, c2, prov)
    if ineq == "universal-sphere":
        c3 = float(cfg["c3"]) if cfg.get("c3") is not None else _bundle_kappa(cfg, src)
        return check_universal_sphere(spectrum_like, j, n, c3, prov)
    if ineq == "sphere":
        hbar1 = _sphere_form_integral(cfg, src, ineq)
        return check_sphere_theorem(
            spectrum_like, j, n, hbar1, 4.0 * _bundle_kappa(cfg, src), prov
        )
    if ineq == "lp-spin":
        if cfg.get("b_sq_sup") is not None:
            b_sq = float(cfg["b_sq_sup"])
        elif src["kind"] == "model" and src.get("extr") is not None:
            b_sq = src["extr"].B_sq
        else:
            b_sq = _need(cfg, "b_sq_sup", None, ineq)
        return check_lp_spin(spectrum_like, j, n, b_sq, prov)
    if ineq == "projective":
        minimal = bool(cfg.get("minimal"))
        s_inf = cfg.get("s_inf")
        if minimal and s_inf is None and src.get("extr") is not None:
            s_inf = src["extr"].S
        return check_projective(
            spectrum_like,
            j,
            n,
            cfg.get("field", "C"),
            sup_term=None if cfg.get("sup_term") is None else float(cfg["sup_term"]),
            s_inf=None if s_inf is None else float(s_inf),
            minimal=minimal,
            provenance=prov,
        )
    raise UsageError("unhandled inequality id %r" % ineq, ineq=ineq)


def _kernel_dim(cfg, src, spectrum_like) -> int:
    if cfg.get("m") is not None:
        return int(cfg["m"])
    if src["kind"] == "mesh":
        return basis_zero_dim(src["basis"])
    return spectrum_like.zero_dim


def _integral_h_sq(cfg, src, ineq) -> float:
    if cfg.get("h_sq_integral") is not None:
        return float(cfg["h_sq_integral"])
    if src["kind"] == "mesh":
        return src["extr"].willmore
    return _model_h_sq(cfg, src, ineq) * _model_volume(cfg, src, ineq)


def _source_volume(cfg, src, ineq) -> float:
    if cfg.get("volume") is not None:
        return float(cfg["volume"])
    if src["kind"] == "mesh":
        return src["extr"].volume
    return _model_volume(cfg, src, ineq)


def cmd_check(cfg) -> int:
    if not cfg.get("ineq"):
        raise UsageError("check needs --ineq", parameter="ineq")
    ineqs = [tok.strip() for tok in str(cfg["ineq"]).split(",") if tok.strip()]
    for iq in ineqs:
        if iq not in KNOWN_INEQS:
            raise UsageError(
                "unknown inequality id %r (known: %s)" % (iq, ", ".join(KNOWN_INEQS)),
                ineq=iq,
            )
    jlist = _j_values(cfg)
    reports = []

    if "conjecture" in ineqs:
        if cfg.get("lattice") is not None:
            lat = _parse_lattice(cfg["lattice"])
        elif cfg.get("model") == "clifford-torus":
            lat = clifford_torus_lattice()
        else:
            raise UsageError("the conjecture probe needs --lattice", parameter="lattice")
        reports.extend(
            conjecture_probe(
                lat,
                area=None if cfg.get("area") is None else float(cfg["area"]),
                count=int(cfg["count"]) if cfg.get("count") is not None else 64,
            )
        )
        ineqs = [iq for iq in ineqs if iq != "conjecture"]

    if ineqs:
        if cfg.get("mesh") and cfg.get("model"):
            raise UsageError("pass either --model or --mesh, not both")
        if cfg.get("mesh"):
            m_guess = int(cfg["m"]) if cfg.get("m") is not None else 1
            need = _required_index(ineqs, jlist, 2, m_guess, cfg)
            count = int(cfg["count"]) if cfg.get("count") is not None else need
            if count < need:
                raise UsageError(
                    "count %d is below the %d values the requested checks read"
                    % (count, need),
                    parameter="count",
                    required=need,
                )
            src = _mesh_source(cfg, count)
            spectrum_like = src["basis"]
        elif cfg.get("model"):
            src = _model_source(cfg)
            n = src["n"]
            m_guess = int(cfg["m"]) if cfg.get("m") is not None else src["zero_guess"]
            need = _required_index(ineqs, jlist, n, m_guess, cfg)
            count = int(cfg["count"]) if cfg.get("count") is not None else need
            if count < need:
                raise UsageError(
                    "count %d is below the %d values the requested checks read"
                    % (count, need),
                    parameter="count",
                    required=need,
                )
            spectrum_like = src["build"](count)
        else:
            raise UsageError("check needs --model, --mesh, or a probe lattice")

        for iq in ineqs:
            if iq in J_STYLE_INEQS:
                for j in jlist:
                    reports.append(_check_one(iq, j, src, cfg, spectrum_like))
            elif iq == "reilly1":
                reports.append(
                    check_reilly_I(
                        spectrum_like,
                        src["n"],
                        _kernel_dim(cfg, src, spectrum_like),
                        _integral_h_sq(cfg, src, iq),
                        _source_volume(cfg, src, iq),
                        src["provenance"],
                    )
                )
            elif iq == "reilly2":
                vol = _source_volume(cfg, src, iq)
                hbar1_total = _sphere_form_integral(cfg, src, iq) * vol
                reports.append(
                    check_reilly_II(
                        spectrum_like,
                        src["n"],
                        _kernel_dim(cfg, src, spectrum_like),
                        hbar1_total,
                        vol,
                        src["provenance"],
                    )
                )
            elif iq == "reilly3":
                htilde = (
                    float(cfg["htilde_sq_integral"])
                    if cfg.get("htilde_sq_integral") is not None
                    else 0.0
                )
                reports.append(
                    check_reilly_III(
                        spectrum_like,
                        src["n"],
                        _kernel_dim(cfg, src, spectrum_like),
                        cfg.get("field", "C"),
                        htilde,
                        _source_volume(cfg, src, iq),
                        src["provenance"],
                    )
                )
            elif iq == "index":
                if cfg.get("b_sq_sup") is not None:
                    b_sq = float(cfg["b_sq_sup"])
                elif src["kind"] == "model" and src.get("extr") is not None:
                    b_sq = src["extr"].B_sq
                else:
                    b_sq = _need(cfg, "b_sq_sup", None, iq)
                reports.append(
                    check_index_corollary(
                        spectrum_like,
                        src["n"],
                        _kernel_dim(cfg, src, spectrum_like),
                        b_sq,
                        src["provenance"],
                    )
                )
            elif iq == "background":
                params = {"n": src["n"]}
                if cfg.get("s0") is not None:
                    params["S0"] = float(cfg["s0"])
                if cfg.get("genus") is not None:
                    params["genus"] = float(cfg["genus"])
                    params["area"] = (
                        float(cfg["area"])
                        if cfg.get("area") is not None
                        else _source_volume(cfg, src, iq)
                    )
                if cfg.get("gap_k") is not None:
                    params["gap_k"] = int(cfg["gap_k"])
                    params["H_sq"] = _model_h_sq(cfg, src, iq)
                    params["kappa"] = _bundle_kappa(cfg, src)
                if cfg.get("yang_k") is not None:
                    params["yang_k"] = int(cfg["yang_k"])
                    params["H_sq"] = _model_h_sq(cfg, src, iq)
                    params["kappa"] = _bundle_kappa(cfg, src)
                if cfg.get("b_sq_sup") is not None:
                    params["B_sq_sup"] = float(cfg["b_sq_sup"])
                if cfg.get("h_sq_integral") is not None:
                    params["H_sq_integral"] = float(cfg["h_sq_integral"])
                    params["volume"] = _source_volume(cfg, src, iq)
                if cfg.get("htilde_sq_integral") is not None:
                    params["Htilde_sq_integral"] = float(cfg["htilde_sq_integral"])
                    params["volume"] = _source_volume(cfg, src, iq)
                if cfg.get("chen_h_sq") is not None:
                    params["chen_H_sq"] = float(cfg["chen_h_sq"])
                    params["kappa"] = _bundle_kappa(cfg, src)
                if cfg.get("lp_j") is not None:
                    params["lp_j"] = int(cfg["lp_j"])
                reports.extend(
                    check_background_bounds(spectrum_like, params, src["provenance"])
                )

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
    if step <= 0.0:
        raise UsageError("grid step must be positive, got %s" % format_float(step))
    steps = int(math.floor((stop - start) / step + 0.5))
    if start <= 0.0 or steps < 0:
        raise UsageError(
            "empty or invalid ratio grid %r" % text, start=start, stop=stop, step=step
        )
    return [start + i * step for i in range(steps + 1)]


def _sweep_point(args):
    index, ratio, area, count = args
    # fixed area, aspect ratio r2/r1 = ratio
    r1 = math.sqrt(area / (4.0 * math.pi**2 * ratio))
    lat = Lattice(np.diag([2.0 * math.pi * r1, 2.0 * math.pi * r1 * ratio]))
    return index, ratio, conjecture_probe(lat, area=area, count=count)


def cmd_sweep(cfg) -> int:
    if cfg.get("family") != "torus-lattice":
        raise UsageError("unknown sweep family %r" % cfg.get("family"))
    if not cfg.get("ratio_grid"):
        raise UsageError("sweep needs --ratio-grid", parameter="ratio_grid")
    ratios = _parse_grid(cfg["ratio_grid"])
    area = float(cfg["area"])
    count = int(cfg["count"])
    workers = cfg.get("workers")
    workers = int(workers) if workers is not None else (os.cpu_count() or 1)
    tasks = [(i, ratio, area, count) for i, ratio in enumerate(ratios)]
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        results = list(pool.map(_sweep_point, tasks))
    results.sort(key=lambda item: item[0])
    rows = []
    for _, ratio, reports in results:
        for rep in reports:
            rows.append(
                [
                    ratio,
                    rep.params["spin"],
                    rep.ineq_id,
                    rep.lhs,
                    rep.rhs,
                    rep.margin,
                    rep.satisfied,
                ]
            )
    header = ("ratio", "spin", "ineq_id", "lhs", "rhs", "margin", "satisfied")
    _emit(cfg, format_csv(header, rows))
    return 0


# ---------------------------------------------------------------------------
# prooflab command


def _prooflab_basis(cfg, mesh, ops, default_count=None):
    """Eigenbasis for a prooflab task.

    Explicit --count forces a sparse solve of that size.  Otherwise tasks
    that only need a single low eigenpair pass default_count and get a
    small sparse solve on large meshes; the full dense basis is the
    fallback for small ones.
    """
    if cfg.get("count") is not None:
        k = int(cfg["count"])
        if k >= mesh.n_vertices:
            raise UsageError(
                "count %d must be below the vertex count %d" % (k, mesh.n_vertices),
                count=k,
            )
        return solve_smallest(ops, k, tol=float(cfg["tol"]), seed=int(cfg["seed"]))
    if default_count is not None and mesh.n_vertices > 4 * default_count:
        return solve_smallest(
            ops, default_count, tol=float(cfg["tol"]), seed=int(cfg["seed"])
        )
    return dense_eigenbasis(ops)


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
        j = int(cfg["j"]) if cfg.get("j") is not None else 2
        rows = []
        for level, path in enumerate(paths, start=1):
            mesh = load_mesh(path, cfg.get("mesh_format"))
            ops = assemble_operators(mesh)
            basis = _prooflab_basis(cfg, mesh, ops, default_count=j + 8)
            report = verify_anghel_lemma(mesh, ops, basis, j)
            rows.append([level, report.residual_rel])
        _emit(cfg, format_csv(("level", "residual"), rows))
        return 0

    if not cfg.get("mesh"):
        raise UsageError("prooflab needs --mesh", parameter="mesh")
    mesh = load_mesh(cfg["mesh"], cfg.get("mesh_format"))
    ops = assemble_operators(mesh)
    if task == "anghel":
        j = int(cfg["j"]) if cfg.get("j") is not None else 2
        basis = _prooflab_basis(cfg, mesh, ops, default_count=j + 8)
        report = verify_anghel_lemma(mesh, ops, basis, j)
        _emit(cfg, dumps_json(report.to_json_dict()))
        return 0
    if task == "identities":
        report = coordinate_identities(mesh, ops)
        _emit(cfg, dumps_json(report.to_json_dict()))
        return 0
    basis = _prooflab_basis(cfg, mesh, ops)
    if task == "prop31":
        j = int(cfg["j"]) if cfg.get("j") is not None else 1
        psi = _psi_field(cfg, mesh)
        trunc = None if cfg.get("trunc") is None else int(cfg["trunc"])
        report = verify_prop31(mesh, ops, basis, psi, j, trunc)
        _emit(cfg, dumps_json(report.to_json_dict()))
        return 0
    raise UsageError("task must be prop31, anghel, identities, or refinement", task=task)


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
    p_sweep.add_argument("--family", choices=("torus-lattice",))
    p_sweep.add_argument(
        "--ratio-grid", dest="ratio_grid", help="aspect grid start:stop:step"
    )
    p_sweep.add_argument("--area", type=float, help="fixed torus area")
    p_sweep.add_argument("--count", type=int)
    p_sweep.add_argument("--workers", type=int)
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
    return parser


DEFAULTS_BY_COMMAND = {
    "spectrum": SPECTRUM_DEFAULTS,
    "check": CHECK_DEFAULTS,
    "sweep": SWEEP_DEFAULTS,
    "prooflab": PROOFLAB_DEFAULTS,
}

HANDLERS = {
    "spectrum": cmd_spectrum,
    "check": cmd_check,
    "sweep": cmd_sweep,
    "prooflab": cmd_prooflab,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args, DEFAULTS_BY_COMMAND[args.command])
        return HANDLERS[args.command](cfg)
    except SolverConvergenceError as exc:
        sys.stderr.write(dumps_json(exc.to_json_dict()))
        return 3
    except SpecGeomError as exc:
        sys.stderr.write(dumps_json(exc.to_json_dict()))
        return 2
    except OSError as exc:
        sys.stderr.write(
            dumps_json({"kind": "io", "message": str(exc), "detail": {}})
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
