"""Command-line front end.

Subcommands: spectrum (model or mesh spectra), check (inequality reports),
sweep (flat-torus family probe), prooflab (identity residual checks).

Exit codes: 0 success and, for checks, every non-exploratory report
satisfied; 1 when a non-exploratory check is unsatisfied; 2 usage or
validation error; 3 solver non-convergence; 4 internal error (an
unexpected exception).  Errors print one JSON object {"kind", "message",
"detail"} to stderr.

Configuration comes from flags or from a single JSON config file
(--config), whose entries, converted by their flags' types, become the
subcommand's defaults; explicitly given flags override them.  All output is
deterministic: reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SolverConvergenceError, SpecGeomError, UsageError, check_tol
from .inequalities import (
    INEQS,
    Inputs,
    aggregate_exit,
    check_count,
    check_positive,
    conjecture_probe,
    evaluate_inputs,
    lookup,
    validate_index,
    weighted_density_integral,
)
from .mesh import (
    MeshGeometry,
    SparseOperatorPair,
    assemble_operators,
    extrinsic_summary,
    load_mesh,
)
from .models import (
    Lattice,
    SpinStructure,
    clifford_torus_lattice,
    product_torus_extrinsic,
    sphere_dirac_spectrum,
    sphere_extrinsic,
    sphere_laplace_spectrum,
    sphere_volume,
    spinor_rank,
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
    write_vector_sidecar,
)

CLIFFORD_AREA = 2.0 * math.pi**2

# the sparse and dense solvers, bound from eigensolve, which loads scipy, by
# the first mesh source (see _mesh_source); model commands never read them
solve_smallest = None
dense_eigenbasis = None

# the most eigenvalues, j-range indices or ratio-grid points one run may
# ask for; the largest legitimate requests are in the hundreds
MAX_COUNT = 10**5


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


def _config_defaults(parser, path) -> dict:
    """The config file's entries, converted and checked by their flags, to
    become ``parser``'s defaults, so flags given on the command line win."""
    entries = {}
    for key, value in _load_config(path).items():
        norm = key.replace("-", "_")
        if norm not in parser.flags or norm in ("help", "config"):
            raise UsageError("unknown config key %r" % key, key=key)
        if value is not None:
            entries[norm] = _config_value(parser.flags[norm], key, value)
    return entries


# ---------------------------------------------------------------------------
# parsers of flag text: the argparse types, which config entries go through
# too, and the spin parser, which needs the lattice dimension


def _typed(convert, check):
    """Convert the text, then check the value; named after ``convert`` so
    that malformed text reads "invalid int value" as it would without."""
    def parse(text):
        value = convert(text)
        check(value)
        return value

    parse.__name__ = convert.__name__
    return parse


def _at_least(low, key, what):
    def check(value):
        if value < low:
            raise UsageError("%s must be >= %d, got %d" % (what, low, value),
                             **{key: value})

    return check


def _check_finite(value: float) -> None:
    # a ValueError, so that argparse and _config_value report the flag's
    # text as an "invalid float value"
    if not math.isfinite(value):
        raise ValueError(value)


def _check_count(count: int) -> None:
    # zero and negative counts are left to the spectrum's own error
    if count > MAX_COUNT:
        raise UsageError("count must be at most %d, got %d" % (MAX_COUNT, count),
                         parameter="count", cap=MAX_COUNT)


_seed = _typed(int, _at_least(0, "seed", "seed"))
_kernel_dim = _typed(int, _at_least(0, "m", "kernel dimension m"))
_trunc = _typed(int, _at_least(1, "trunc", "trunc"))
_index = _typed(int, validate_index)
_finite = _typed(float, _check_finite)
_count = _typed(int, _check_count)
_gap_k = _typed(int, functools.partial(check_positive, "gap_k"))
_yang_k = _typed(int, functools.partial(check_positive, "yang_k"))
# a fallback volume (a mesh's area) is still checked where a bound reads it
_area = _typed(_finite, functools.partial(check_positive, "area"))
_volume = _typed(_finite, functools.partial(check_positive, "volume"))


def _csv(text) -> list:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _parse_lattice(text) -> Lattice:
    if text == "clifford":
        return clifford_torus_lattice()
    try:
        rows = [
            [float(tok) for tok in row.split()]
            for row in text.split(";")
            if row.strip()
        ]
    except ValueError:
        raise UsageError("cannot parse lattice %r" % text, lattice=text)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise UsageError("lattice rows must form a square matrix", lattice=text)
    if not all(math.isfinite(x) for row in rows for x in row):
        raise UsageError("lattice entries must be finite", lattice=text)
    # rows of the flag are the generators; the Lattice type stores columns
    return Lattice(np.array(rows, dtype=float).T)


def _parse_spin(text, dim: int) -> SpinStructure:
    shifts = []
    for tok in text.split(","):
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


def _psi(text):
    """The prooflab test field, as a function of the mesh."""
    if text in ("const", "one", "1"):
        return lambda mesh: np.ones(mesh.n_vertices)
    if text in ("x", "y", "z"):
        return lambda mesh: mesh.vertices[:, "xyz".index(text)].copy()
    if text.startswith("seed:"):
        try:
            seed = _seed(text.split(":", 1)[1])
        except ValueError:
            raise UsageError("bad psi seed %r" % text)
        return lambda mesh: np.random.default_rng(seed).standard_normal(mesh.n_vertices)
    raise UsageError("psi must be const, x, y, z, or seed:<int>, got %r" % text)


def _j_range(text) -> list:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise UsageError("j-range must look like a:b, got %r" % text)
    if lo < 1 or hi < lo:
        raise UsageError("empty j-range %r" % text, lo=lo, hi=hi)
    if hi - lo >= MAX_COUNT:
        raise UsageError("j-range %r spans more than %d indices" % (text, MAX_COUNT),
                         parameter="j_range", cap=MAX_COUNT)
    return list(range(lo, hi + 1))


def _parse_grid(text) -> list:
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise UsageError("ratio grid must look like start:stop:step, got %r" % text)
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(
            "ratio grid %r must be finite" % text, start=start, stop=stop, step=step
        )
    if step <= 0.0:
        raise UsageError("grid step must be positive, got %s" % format_float(step))
    steps = (stop - start) / step + 0.5  # inf for a tiny step, so capped as a float
    if start <= 0.0 or steps < 0.0:
        raise UsageError(
            "empty or invalid ratio grid %r" % text, start=start, stop=stop, step=step
        )
    if steps >= MAX_COUNT:
        raise UsageError("ratio grid %r has more than %d points" % (text, MAX_COUNT),
                         parameter="ratio_grid", cap=MAX_COUNT)
    return [start + i * step for i in range(int(steps) + 1)]


def _emit(cfg, text: str) -> None:
    if cfg.get("output"):
        with open(cfg["output"], "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# source resolution


@dataclass(frozen=True)
class Source:
    """A model or a mesh, read the same way by every handler: ``build(count)``
    returns its first ``count`` eigenvalues and ``provenance(count)`` names
    them, ``fallbacks`` is the table of its own facts that checks read, and
    ``zero_dim``, the kernel dimension, is ``kernel()``: fixed for a model,
    and a mesh's connected components, counted on first read.  A mesh
    source also carries the loaded ``mesh`` and its assembled ``ops``."""

    build: Callable
    provenance: Callable
    fallbacks: dict
    kernel: Callable
    mesh: MeshGeometry | None = None
    ops: SparseOperatorPair | None = None

    @property
    def zero_dim(self) -> int:
        return self.kernel()


def _diagonal_radii(lat: Lattice):
    """Circle radii of a rectangular lattice, or None if oblique."""
    basis = lat.basis
    off = basis - np.diag(np.diag(basis))
    if np.max(np.abs(off)) > 1e-12 * np.max(np.abs(basis)):
        return None
    return np.abs(np.diag(basis)) / (2.0 * math.pi)


def _resolve_operator(cfg) -> str:
    # a spin structure only makes sense for the Dirac operator, so its
    # presence selects dirac when --operator is not given
    if cfg.get("operator") is not None:
        return cfg["operator"]
    return "dirac" if cfg.get("spin") is not None else "laplace"


def _torus_lattice(cfg, user: str) -> Lattice:
    """The one lattice of a run: the Clifford lattice for --model
    clifford-torus, which fixes it, or else --lattice."""
    if cfg.get("model") == "clifford-torus":
        return clifford_torus_lattice()
    if cfg.get("lattice") is None:
        raise UsageError("%s needs --lattice" % user, parameter="lattice")
    return cfg["lattice"]


def _model_source(cfg) -> Source:
    operator = _resolve_operator(cfg)
    dirac = operator == "dirac"
    hbar1_integral = None  # Hbar^2 + 1, constant on a model in the unit sphere
    if cfg["model"] == "sphere":
        n, radius = cfg["dim"], cfg["radius"]
        spectrum = sphere_dirac_spectrum if dirac else sphere_laplace_spectrum
        extr = sphere_extrinsic(n, radius)
        # read lazily: it leaves the float range far sooner (n > 340 at r = 1)
        consts = {"h_sq": extr.H_sq, "s_inf": extr.S, "b_sq_sup": extr.B_sq,
                  "volume": lambda p: sphere_volume(n, radius)}

        def hbar1_integral(p):
            if radius > 1.0 + 1e-12:
                raise UsageError(
                    "a sphere of radius %s does not fit in the unit sphere"
                    % format_float(radius),
                    radius=radius,
                )
            return 1.0 / radius**2

        build = functools.partial(spectrum, n, radius)
        zero_dim = 0 if dirac else 1
        label = "sphere-%s n=%d r=%s" % (operator, n, format_float(radius))
        extrinsic = "model:sphere"
    else:
        lat = _torus_lattice(cfg, "torus model")
        n = lat.dim
        spin = None
        if dirac and cfg.get("spin") is not None:
            spin = _parse_spin(cfg["spin"], n)
        elif dirac:
            spin = SpinStructure((0.0,) * n)
        radii = _diagonal_radii(lat)
        # every flat torus has S = 0; a product of circles also fixes H^2
        # and |B|^2 of its immersion
        consts = {"s_inf": 0.0, "volume": lat.covolume}
        if radii is not None:
            extr = product_torus_extrinsic(*radii)[1]
            consts.update(h_sq=extr.H_sq, b_sq_sup=extr.B_sq)

            def hbar1_integral(p):  # a product of circles: Hbar^2 + 1 = H^2
                rsum = float(np.sum(radii**2))
                if abs(rsum - 1.0) > 1e-6:
                    raise UsageError(
                        "torus must be scaled into the unit sphere (sum of squared "
                        "radii is %s)" % format_float(rsum),
                        parameter="hbar1_integral",
                    )
                return p["h_sq"]

        if dirac:
            build = functools.partial(torus_dirac_spectrum, lat, spin)
            zero_dim = spinor_rank(n) if spin.is_trivial else 0
        else:
            build, zero_dim = functools.partial(torus_laplace_spectrum, lat), 1
        basis_text = "; ".join(" ".join(map(format_float, col)) for col in lat.basis.T)
        label = "torus-%s lattice=[%s]%s" % (
            operator, basis_text, " spin=%s" % spin.label() if spin else "")
        extrinsic = "model:product-torus" if radii is not None else "explicit"
    # the spinor curvature term of the Lichnerowicz formula is S/4;
    # functions carry none
    fallbacks = {"n": n, **consts, "kappa": consts["s_inf"] / 4.0 if dirac else 0.0}
    if hbar1_integral is not None:
        fallbacks["hbar1_integral"] = hbar1_integral
    provenance = {"spectrum": label, "extrinsic": extrinsic}
    return Source(build, lambda count: provenance, fallbacks, lambda: zero_dim)


def _mesh_source(cfg, path) -> Source:
    """Mesh source, loaded, validated and assembled once, here; its extrinsic
    fields are computed on the first read of a fallback that needs them."""
    global solve_smallest, dense_eigenbasis
    operator = _resolve_operator(cfg)
    if operator != "laplace":
        raise UsageError("mesh spectra are scalar Laplace only", operator=operator)
    # scipy is imported with the first mesh, ahead of the mesh's arrays so
    # that its allocations do not add to their peak; a name already bound,
    # by a patch or a tracer's wrapper, is kept
    from . import eigensolve

    solve_smallest = solve_smallest or eigensolve.solve_smallest
    dense_eigenbasis = dense_eigenbasis or eigensolve.dense_eigenbasis
    mesh = load_mesh(path, cfg.get("mesh_format"))
    ops = assemble_operators(mesh)

    def build(count):
        if count >= mesh.n_vertices:
            raise UsageError(
                "count %d must be below the vertex count %d" % (count, mesh.n_vertices),
                count=count, vertices=mesh.n_vertices,
            )
        return solve_smallest(ops, count, tol=cfg["tol"], seed=cfg["seed"])

    def provenance(count):
        return {"spectrum": "mesh:%s laplace count=%d seed=%d"
                % (os.path.basename(path), count, cfg["seed"]),
                "extrinsic": "mesh-fields"}

    @functools.cache
    def extr():
        return extrinsic_summary(mesh, ops)

    # a surface, and the scalar Laplacian has no bundle curvature term;
    # main reads H^2 weighted by the squared j-th eigenvector, h_sq_at(j)
    fallbacks = {
        "n": 2, "kappa": 0.0, "volume": lambda p: float(mesh.total_area),
        "h_sq": lambda p: float(np.max(extr().H_sq)),
        "h_sq_at": lambda p: lambda j: weighted_density_integral(
            extr().H_sq, p.spectrum.vectors[:, j - 1], ops.mass_diag),
        "s_inf": lambda p: float(np.min(extr().S)),
        "h_sq_integral": lambda p: extr().willmore,
    }
    return Source(build, provenance, fallbacks, lambda: mesh.n_components, mesh, ops)


def _source(cfg, path=None):
    """The source the config names, a mesh at ``path`` when it is given
    (else at --mesh) or a model, or None for neither."""
    path = path or cfg.get("mesh")
    if path and cfg.get("model"):
        raise UsageError("pass either --model or --mesh, not both")
    if path:
        return _mesh_source(cfg, path)
    return _model_source(cfg) if cfg.get("model") else None


# ---------------------------------------------------------------------------
# spectrum command


def cmd_spectrum(cfg) -> int:
    if cfg["include_vectors"] and not (cfg["mesh"] and cfg["output"]):
        raise UsageError("--include-vectors needs --mesh and --output",
                         parameter="include_vectors")
    count = cfg["count"]
    src = _source(cfg)
    if src is None:
        raise UsageError("spectrum needs --model or --mesh", parameter="model")
    spec = src.build(count)
    # a model's last shell may run past count; list exactly count values
    doc = {**spec.to_json_dict(), "values": [spec.gamma(j) for j in range(1, count + 1)]}
    if cfg["include_vectors"]:
        doc.update(write_vector_sidecar(cfg["output"], spec.vectors))
    _emit(cfg, dumps_json(doc))
    return 0


# ---------------------------------------------------------------------------
# check command


# fallbacks that hold for every source, read after the source's own
FALLBACKS = {
    "c_sup": lambda p: p.n**2 * p["h_sq"],
    "c1": lambda p: p.n**2 * p["h_sq"],
    "c2": lambda p: p["kappa"],
    "c3": lambda p: p["kappa"],
    "area": lambda p: p["volume"],
    "h_sq_integral": lambda p: p["h_sq"] * p["volume"],
    "htilde_sq_integral": 0.0,
    "m": lambda p: p.spectrum.zero_dim,
    "lattice": lambda p: _torus_lattice(p.values, "the conjecture probe"),
}


def _check_spectrum(cfg, ineqs, jlist):
    """The source's spectrum, resolved up to the highest index the ids
    read, with the kernel dimension from --m or from the source, then its
    provenance and the fallback tables a check reads."""
    ineqs = [iq for iq in ineqs if INEQS[iq].reads is not None]
    src = _source(cfg)
    if src is None:
        raise UsageError("check needs --model, --mesh, or a probe lattice")
    m = src.zero_dim if cfg["m"] is None else cfg["m"]
    tables = (src.fallbacks, FALLBACKS)
    need = max([1] + [INEQS[iq].reads(Inputs(iq, cfg, fallbacks=tables), max(jlist), m)
                      for iq in ineqs])
    # the indices (--j, --gap-k, --m, --dim, ...) are capped through the
    # size they make the spectrum resolve
    if need > MAX_COUNT:
        raise UsageError(
            "the requested checks read %d values, more than the cap of %d"
            % (need, MAX_COUNT),
            parameter="count",
            required=need,
            cap=MAX_COUNT,
        )
    if cfg["count"] is not None:
        check_count(cfg["count"], need)
    count = need if cfg["count"] is None else cfg["count"]
    return src.build(count), src.provenance(count), tables


def cmd_check(cfg) -> int:
    if not cfg["ineq"]:
        raise UsageError("check needs --ineq", parameter="ineq")
    for iq in cfg["ineq"]:
        lookup(iq)
    jlist = cfg["j_range"] or [cfg["j"] or 1]
    # checks that need no model or mesh (the conjecture probe) report first
    ineqs = sorted(cfg["ineq"], key=lambda iq: INEQS[iq].reads is not None)
    spectrum, provenance, tables = None, None, (FALLBACKS,)
    reports = []
    for iq in ineqs:
        ineq = INEQS[iq]
        if ineq.reads is not None and spectrum is None:
            spectrum, provenance, tables = _check_spectrum(cfg, ineqs, jlist)
        params = Inputs(iq, cfg, spectrum, provenance, tables)
        for j in jlist if ineq.per_j else [None]:
            out = evaluate_inputs(params, j)
            reports.extend(out if isinstance(out, list) else [out])

    if cfg["csv"] or (cfg["output"] and cfg["output"].endswith(".csv")):
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


def cmd_sweep(cfg) -> int:
    if not cfg["ratio_grid"]:
        raise UsageError("sweep needs --ratio-grid", parameter="ratio_grid")
    area = cfg["area"]
    if not (math.isfinite(area) and area > 0.0):
        raise UsageError("sweep area must be finite and positive, got %r" % area, area=area)
    rows = []
    for ratio in cfg["ratio_grid"]:
        # fixed area, aspect ratio r2/r1 = ratio
        r1 = math.sqrt(area / (4.0 * math.pi**2 * ratio))
        lat = Lattice(np.diag([2.0 * math.pi * r1, 2.0 * math.pi * r1 * ratio]))
        rows.extend(
            [ratio, rep.params["spin"], rep.ineq_id, rep.lhs, rep.rhs, rep.margin,
             rep.satisfied]
            for rep in conjecture_probe(lat, area=area, count=cfg["count"])
        )
    header = ("ratio", "spin", "ineq_id", "lhs", "rhs", "margin", "satisfied")
    _emit(cfg, format_csv(header, rows))
    return 0


# ---------------------------------------------------------------------------
# prooflab command


def _prooflab_report(cfg, task, path):
    """The report of one prooflab task on the mesh at ``path``.

    Explicit --count forces a sparse basis of that size.  Otherwise the
    anghel task, which reads a single low eigenpair, gets a small sparse
    solve on a large mesh; the full dense basis serves the rest.
    """
    src = _source(cfg, path)
    mesh, ops = src.mesh, src.ops
    if task == "identities":
        return coordinate_identities(mesh, ops)
    anghel = task == "anghel"
    j = cfg["j"] if cfg["j"] is not None else (2 if anghel else 1)
    count = cfg["count"]
    if count is None and anghel and mesh.n_vertices > 4 * (j + 8):
        count = j + 8
    basis = dense_eigenbasis(ops) if count is None else src.build(count)
    if anghel:
        return verify_anghel_lemma(mesh, ops, basis, j)
    return verify_prop31(ops, basis, cfg["psi"](mesh), j, cfg["trunc"])


def cmd_prooflab(cfg) -> int:
    task = cfg["task"]
    if task is None:
        raise UsageError(
            "task must be prop31, anghel, identities, or refinement", task=task
        )
    if task == "refinement":
        if not cfg["mesh_list"]:
            raise UsageError("refinement needs --mesh-list", parameter="mesh_list")
        paths = _csv(cfg["mesh_list"])
        if len(paths) < 2:
            raise UsageError("refinement needs at least two meshes", count=len(paths))
        rows = [
            [level, _prooflab_report(cfg, "anghel", path).residual_rel]
            for level, path in enumerate(paths, start=1)
        ]
        _emit(cfg, format_csv(("level", "residual"), rows))
        return 0

    if not cfg["mesh"]:
        raise UsageError("prooflab needs --mesh", parameter="mesh")
    _emit(cfg, dumps_json(_prooflab_report(cfg, task, cfg["mesh"]).to_json_dict()))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specgeom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help):
        """A subcommand with the flags every subcommand takes."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--count", type=_count,
                       help="number of eigenvalues (sweep and the conjecture probe: "
                            "a cap of at least 4 per spectrum; prooflab: sparse "
                            "basis size, default dense)")
        p.add_argument("--output", type=str, help="output path (default stdout)")
        return p

    def add_mesh(p):
        p.add_argument("--mesh", type=str, help="OFF or OBJ mesh path")
        p.add_argument("--mesh-format", choices=("off", "obj"))
        p.add_argument("--seed", type=_seed, default=0, help="solver start-vector seed")
        p.add_argument("--tol", type=_typed(float, check_tol), default=1e-9,
                       help="solver tolerance")

    def add_model(p):
        p.add_argument("--model", choices=("sphere", "torus", "clifford-torus"))
        p.add_argument("--operator", choices=("dirac", "laplace"))
        p.add_argument("--dim", type=int, default=2, help="sphere dimension n")
        p.add_argument("--radius", type=_finite, default=1.0, help="sphere radius")
        p.add_argument("--lattice", type=_parse_lattice,
                       help='torus lattice rows "a b; c d" or clifford')
        p.add_argument("--spin", type=str, help="spin shifts per generator, e.g. 0,1/2")

    p_spec = add_command("spectrum", "compute a model or mesh spectrum")
    add_model(p_spec)
    add_mesh(p_spec)
    p_spec.add_argument("--include-vectors", action="store_true",
                        help="store eigenvectors in a binary sidecar")
    p_spec.set_defaults(count=16)

    p_check = add_command("check", "evaluate inequality reports")
    add_model(p_check)
    add_mesh(p_check)
    p_check.add_argument("--ineq", type=_csv, help="comma-separated inequality ids")
    p_check.add_argument("--j", type=_index)
    p_check.add_argument("--j-range", type=_j_range, help="inclusive range a:b")
    p_check.add_argument("--m", type=_kernel_dim, help="kernel dimension")
    for name in ("h-sq", "kappa", "c-sup", "c1", "c2", "c3", "b-sq-sup", "s0", "genus",
                 "h-sq-integral", "hbar1-integral", "htilde-sq-integral", "sup-term",
                 "s-inf", "chen-h-sq"):
        p_check.add_argument("--" + name, type=_finite,
                             help="scalar curvature lower bound" if name == "s0" else None)
    p_check.add_argument("--area", type=_area)
    p_check.add_argument("--volume", type=_volume)
    p_check.add_argument("--field", choices=("R", "C", "Q"), default="C")
    p_check.add_argument("--minimal", action="store_true")
    p_check.add_argument("--gap-k", type=_gap_k)
    p_check.add_argument("--yang-k", type=_yang_k)
    p_check.add_argument("--lp-j", type=_index)
    p_check.add_argument("--csv", action="store_true")

    p_sweep = add_command("sweep", "probe a torus family on a ratio grid")
    p_sweep.add_argument("--ratio-grid", type=_parse_grid, help="aspect grid start:stop:step")
    p_sweep.add_argument("--area", type=float, default=CLIFFORD_AREA,
                         help="fixed torus area")
    p_sweep.set_defaults(count=64)

    p_lab = add_command("prooflab", "residual checks of proof identities")
    add_mesh(p_lab)
    p_lab.add_argument("--task", choices=("prop31", "anghel", "identities", "refinement"))
    p_lab.add_argument("--mesh-list", type=str, help="comma-separated paths")
    p_lab.add_argument("--j", type=_index)
    p_lab.add_argument("--psi", type=_psi, default="x",
                       help="test field: const, x, y, z, or seed:<int>")
    p_lab.add_argument("--trunc", type=_trunc, help="expansion truncation, at least 1")
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
        if args.config:
            sub = parser.commands[args.command]
            sub.set_defaults(**_config_defaults(sub, args.config))
            args = parser.parse_args(argv)
        if getattr(args, "model", None) == "clifford-torus" and args.lattice is not None:
            raise UsageError("--model clifford-torus fixes its lattice; drop --lattice",
                             parameter="lattice")
        return HANDLERS[args.command](vars(args))
    except SolverConvergenceError as exc:
        _write_error(exc.to_json_dict())
        return 3
    except SpecGeomError as exc:
        _write_error(exc.to_json_dict())
        return 2
    except OSError as exc:
        _write_error({"kind": "io", "message": str(exc), "detail": {}})
        return 2
    except Exception as exc:  # a defect, not bad input: never exit 1 like a failed check
        _write_error({"kind": "internal", "message": str(exc) or type(exc).__name__,
                      "detail": {"exception": type(exc).__name__}})
        return 4


if __name__ == "__main__":
    sys.exit(main())
