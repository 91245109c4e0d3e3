"""The four workloads: generated inputs, command lists and output checks.

Inputs come from ``specgeom.meshgen``.  The seed picks one random rigid
rotation applied to every mesh, the solver ``--seed``, and a sub-step
offset of the sweep grid; sizes never depend on it.  ``toy`` shrinks every
input so the self-test runs each workload's code path in seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

NAMES = ("mesh-large", "mesh-deep", "model-sweep", "prooflab-refine")

SWEEP_STEP = 0.01
SWEEP_COUNT = 256
LAB_J = 4
TORUS_RADII = (1.0, 0.4)
# rel 1e-12 rather than bytes: margins move ~1e-14 between BLAS thread counts
REL = 1e-12


@dataclass(frozen=True)
class Sizes:
    large_level: int
    large_j: int
    torus_grid: tuple
    deep_j: int
    sweep_points: int
    lab_levels: tuple


FULL = Sizes(
    large_level=6,
    large_j=10,
    torus_grid=(100, 50),
    deep_j=190,
    sweep_points=351,
    lab_levels=(3, 4, 5),
)
TOY = Sizes(
    large_level=3,
    large_j=3,
    torus_grid=(20, 10),
    deep_j=3,
    sweep_points=5,
    lab_levels=(2, 3),
)

# Predicted layer shares of attributed traced time, checked by the traced
# run: (layer, lowest share, highest share).
_NO_LAB = [("prooflab", 0.0, 0.0), ("eigensolve.dense_eigenbasis", 0.0, 0.0)]
ISOLATION = {
    "mesh-large": [("eigensolve", 0.60, 1.0)] + _NO_LAB,
    "mesh-deep": [("eigensolve", 0.90, 1.0)] + _NO_LAB,
    "model-sweep": [("models", 0.80, 1.0), ("mesh", 0.0, 0.0), ("eigensolve", 0.0, 0.0)] + _NO_LAB,
    "prooflab-refine": [("prooflab", 1e-9, 1.0), ("eigensolve.dense_eigenbasis", 1e-9, 1.0)],
}


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _seed_draws(seed):
    """Rotation, solver seed and grid offset for one benchmark seed."""
    rng = np.random.default_rng(seed)
    rotation = _rotation(rng)
    solver_seed = int(rng.integers(0, 2**31 - 1))
    offset = round(float(rng.uniform(0.0, SWEEP_STEP)), 6)
    return rotation, solver_seed, offset


def generate(name, seed, sizes, workdir):
    """Write the workload's input files; return ``{role: path}``."""
    from specgeom import meshgen

    rotation, _, _ = _seed_draws(seed)

    def write(fname, verts, faces):
        path = os.path.join(workdir, fname)
        verts = verts @ rotation.T
        if fname.endswith(".obj"):
            meshgen.write_obj(path, verts, faces)
        else:
            meshgen.write_off(path, verts, faces)
        return path

    files = {}
    if name == "mesh-large":
        level = sizes.large_level
        files["large"] = write("L%d.off" % level, *meshgen.icosphere(level))
    elif name == "mesh-deep":
        nu, nv = sizes.torus_grid
        files["deep"] = write(
            "torus%dx%d.off" % (nu, nv), *meshgen.torus_of_revolution(*TORUS_RADII, nu, nv)
        )
    elif name == "prooflab-refine":
        for i, level in enumerate(sizes.lab_levels):
            ext = "obj" if i == 1 else "off"
            files["lab%d" % i] = write("L%d.%s" % (level, ext), *meshgen.icosphere(level))
    elif name != "model-sweep":
        raise ValueError("unknown workload %r" % name)
    return files


def input_hash(files):
    digest = hashlib.sha256()
    for role in sorted(files):
        digest.update(role.encode())
        with open(files[role], "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _grid(seed, sizes):
    _, _, offset = _seed_draws(seed)
    start = 0.5 + offset
    stop = start + SWEEP_STEP * (sizes.sweep_points - 1)
    return start, stop


def commands(name, seed, sizes, files):
    """The workload's fixed list of ``specgeom`` argv lists."""
    _, solver_seed, _ = _seed_draws(seed)
    sseed = str(solver_seed)
    if name == "mesh-large":
        return [["check", "--ineq", "main,reilly1", "--mesh", files["large"],
                 "--j-range", "1:%d" % sizes.large_j, "--seed", sseed]]
    if name == "mesh-deep":
        return [["check", "--ineq", "main,reilly1", "--mesh", files["deep"],
                 "--j-range", "1:%d" % sizes.deep_j, "--seed", sseed]]
    if name == "model-sweep":
        start, stop = _grid(seed, sizes)
        grid = "%r:%r:%r" % (start, stop, SWEEP_STEP)
        return [["sweep", "--ratio-grid", grid, "--count", str(SWEEP_COUNT)]]
    if name == "prooflab-refine":
        labs = [files["lab%d" % i] for i in range(len(sizes.lab_levels))]
        return [
            ["prooflab", "--task", "refinement", "--mesh-list", ",".join(labs),
             "--j", str(LAB_J), "--seed", sseed],
            ["prooflab", "--task", "prop31", "--mesh", labs[0], "--psi", "x",
             "--seed", sseed],
            ["prooflab", "--task", "identities", "--mesh", labs[-1]],
        ]
    raise ValueError("unknown workload %r" % name)


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output holds


def _close(a, b, rel=REL, scale=1.0):
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_reports(doc, j_max, band):
    """A ``check --ineq main,reilly1`` document for j = 1..j_max."""
    problems = []
    reports = doc.get("reports", [])
    if len(reports) != j_max + 1:
        return ["expected %d reports, got %d" % (j_max + 1, len(reports))]
    mains, reilly = reports[:-1], reports[-1]
    if [r["ineq_id"] for r in mains] != ["main"] * j_max:
        problems.append("first %d reports are not all main" % j_max)
    if [r["params"].get("j") for r in mains] != list(range(1, j_max + 1)):
        problems.append("main reports do not cover j = 1..%d" % j_max)
    if reilly["ineq_id"] != "reilly-mean-curvature":
        problems.append("last report is %r" % reilly["ineq_id"])
    if not all(r["satisfied"] for r in reports) or doc.get("all_satisfied") is not True:
        problems.append("a report is unsatisfied")
    if not _finite([r[k] for r in reports for k in ("lhs", "rhs", "margin")]):
        problems.append("non-finite lhs/rhs/margin")
    gammas = [r["terms"]["gamma_j"] for r in mains]
    if abs(gammas[0]) > 1e-8:
        problems.append("first eigenvalue %r is not the kernel" % gammas[0])
    if any(b < a - 1e-9 * max(abs(b), 1.0) for a, b in zip(gammas, gammas[1:])):
        problems.append("eigenvalues are not ascending")
    if band is not None:
        exact, rel = band
        tail = mains[-1]["terms"]["gamma_sum"]
        pairs = list(zip(gammas, exact[:j_max]))
        pairs.append((tail, exact[j_max] + exact[j_max + 1]))
        for got, want in pairs:
            if abs(got - want) > rel * max(want, 1.0):
                problems.append(
                    "eigenvalue %r outside the band %g of the sphere value %r"
                    % (got, rel, want)
                )
                break
    return problems


def _sphere_band(level, j_max):
    """Sphere eigenvalues l(l+1) and the relative band for an icosphere.

    The cotangent Laplacian converges at second order in the edge length,
    which halves per subdivision level.  Measured on L3-L6 (j <= 12) the
    worst relative error is 0.93 * 4**-level; the band allows four times that.
    """
    from specgeom.models import sphere_laplace_spectrum

    exact = [float(v) for v in sphere_laplace_spectrum(2, 1.0, j_max + 2).values(j_max + 2)]
    return exact, 4.0 * 4.0 ** (-level)


def _brute_two_mean(ratio, spin):
    """(Gbar_1 + Gbar_2)/2 of D^2 on the Clifford-area rectangular torus.

    Eigenvalues are |(k1 + s1)/r1|^2 + |(k2 + s2)/r2|^2 over k in Z^2, each
    with spinor multiplicity 2, so the two smallest nonzero values are the
    same number.
    """
    r1 = math.sqrt(1.0 / (2.0 * ratio))
    r2 = r1 * ratio
    ks = range(-8, 9)
    values = sorted(
        ((k1 + spin[0]) / r1) ** 2 + ((k2 + spin[1]) / r2) ** 2 for k1 in ks for k2 in ks
    )
    return next(v for v in values if v > 0.0)


def _check_sweep(text, seed, sizes):
    lines = text.splitlines()
    if not lines or lines[0] != "ratio,spin,ineq_id,lhs,rhs,margin,satisfied":
        return ["unexpected sweep header"]
    rows = lines[1:]
    expected = 4 * sizes.sweep_points
    if len(rows) != expected:
        return ["expected %d sweep rows, got %d" % (expected, len(rows))]
    start, _ = _grid(seed, sizes)
    problems = []
    # a seeded sample of ratios, always including both ends of the grid
    rng = np.random.default_rng(seed)
    picks = {0, sizes.sweep_points - 1}
    picks.update(int(i) for i in rng.integers(0, sizes.sweep_points, size=6))
    for i in sorted(picks):
        for s, spin in enumerate(((0, 0), (0, 0.5), (0.5, 0), (0.5, 0.5))):
            row = rows[4 * i + s]
            ratio_txt, rest = row.split(",", 1)
            label, ineq, lhs, rhs, margin, sat = rest.rsplit(",", 5)
            ratio = float(ratio_txt)
            want_label = '"%s"' % ",".join("1/2" if x else "0" for x in spin)
            want = _brute_two_mean(ratio, spin)
            if not _close(ratio, start + i * SWEEP_STEP):
                problems.append("row %d: ratio %s off the grid" % (4 * i + s, ratio_txt))
            elif label != want_label or ineq != "two-mean-lower":
                problems.append("row %d: labels %s %s" % (4 * i + s, label, ineq))
            elif not (_close(float(lhs), want) and _close(float(rhs), 2.0)
                      and _close(float(margin), want - 2.0, scale=2.0)):
                problems.append("row %d: %s differs from brute force %r" % (4 * i + s, row, want))
            elif sat != ("true" if want - 2.0 >= -1e-10 * max(want, 2.0) else "false"):
                problems.append("row %d: satisfied flag %s" % (4 * i + s, sat))
    return problems


def _check_refinement(text, levels):
    lines = text.splitlines()
    if not lines or lines[0] != "level,residual" or len(lines) != len(levels) + 1:
        return ["expected %d refinement rows" % len(levels)]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(1, len(levels) + 1)):
        return ["refinement levels are not 1..%d" % len(levels)]
    resid = [float(r[1]) for r in rows]
    if not _finite(resid) or min(resid) <= 0.0:
        return ["refinement residuals are not finite and positive"]
    # second order in the edge length: each level should shrink it ~4x
    if any(b > 0.5 * a for a, b in zip(resid, resid[1:])):
        return ["refinement residuals %r do not converge" % resid]
    return []


def _check_prop31(doc):
    if doc.get("check_id") != "expansion-identity":
        return ["prop31 check_id %r" % doc.get("check_id")]
    if not _finite([doc.get("lhs"), doc.get("rhs"), doc.get("residual_rel")]):
        return ["prop31 values are not finite"]
    if doc["residual_rel"] > 1e-4:
        return ["prop31 residual %r above 1e-4" % doc["residual_rel"]]
    return []


def _check_identities(doc):
    keys = ("grad_norm_max_err", "laplace_h_max_err", "cross_term_l2", "cross_term_max")
    if not _finite([doc.get(k) for k in keys]):
        return ["identity residuals are not finite"]
    if doc["grad_norm_max_err"] > 1e-10 or doc["laplace_h_max_err"] > 1e-10:
        return ["exact coordinate identities off by more than 1e-10"]
    if not 0.0 <= doc["cross_term_l2"] < 0.05:
        return ["cross term %r outside [0, 0.05)" % doc["cross_term_l2"]]
    return []


def check(name, index, seed, sizes, code, out):
    """Problems with command ``index`` of workload ``name``; [] when it holds."""
    if code != 0:
        return ["exit code %r" % (code,)]
    try:
        if name == "mesh-large":
            band = _sphere_band(sizes.large_level, sizes.large_j)
            return _check_reports(json.loads(out), sizes.large_j, band)
        if name == "mesh-deep":
            return _check_reports(json.loads(out), sizes.deep_j, None)
        if name == "model-sweep":
            return _check_sweep(out, seed, sizes)
        if name == "prooflab-refine":
            if index == 0:
                return _check_refinement(out, sizes.lab_levels)
            if index == 1:
                return _check_prop31(json.loads(out))
            return _check_identities(json.loads(out))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
    raise ValueError("unknown workload %r" % name)
