"""Measuring process: runs one workload's command list in-process.

Started by ``run.py`` as a fresh interpreter with BLAS pinned to one
thread.  It imports ``specgeom.cli``, runs one warm-up pass (whose peak
resident memory is ``peak_rss_mb``), then timed passes through
``specgeom.cli.main(argv)`` with stdout captured until ``--seconds`` have
passed.  Before the first pass and after every pass it times the reference
kernel (``reference.py``) and keeps the samples for ``wall_rel``.  With
``--trace 1`` it alternates untraced and traced passes and derives the
per-layer numbers from the traced ones.  Every command's output is checked
after each pass, outside the timed region.  The result goes to ``--result``
as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import statistics
import sys
import time
import traceback
from collections import defaultdict

import reference
import workloads
from tracer import Tracer, self_times

LAYERS = ("cli", "mesh", "eigensolve", "models", "inequalities", "prooflab", "serialize")
MIN_PASSES = 3
MAX_PROBLEMS = 5


def peak_rss_mb():
    """High-water resident set of this process in MiB (VmHWM, reset at exec)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(cli, cmds, tracer=None, pass_id=0):
    """Run every command once; return (wall seconds, [(code, stdout, stderr)])."""
    results = []
    start = time.perf_counter()
    for index, argv in enumerate(cmds):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(list(argv))
                else:
                    code = tracer.command((pass_id, index), lambda: cli.main(list(argv)))
            except Exception:
                code = "raised " + traceback.format_exc().strip().splitlines()[-1]
        results.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


class Checker:
    """Counts attempted and failed commands across passes."""

    def __init__(self, name, seed, sizes):
        self.name, self.seed, self.sizes = name, seed, sizes
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def __call__(self, results):
        if self.reference is None:
            self.reference = [out for _, out, _ in results]
        for index, (code, out, err) in enumerate(results):
            problems = workloads.check(self.name, index, self.seed, self.sizes, code, out)
            if out != self.reference[index]:
                problems.append("stdout differs from the first pass at this seed")
            self.attempted += 1
            if problems:
                self.failed += 1
                message = "command %d: %s; stderr: %s" % (index, "; ".join(problems), err[-300:])
                if len(self.problems) < MAX_PROBLEMS and message not in self.problems:
                    self.problems.append(message)


class LayerCounts:
    """Counts read from the arguments and results of traced calls."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.meshes = []
        self.solves = []

    def __call__(self, name, fn, args, kwargs, result):
        layer = name.split(".")[0]
        c = self.counts
        if name == "mesh.load_mesh":
            c["mesh.vertices"] += result.n_vertices
            self.meshes.append(result)
        elif name == "mesh.assemble_operators":
            c["mesh.stiffness_nnz"] += result.stiffness.nnz
            c["mesh.cot_clamped"] += result.clamp_count
        elif name == "mesh.extrinsic_summary":
            c["mesh.b_sq_clamped"] += result.clamped
        elif name in ("eigensolve.solve_smallest", "eigensolve.eigsh"):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            k = bound.arguments.get("k", 0)
            if name == "eigensolve.eigsh":
                c["eigensolve.pairs_solved"] += k
            else:
                c["eigensolve.pairs_kept"] += k
                if "ops" in bound.arguments and "tol" in bound.arguments:
                    self.solves.append((bound.arguments["ops"], bound.arguments["tol"], result))
        elif name == "models.torus_dirac_spectrum":
            c["models.values_resolved"] += result.total_count
        elif layer == "inequalities":
            reports = result if isinstance(result, list) else [result]
            c["inequalities.reports"] += sum(hasattr(r, "ineq_id") for r in reports)
        elif name in ("serialize.dumps_json", "serialize.format_csv"):
            c["serialize.bytes_out"] += len(result.encode("utf-8"))


def layer_metrics(spans, counts):
    """Per-layer metrics and layer shares of one traced pass."""
    times = self_times(spans)
    layer_self = defaultdict(float)
    for name, (t, _) in times.items():
        layer_self[name.split(".")[0]] += t
    metrics = dict(counts.counts)
    for layer in LAYERS:
        metrics[layer + ".self_s"] = layer_self[layer]
    for name, (t, n) in times.items():
        if name != "cli":
            metrics[name + ".self_s"] = t
            metrics[name + ".calls"] = n
    metrics["eigensolve.eigsh_s"] = times.get("eigensolve.eigsh", (0.0, 0))[0]
    metrics["eigensolve.polish_lu_calls"] = times.get("eigensolve.splu", (0.0, 0))[1]
    solved = metrics.get("eigensolve.pairs_solved", 0.0)
    metrics["eigensolve.kept_ratio"] = (
        metrics.get("eigensolve.pairs_kept", 0.0) / solved if solved else 0.0
    )
    metrics["trace.spans"] = len(spans)
    total = sum(layer_self.values())
    shares = {layer: t / total for layer, t in layer_self.items()} if total else {}
    for name, (t, _) in times.items():
        shares[name] = t / total if total else 0.0
    return metrics, shares


def out_of_band(counts):
    """Numbers measured outside the traced pass from what it loaded and solved."""
    import numpy as np
    from scipy.sparse.linalg import splu

    from specgeom.mesh import mesh_from_arrays

    m = {"mesh.validate_s": 0.0, "eigensolve.factor_s": 0.0, "eigensolve.lu_nnz": 0,
         "eigensolve.worst_residual_ratio": 0.0, "eigensolve.gram_error": 0.0}
    for mesh in counts.meshes:
        start = time.perf_counter()
        mesh_from_arrays(mesh.vertices, mesh.faces)
        m["mesh.validate_s"] += time.perf_counter() - start
    for ops, tol, basis in counts.solves:
        stiff, mass_diag = ops.stiffness, ops.mass_diag
        # the same shift solve_smallest factors for its polish step
        eps = 1e-8 * stiff.diagonal().sum() / max(stiff.nnz, 1)
        start = time.perf_counter()
        lu = splu((stiff + eps * ops.mass).tocsc())
        m["eigensolve.factor_s"] += time.perf_counter() - start
        m["eigensolve.lu_nnz"] += lu.L.nnz + lu.U.nnz
        vecs, vals = basis.vectors, basis.values
        lv = stiff @ vecs
        resid = np.linalg.norm(lv - (mass_diag[:, None] * vecs) * vals[None, :], axis=0)
        bound = tol * np.maximum(1.0, np.linalg.norm(lv, axis=0))
        m["eigensolve.worst_residual_ratio"] = max(
            m["eigensolve.worst_residual_ratio"], float(np.max(resid / bound))
        )
        gram = vecs.T @ (vecs * mass_diag[:, None])
        m["eigensolve.gram_error"] = max(
            m["eigensolve.gram_error"], float(np.max(np.abs(gram - np.eye(len(vals)))))
        )
    return m


def median_by_key(dicts):
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--files", required=True, help="JSON {role: path} of the inputs")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import specgeom.cli as cli

    sizes = workloads.TOY if args.toy else workloads.FULL
    cmds = workloads.commands(args.workload, args.seed, sizes, json.loads(args.files))
    check = Checker(args.workload, args.seed, sizes)

    _, results = run_pass(cli, cmds)
    check(results)
    rss = peak_rss_mb()

    reference.sample()
    walls, traced_walls, per_pass = [], [], []
    counts = None
    deadline = time.perf_counter() + args.seconds
    ref_times = reference.sample()
    while True:
        wall, results = run_pass(cli, cmds)
        ref_times.extend(reference.sample())
        check(results)
        walls.append(wall)
        if args.trace:
            counts = LayerCounts()
            tracer = Tracer(observe=counts)
            tracer.install()
            try:
                wall, results = run_pass(cli, cmds, tracer, pass_id=len(walls))
            finally:
                tracer.uninstall()
            check(results)
            traced_walls.append(wall)
            per_pass.append(layer_metrics(tracer.spans, counts))
            spans = tracer.spans
            ref_times.extend(reference.sample())
        enough = args.trace or len(walls) >= MIN_PASSES
        if enough and time.perf_counter() >= deadline:
            break

    result = {
        "walls": walls,
        "ref_times": ref_times,
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems,
        "peak_rss_mb": rss,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        },
    }
    if args.trace:
        layers = median_by_key([m for m, _ in per_pass])
        layers.update(out_of_band(counts))
        layers["mesh.parse_s"] = layers.get("mesh.load_mesh.self_s", 0.0) - layers["mesh.validate_s"]
        layers["trace.wall_s"] = statistics.median(traced_walls)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(walls)
        result["layers"] = layers
        result["shares"] = median_by_key([s for _, s in per_pass])
        result["spans"] = spans
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
