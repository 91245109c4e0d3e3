"""specgeom benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload mesh-large --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The script generates the workload's meshes with
``specgeom.meshgen``, starts a fresh interpreter (``worker.py``) that runs
the workload's ``specgeom`` commands in-process and checks every output,
then times fresh interpreters importing ``specgeom.cli`` for ``setup_s``.
``wall_rel`` is the median pass wall time divided by the median time of a
fixed reference kernel timed before and after every pass (``reference.py``),
which cancels the drift of a shared host's speed; the raw ``wall_s`` is
printed beside it.
Child processes get ``OPENBLAS_NUM_THREADS=1`` before numpy loads.

Lines starting with ``#`` describe the run; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  ``--toy`` shrinks every input for
the self-test and is not a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # imports should read cached bytecode, as they do for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def git_commit():
    """The checkout's commit read from ``.git``, or ``unknown`` outside git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import specgeom.cli; "
    "print(time.perf_counter() - t)"
)


def setup_seconds(env, remaining):
    """Median time a fresh interpreter takes to run ``import specgeom.cli``.

    Timed inside the child: timing the whole subprocess would add the
    interpreter start and the 50 ms polling steps of a wait with a timeout.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              check=True, timeout=remaining, capture_output=True, text=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="self-test sizes, not a measurement")
    args = parser.parse_args(argv)
    begin = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "specgeom", "cli.py")):
        fail("no specgeom sources under %s; run from a source checkout" % SRC)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc)

    os.environ.update(PINNED)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.NAMES:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads.NAMES)))
    sizes = workloads.TOY if args.toy else workloads.FULL
    env = child_env()

    workroot = os.path.join(HERE, ".work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=workroot)
    try:
        files = workloads.generate(args.workload, args.seed, sizes, workdir)
        digest = workloads.input_hash(files)
        result_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--files", json.dumps(files), "--result", result_path]
        if args.toy:
            cmd.append("--toy")
        remaining = DEADLINE_S - (time.perf_counter() - begin)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=remaining)
        if proc.returncode != 0:
            fail("measuring process exited with %d" % proc.returncode)
        with open(result_path) as fh:
            res = json.load(fh)
        remaining = DEADLINE_S - (time.perf_counter() - begin)
        setup_s, setup_all = setup_seconds(env, remaining)
    except subprocess.TimeoutExpired:
        fail("run exceeded %.0f s" % DEADLINE_S)
    except subprocess.CalledProcessError as exc:
        fail("import specgeom.cli failed with %d" % exc.returncode)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = res["walls"]
    wall_s = statistics.median(walls)
    q1, q3 = quartiles(walls)
    ref_s = statistics.median(res["ref_times"])
    wall_rel = wall_s / ref_s
    fail_ratio = res["failed"] / res["attempted"]
    env_info = dict(res["env"], commit=git_commit(), inputs_sha256=digest)
    print("# env " + json.dumps(env_info, sort_keys=True))
    print("# wall_s median %.4f q1 %.4f q3 %.4f over %d passes" % (wall_s, q1, q3, len(walls)))
    print("# wall_rel %.4f = wall_s / reference kernel median %.5f s over %d samples"
          % (wall_rel, ref_s, len(res["ref_times"])))
    print("# setup_s median %.4f of %s" % (setup_s, ", ".join("%.4f" % t for t in setup_all)))
    print("# fail_ratio %.6g (%d failed of %d attempted)" % (fail_ratio, res["failed"], res["attempted"]))
    for problem in res["problems"]:
        print("# problem " + problem)

    if args.trace:
        values = dict(res["layers"])
        section = spec["per_layer"]
        shares = res["shares"]
        top = sorted(((v, k) for k, v in shares.items() if "." not in k), reverse=True)
        print("# layer shares " + ", ".join("%s %.4f" % (k, v) for v, k in top))
        for key, lo, hi in workloads.ISOLATION[args.workload]:
            share = shares.get(key, 0.0)
            status = "ok" if lo <= share <= hi else "VIOLATED"
            print("# isolation %s: %s share %.4f, designed [%g, %g]" % (status, key, share, lo, hi))
        spans_path = os.path.join(workroot, "spans-%s-%d.json" % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            json.dump(res["spans"], fh)
        print("# spans of the last traced pass: " + os.path.relpath(spans_path, ROOT))
        missing = []
    else:
        values = {"wall_rel": wall_rel, "setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"]}
        section = spec["end_to_end"]
        missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        fail("no value for end-to-end metrics %s" % ", ".join(missing))
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in section
    }
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
