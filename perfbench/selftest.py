"""Toy-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload with ``--toy`` (L2/L3 meshes, a 5-point grid,
``--j-range 1:3``) with tracing off and on, and asserts that each run exits
0, reports every output correct, and prints exactly the metric names that
``BENCHMARK.json`` declares, plus ``fail_ratio``.  Then checks that a copy
holding only ``BENCHMARK.json`` and ``perfbench/`` fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_run(spec, workload, trace):
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--toy"], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    section = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section], result["metrics"]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert any(line.startswith("# fail_ratio 0 ") for line in lines), lines
    if trace:
        assert result["metrics"]["cli.self_s"]["value"] >= 0.0
        assert any(line.startswith("# isolation") for line in lines), lines
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0.0 for m in section), result


def check_bare_copy():
    workroot = os.path.join(HERE, ".work")
    os.makedirs(workroot, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=workroot)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(["--workload", "mesh-large", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print("ok %s trace %d" % (workload, trace))
    check_bare_copy()
    print("ok bare copy fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
