"""The benchmark's span tracer sees every report a check prints."""

import importlib.util
import json
from pathlib import Path

from specgeom import cli
from specgeom.meshgen import icosphere, write_off
from specgeom.serialize import dumps_json

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inequality_spans_return_every_printed_report(tmp_path, capsys):
    path = tmp_path / "ico1.off"
    write_off(path, *icosphere(1))
    returned = []

    def observe(name, fn, args, kwargs, result):
        if name.startswith("inequalities."):
            for r in result if isinstance(result, list) else [result]:
                if hasattr(r, "ineq_id"):
                    returned.append(r.to_json_dict())

    tracer = load_tracer().Tracer(observe)
    tracer.install()
    try:
        code = cli.main(["check", "--ineq", "main,reilly1", "--mesh", str(path)])
    finally:
        tracer.uninstall()
    printed = json.loads(capsys.readouterr().out)["reports"]
    assert code == 0
    assert [r["ineq_id"] for r in printed] == ["main", "reilly-mean-curvature"]
    assert json.loads(dumps_json(returned)) == printed
