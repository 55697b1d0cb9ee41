"""The names the benchmark's tracer (perfbench/spans.py) looks up still exist.

The tracer wraps mfglab's public functions by name and reads attributes of
their results; a name that is gone reads None, and a None or NaN metric
spoils the benchmark's result line.  `Tracer.install` patches the modules for
good, so each case runs in a fresh interpreter.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import contextlib, io, json, os, sys
root, out, scenarios = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import mfglab.cli
import workloads
from spans import Tracer

tracer = Tracer()
tracer.install()
codes = []
for scen in scenarios:
    cfg = os.path.join(out, scen + ".cfg")
    with open(cfg, "w") as fh:
        fh.write(workloads.config_text(scen, 1, shrink=True))
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(mfglab.cli.main(["run", cfg, "--out-dir", out]))
print(json.dumps({"codes": codes, "metrics": tracer.metrics()}))
"""


def refuse(constant):
    raise ValueError(f"{constant} in the tracer's metrics")


@pytest.mark.parametrize("scenarios, shoots", [(("E3",), True), (("E6",), True),
                                               (("E2",), False)], ids=["E3", "E6", "E2"])
def test_traced_run_reads_finite_metrics(tmp_path, scenarios, shoots):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT, str(tmp_path), *scenarios],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1], parse_constant=refuse)
    assert all(code in (0, 2) for code in res["codes"])
    metrics = res["metrics"]
    bad = {k: v for k, v in metrics.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)}
    assert bad == {}
    assert (metrics["control.shoots"] > 0) == shoots
