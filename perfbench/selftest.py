"""Self-test of the benchmark harness on shrunk configs (about two minutes).

    python3 perfbench/selftest.py

Records references for small grids, ensembles and N lists, then checks:
every end-to-end and per-layer metric of BENCHMARK.json is printed by name
with its unit on every workload; the gate passes on its own references;
control metrics read 0 where control is never entered; and perturbing one
reference value makes the gate fail and raises failed_frac.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work", "selftest")

import workloads  # noqa: E402


def bench(workload: str, trace: int, refs: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--shrink",
         "--references", refs], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond: bool, what: str, failures: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    refs = os.path.join(WORK, "references.json")
    subprocess.run([sys.executable, os.path.join(HERE, "record.py"), "--shrink",
                    "--out", refs, "--seeds", "1", "2"], check=True, cwd=ROOT)

    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            res = bench(workload, trace, refs)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == wanted, f"{workload} trace {trace}: metric names and units", failures)
            expect(res["correct"] and res["attempted"] > 0,
                   f"{workload} trace {trace}: gate passes on its references", failures)
            if trace:
                shoots = res["metrics"]["control.shoots"]["value"]
                control = workload == "limit-control"
                expect((shoots > 0) == control and
                       (control or res["metrics"]["control.s"]["value"] == 0),
                       f"{workload}: control metrics read 0 unless control runs", failures)

    with open(refs) as fh:
        doc = json.load(fh)
    # E5's shrunk config widens the sign band, so the call itself passes
    row = doc["seeded_rows"]["1"]["E5"][0]
    row["mean_T"] = repr(float(row["mean_T"]) * (1 + 1e-6) + 1e-9)
    bad = os.path.join(WORK, "perturbed.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    clean, dirty = bench("selection-1d", 0, refs), bench("selection-1d", 0, bad)
    expect(not dirty["correct"] and dirty["failed"] / dirty["attempted"]
           > clean["failed"] / clean["attempted"],
           "perturbed reference fails the gate and raises failed_frac", failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
