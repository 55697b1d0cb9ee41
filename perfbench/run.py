"""mfglab benchmark: end-to-end and per-layer metrics of three scenario workloads.

    python3 perfbench/run.py --workload selection-1d --seed 1 --seconds 25 --trace 0

One closed-loop client: every iteration runs the workload's CLI calls one
after another in a fresh interpreter (`child.py`), so set-up, memory and CPU
are those of one batch run.  Iterations repeat until `--seconds` would be
exceeded (at least one; with `--trace 1` at least one untraced and one
traced, alternating).  With `--trace 0` the last stdout line carries the
medians of wall_s, cpu_s, peak_rss_mb and setup_s; with `--trace 1` it
carries the per-layer metrics of the traced iterations and the tracing
overhead.  Every CLI call is gated against `references.json`; `attempted`
and `failed` count CLI calls.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")

import workloads  # noqa: E402  (sys.path[0] is this directory)
from spans import UNITS as LAYER_UNITS  # noqa: E402

RUN_LIMIT_S = 170.0        # the whole run, including every child
MIN_SETUP_SAMPLES = 5      # set-up is timed at least this often per run
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
OVERHEAD = {"trace.traced_wall_s": "s", "trace.untraced_wall_s": "s",
            "trace.overhead_ratio": "ratio"}


class ChildFailed(Exception):
    pass


def spawn(args: dict, stderr_path: str, timeout: float):
    """Run child.py; returns (setup seconds, result dict or None)."""
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, json.dumps(args)], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise ChildFailed("child did not become ready")
            out, _ = proc.communicate(timeout=max(timeout - setup_s, 1.0))
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            proc.kill()
            proc.communicate()
            raise ChildFailed(str(exc)) from None
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    if args.get("setup_only"):
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool,
        references: str = workloads.REFERENCES, shrink: bool = False) -> dict:
    """Measure one run; returns the result object plus a report for humans."""
    start = time.perf_counter()
    work = os.path.join(WORK, f"{workload}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    n_calls = len(workloads.call_labels(workload))
    seeds = workloads.seed_list(seed, 1000)
    samples = {k: [] for k in END_TO_END}
    traced_wall, layers = [], []
    durations, used_seeds, problems = [], [], []
    facts = {}
    attempted = failed = 0
    verdict_fails = []
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        est = statistics.median(durations) if durations else 0.0
        enough = i >= (2 if trace else 1)
        if enough and (elapsed + est > seconds or elapsed + 1.5 * est > RUN_LIMIT_S):
            break
        traced = trace and i % 2 == 1
        it_seed = seeds[i]
        it_dir = os.path.join(work, f"i{i}")
        args = {"workload": workload, "seed": it_seed, "work": it_dir, "trace": traced,
                "references": references, "shrink": shrink}
        t0 = time.perf_counter()
        attempted += n_calls
        try:
            setup_s, res = spawn(args, os.path.join(work, f"i{i}.stderr"),
                                 RUN_LIMIT_S - (t0 - start))
        except ChildFailed as exc:
            failed += n_calls
            problems.append(f"iteration {i} seed {it_seed}: {exc}")
            res = None
        durations.append(time.perf_counter() - t0)
        used_seeds.append(it_seed)
        i += 1
        if res is None:
            continue
        shutil.rmtree(os.path.join(it_dir, "out"), ignore_errors=True)
        facts = res["facts"]
        for label, v in res["verdicts"].items():
            if v["problems"]:
                failed += 1
                problems.append(f"seed {it_seed} {label}: {'; '.join(v['problems'])}")
            elif v["exit"] != 0:
                verdict_fails.append(f"seed {it_seed} {label}: exit {v['exit']}, "
                                     "as in the references")
        if traced:
            traced_wall.append(res["wall_s"])
            layers.append(res["layers"])
            continue
        samples["setup_s"].append(setup_s)
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[key].append(res[key])

    while not trace and len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        t0 = time.perf_counter()
        if t0 - start + 2.0 * max(samples["setup_s"] or [1.0]) > RUN_LIMIT_S:
            break
        args = {"workload": workload, "seed": seeds[0], "setup_only": True,
                "work": os.path.join(work, "setup"), "shrink": shrink}
        try:
            setup_s, _ = spawn(args, os.path.join(work, "setup.stderr"),
                               RUN_LIMIT_S - (t0 - start))
        except ChildFailed as exc:
            attempted += 1
            failed += 1
            problems.append(f"set-up probe: {exc}")
            break
        samples["setup_s"].append(setup_s)

    if trace:
        metrics = {}
        for name in layers[0] if layers else []:
            vals = [lay[name] for lay in layers]
            metrics[name] = None if None in vals else statistics.median(vals)
        units = {**LAYER_UNITS, **OVERHEAD}
        if traced_wall and samples["wall_s"]:
            metrics["trace.traced_wall_s"] = statistics.median(traced_wall)
            metrics["trace.untraced_wall_s"] = statistics.median(samples["wall_s"])
            metrics["trace.overhead_ratio"] = (metrics["trace.traced_wall_s"]
                                               / metrics["trace.untraced_wall_s"])
        counts = {name: len(layers) for name in metrics}
        counts.update({"trace.untraced_wall_s": len(samples["wall_s"])})
    else:
        metrics = {k: statistics.median(v) for k, v in samples.items() if v}
        units = END_TO_END
        counts = {k: len(v) for k, v in samples.items()}

    facts.update({"nproc": os.cpu_count(), "cpu": cpu_model(), "seeds": used_seeds,
                  "iterations": i, "samples": counts})
    return {
        "result": {
            "correct": failed == 0 and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "samples": samples if not trace else {"trace.traced_wall_s": traced_wall,
                                              "trace.untraced_wall_s": samples["wall_s"]},
        "facts": facts,
        "problems": problems,
        "verdict_fails": verdict_fails,
    }


def print_report(workload: str, out: dict) -> None:
    res, facts = out["result"], out["facts"]
    print(f"workload {workload}: {facts['iterations']} iterations, "
          f"scenario seeds {facts['seeds']}")
    print("machine " + json.dumps({k: v for k, v in facts.items()
                                    if k not in ("seeds", "samples", "iterations")}))
    for name, m in res["metrics"].items():
        n = facts["samples"].get(name, 0)
        vals = out["samples"].get(name)
        spread = ""
        if vals and len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"  q1 {q1:.6g} q3 {q3:.6g}"
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:38s} {value:>14s} {m['unit']:6s} median of {n}{spread}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'failed_frac':38s} {frac:>14.6g} ratio  "
          f"({res['failed']} failed of {res['attempted']} CLI calls)")
    print(f"  {'verdict_exits':38s} {len(out['verdict_fails']):>14d} count  "
          "(statistical verdicts that fail, as in the references)")
    for p in out["verdict_fails"]:
        print(f"  VERDICT {p}")
    for p in out["problems"]:
        print(f"  WRONG {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mfglab benchmark (see README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--references", default=workloads.REFERENCES, help=argparse.SUPPRESS)
    ap.add_argument("--shrink", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mfglab", "__init__.py")):
        print(f"error: no mfglab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if not os.path.isfile(args.references):
        print(f"error: missing references {args.references}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.references, args.shrink)
    if not out["result"]["metrics"]:
        print("error: no iteration completed; " + "; ".join(out["problems"]), file=sys.stderr)
        return 1
    print_report(args.workload, out)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
