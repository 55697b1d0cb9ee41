"""One benchmark iteration in a fresh interpreter.

Protocol with `run.py`: the child imports mfglab from the checkout's `src/`,
parses and validates every workload config, then prints `ready` (the parent
times set-up from its spawn to that line).  Unless `setup_only` is set it
then runs the workload's CLI calls, gates their outputs, and prints one JSON
result line.  The CLI's own output goes to `cli.log` in the iteration's work
directory.  Arguments arrive as one JSON object in argv[1].
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads()}


def main(args: dict) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    import mfglab.cli
    from mfglab.experiments import ScenarioConfig

    if not os.path.abspath(mfglab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"mfglab imported from {mfglab.__file__}, not from this checkout")

    workload, seed, work = args["workload"], args["seed"], args["work"]
    configs = workloads.write_configs(workload, seed, work, args.get("shrink", False))
    for path in configs.values():
        ScenarioConfig.from_file(path)
    print("ready", flush=True)
    if args.get("setup_only"):
        return

    tracer = None
    if args.get("trace"):
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    codes, errors = {}, {}
    captured = io.StringIO()
    t0, c0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    for label, argv in workloads.cli_calls(workload, configs, out_dir):
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                codes[label] = mfglab.cli.main(argv)
            except Exception as exc:  # the gate counts it; the iteration goes on
                errors[label] = f"{type(exc).__name__}: {exc}"
    c1, t1 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()

    verdicts = workloads.check(workload, seed, out_dir, codes, errors,
                               workloads.load_references(args["references"]))
    with open(os.path.join(work, "cli.log"), "w") as fh:
        fh.write(captured.getvalue())
    result = {
        "wall_s": t1 - t0,
        "cpu_s": (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime),
        "peak_rss_mb": c1.ru_maxrss * 1024 / 1e6,    # ru_maxrss is in KiB
        "verdicts": verdicts,
        "facts": machine_facts(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(os.path.join(work, "spans.json"), f"{workload}/seed{seed}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
