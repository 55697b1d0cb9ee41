"""Record the correctness gate's references from the current mfglab.

    python3 perfbench/record.py                      # rewrite references.json
    python3 perfbench/record.py --shrink --out P --seeds 1 2

Report rows of the seeded scenarios are stored per seed; E3 and E6 rows and
the field-export slice do not depend on the seed and are stored once.  Exit
codes are stored per seed (E3's selection verdict runs an ensemble), except
for E6 and the field calls, which use no randomness.  Run
it only when an intended change of results is accepted, and say so.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from workloads import SEEDED, WORKLOADS  # noqa: E402


def _run(argv: list) -> int:
    import mfglab.cli
    with contextlib.redirect_stdout(io.StringIO()):
        return mfglab.cli.main(argv)


def record(seeds: list, shrink: bool) -> dict:
    from mfglab.experiments import ScenarioConfig

    refs = {"seeds": seeds, "config_hash": {}, "rows": {}, "seeded_rows": {},
            "exit_codes": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for i, seed in enumerate(seeds):
            refs["config_hash"][str(seed)] = {}
            refs["seeded_rows"][str(seed)] = {}
            for workload in WORKLOADS:
                configs = workloads.write_configs(workload, seed, tmp, shrink)
                for scen, path in configs.items():
                    cfg_hash = ScenarioConfig.from_file(path).config_hash
                    refs["config_hash"][str(seed)][scen] = cfg_hash
                    if scen == "E6" and i > 0:
                        continue      # no randomness: one run covers every seed
                    code = _run(["run", path, "--out-dir", tmp])
                    refs["exit_codes"]["E6" if scen == "E6" else f"{scen}/{seed}"] = code
                    rows = workloads.strip_ids(workloads.read_report(
                        workloads.report_path(tmp, scen, cfg_hash)))
                    if scen in SEEDED:
                        refs["seeded_rows"][str(seed)][scen] = rows
                    elif i == 0:
                        refs["rows"][scen] = rows
                    elif rows != refs["rows"][scen]:
                        raise RuntimeError(f"{scen} rows depend on the seed")
                if workload == "selection-1d" and i == 0:
                    for label, argv in workloads.cli_calls(workload, configs, tmp):
                        if label.startswith("field-"):
                            refs["exit_codes"][label] = _run(argv)
                    refs["field_export"] = workloads.read_slice(os.path.join(tmp, "slice.csv"))
    return refs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=workloads.REFERENCES)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(workloads.SEEDS))
    ap.add_argument("--shrink", action="store_true", help="self-test configs")
    args = ap.parse_args()
    refs = record(args.seeds, args.shrink)
    with open(args.out, "w") as fh:
        json.dump(refs, fh, indent=1)
    bad = {k: v for k, v in refs["exit_codes"].items() if v != 0}
    print(f"wrote {args.out}; non-zero exits: {bad or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
