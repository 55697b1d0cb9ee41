"""Workload definitions and the correctness gate of the mfglab benchmark.

A workload is a fixed list of `mfglab` CLI calls on default scenario configs
that the benchmark writes itself; only `run.seed` varies.  The gate compares
each call's outputs with references stored in `references.json` and returns
one verdict per call.  Stdlib only: the benchmark's parent process imports
this module without importing mfglab.
"""

from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# The scenarios each workload runs, and why the workload exists.
WORKLOADS = {
    # ensemble-heavy 1-d selection runs plus a field binary round trip;
    # never enters control or 2-d grid evaluation
    "selection-1d": ("E1", "E2", "E5"),
    # solve- and memory-heavy: two 201x201 fields and point-by-point grid
    # evaluation; never enters control
    "sphere-2d": ("E4",),
    # control-heavy: 147 Newton shootings, the Delarue potential build and
    # one 1601-node solve
    "limit-control": ("E3", "E6"),
}

# Scenario seeds, in order.  A run with benchmark seed n uses the list
# rotated to start at n mod len(SEEDS), one seed per iteration.  The list
# is consecutive integers fixed before any verdict was looked at.
SEEDS = tuple(range(1, 17))

# Scenarios whose report rows depend on run.seed (they run ensembles);
# the rows of E3 and E6 are stored once.
SEEDED = ("E1", "E2", "E4", "E5")

# CSV numbers are printed with 10 significant digits, so a change within
# ROADMAP.md's 1e-9 relative tolerance can move the last printed digit.
CSV_REL_TOL = 2e-9
CSV_ABS_TOL = 1e-12
# The field export is printed in full precision (ROADMAP.md: field values to 1e-12).
FIELD_ABS_TOL = 1e-12
# Columns compared as strings, never as numbers.
EXACT_COLUMNS = ("N", "eps", "branch", "seed", "config", "classification")

# Smaller configs for the harness self-test only (never used by a measured run).
SHRINK = {
    "E1": ("run.M = 200", "run.N = 10 40", "grid.nodes = 61", "verdict.tol = 1"),
    "E2": ("run.M = 200", "run.N = 25 100", "grid.nodes = 61", "verdict.band = 0.5"),
    "E5": ("run.M = 200", "run.eps = 0.5 0.25", "grid.nodes = 61", "verdict.band = 0.5"),
    "E4": ("run.M = 200", "run.N = 50 100", "grid.nodes = 31"),
    "E3": ("run.M = 200", "run.N_select = 25", "grid.nodes = 201"),
    "E6": ("run.N = 25 100", "grid.nodes = 61", "model.T = 0.25", "verdict.tol = 1"),
}


def seed_list(seed: int, count: int) -> list:
    start = seed % len(SEEDS)
    return [SEEDS[(start + i) % len(SEEDS)] for i in range(count)]


def config_text(scenario: str, seed: int, shrink: bool = False) -> str:
    lines = [f"scenario = {scenario}", f"run.seed = {seed}"]
    if shrink:
        lines.extend(SHRINK[scenario])
    return "".join(line + "\n" for line in lines)


def write_configs(workload: str, seed: int, directory: str, shrink: bool = False) -> dict:
    """Write the workload's configs for one seed; returns scenario -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for scen in WORKLOADS[workload]:
        path = os.path.join(directory, f"{scen}.cfg")
        with open(path, "w") as fh:
            fh.write(config_text(scen, seed, shrink))
        paths[scen] = path
    return paths


def cli_calls(workload: str, configs: dict, out_dir: str) -> list:
    """(label, argv) for every CLI call of one workload iteration, in order."""
    calls = [(scen, ["run", configs[scen], "--out-dir", out_dir])
             for scen in WORKLOADS[workload]]
    if workload == "selection-1d":
        binary = os.path.join(out_dir, "field.bin")
        calls.append(("field-solve", ["field", "solve", configs["E2"], "--N", "400",
                                      "--out", binary]))
        calls.append(("field-export", ["field", "export", binary, "--time-index", "0",
                                       "--out", os.path.join(out_dir, "slice.csv")]))
    return calls


def call_labels(workload: str) -> list:
    return [label for label, _ in cli_calls(
        workload, dict.fromkeys(WORKLOADS[workload], ""), "")]


# --- reading outputs -----------------------------------------------------------


def report_path(out_dir: str, scenario: str, config_hash: str) -> str:
    return os.path.join(out_dir, f"{scenario}_{config_hash}.csv")


def read_report(path: str) -> list:
    """Report CSV as a list of row dicts (strings as printed)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def read_slice(path: str) -> list:
    with open(path) as fh:
        next(fh)
        return [[float(x) for x in ln.split(",")] for ln in fh if ln.strip()]


def strip_ids(rows: list) -> list:
    """Rows without the seed and config-hash columns, which the gate checks apart."""
    return [{k: v for k, v in row.items() if k not in ("seed", "config")} for row in rows]


# --- the gate ----------------------------------------------------------------------


def load_references(path: str = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _keyed(rows: list) -> dict:
    """Rows keyed by (first column, occurrence) so that E6's two N=400 rows differ."""
    out, seen = {}, {}
    for row in rows:
        first = next(iter(row.values()))
        k = seen.get(first, 0)
        seen[first] = k + 1
        out[(first, k)] = row
    return out


def _cell_matches(column: str, got: str, ref: str) -> bool:
    if got == ref:
        return True
    if column in EXACT_COLUMNS:
        return False
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=CSV_REL_TOL, abs_tol=CSV_ABS_TOL)


def compare_rows(got: list, ref: list) -> list:
    """Differences between report rows and their reference, as strings."""
    problems = []
    g, r = _keyed(got), _keyed(ref)
    if set(g) != set(r):
        return [f"rows {sorted(g)} != reference {sorted(r)}"]
    for key, rrow in r.items():
        grow = g[key]
        if list(grow) != list(rrow):
            problems.append(f"row {key[0]}: columns {list(grow)} != {list(rrow)}")
            continue
        for col, rv in rrow.items():
            if not _cell_matches(col, grow[col], rv):
                problems.append(f"row {key[0]} {col}: {grow[col]} != reference {rv}")
    return problems


def reference_rows(refs: dict, scenario: str, seed: int):
    if scenario in SEEDED:
        return refs["seeded_rows"].get(str(seed), {}).get(scenario)
    return refs["rows"].get(scenario)


def expected_exit(refs: dict, label: str, seed: int):
    codes = refs["exit_codes"]
    return codes.get(f"{label}/{seed}", codes.get(label))


def check(workload: str, seed: int, out_dir: str, codes: dict, errors: dict,
          refs: dict) -> dict:
    """Gate one iteration: label -> {"exit": code, "problems": [...]}.

    A problem is a call that raised, an exit code other than the reference's,
    or a deterministic output outside the reference tolerance; the benchmark
    counts such a call as failed.  A statistical verdict (exit 2) that the
    references record for this seed reproduces the reference run: it is
    correct, and the report lists it apart.
    """
    hashes = refs["config_hash"].get(str(seed))
    if hashes is None:
        raise KeyError(f"no references for scenario seed {seed}")
    verdicts = {}
    for label in call_labels(workload):
        problems = []
        if label in errors:
            problems.append(f"raised {errors[label]}")
        elif codes.get(label) != expected_exit(refs, label, seed):
            problems.append(f"exit code {codes.get(label)}, reference "
                            f"{expected_exit(refs, label, seed)}")
        verdicts[label] = {"exit": codes.get(label), "problems": problems}

    for scen in WORKLOADS[workload]:
        problems = verdicts[scen]["problems"]
        path = report_path(out_dir, scen, hashes[scen])
        if not os.path.exists(path):
            problems.append(f"missing report {os.path.basename(path)}")
            continue
        rows = read_report(path)
        for row in rows:
            if row.get("seed") != str(seed) or row.get("config") != hashes[scen]:
                problems.append(f"row seed/config {row.get('seed')}/{row.get('config')}")
                break
        ref = reference_rows(refs, scen, seed)
        if ref is None:
            problems.append("no reference rows")
            continue
        problems.extend(compare_rows(strip_ids(rows), ref))
        if scen == "E6":
            # odd symmetry: the field vanishes exactly at the symmetric kink
            center = [r for r in rows if r.get("probe") == "0"]
            if not center or float(center[0]["field_value"]) != 0.0:
                problems.append("u(0,0) is not exactly 0")

    if workload == "selection-1d":
        path, ref = os.path.join(out_dir, "slice.csv"), refs["field_export"]
        problems = verdicts["field-export"]["problems"]
        got = read_slice(path) if os.path.exists(path) else None
        if got is None:
            problems.append("missing slice")
        elif len(got) != len(ref) or any(
                len(a) != len(b) or any(abs(x - y) > FIELD_ABS_TOL for x, y in zip(a, b))
                for a, b in zip(got, ref)):
            problems.append("slice leaves the 1e-12 reference tolerance")
    return verdicts
