"""Command-line entry point.

Exit codes: 0 all verdicts pass, 2 a statistical verdict failed,
1 configuration or numerical error, or an unreadable input or unwritable output.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .control import enumerate_stationary, value_function
from .errors import InvalidInput, MfgLabError
from .experiments import (
    ScenarioConfig,
    build_grid,
    field_for,
    parse_config_text,
    read_text,
    replay_row,
    run_scenario,
)
from .field import export_field_csv_slice, load_field_binary, save_field_binary

EXIT_OK, EXIT_ERROR, EXIT_VERDICT = 0, 1, 2


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None, help="override run.seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mfglab",
                                 description="mean-field selection experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario config (E1-E6)")
    p.add_argument("config")
    _add_seed(p)
    p.add_argument("--out-dir", default=".", help="directory for the report CSV")

    p = sub.add_parser("oc-enumerate", help="multi-start shooting on a config's model")
    p.add_argument("config")

    p = sub.add_parser("oc-value", help="value of the limit control problem at nu0")
    p.add_argument("config")
    p.add_argument("--nu0", type=float, default=None)

    p = sub.add_parser("field", help="decoupling-field operations")
    fsub = p.add_subparsers(dest="field_command", required=True)
    ps = fsub.add_parser("solve", help="solve and save the field binary")
    ps.add_argument("config")
    ps.add_argument("--N", type=int, default=None)
    ps.add_argument("--eps", type=float, default=None)
    ps.add_argument("--out", required=True)
    pe = fsub.add_parser("export", help="CSV slice of a saved field")
    pe.add_argument("binary")
    pe.add_argument("--time-index", type=int, default=0)
    pe.add_argument("--out", required=True)

    p = sub.add_parser("replay", help="re-run one report row and compare")
    p.add_argument("config")
    p.add_argument("report_csv")
    p.add_argument("--row", type=int, default=0)
    _add_seed(p)
    return ap


def _load_config(path: str, seed_override) -> ScenarioConfig:
    if seed_override is None:
        return ScenarioConfig.from_file(path)
    raw = parse_config_text(read_text(path, "config"))
    raw["run.seed"] = str(seed_override)
    return ScenarioConfig.from_text("".join(f"{k} = {v}\n" for k, v in raw.items()))


def _on_file(verb: str, path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with an OSError on `path` reported as an InvalidInput."""
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        raise InvalidInput(f"cannot {verb} {path}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except MfgLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(args) -> int:
    if args.command == "field" and args.field_command == "export":
        fld = _on_file("read", args.binary, load_field_binary, args.binary)
        _on_file("write", args.out, export_field_csv_slice, fld, args.out,
                 time_index=args.time_index)
        print(f"wrote {args.out}")
        return EXIT_OK
    cfg = _load_config(args.config, getattr(args, "seed", None))
    spec = cfg.spec

    if args.command == "run":
        _on_file("write", args.out_dir, os.makedirs, args.out_dir, exist_ok=True)
        rep = run_scenario(cfg)
        csv_path = os.path.join(args.out_dir,
                                f"{rep.scenario}_{rep.config_hash}.csv")
        _on_file("write", csv_path, rep.write_csv, csv_path)
        print(rep.summary())
        print(f"wrote {csv_path}")
        return EXIT_OK if rep.passed else EXIT_VERDICT

    if args.command == "oc-enumerate":
        sset = enumerate_stationary(spec, spec.nu0)
        print(f"{sset.starts} start(s), {sset.failed} failed, "
              f"{len(sset.solutions)} distinct stationary solution(s), "
              f"min cost {sset.min_cost:.8g}, multiplicity {sset.multiplicity}")
        for s in sset.solutions:
            print(f"  eta0 {np.array2string(s.eta0, precision=6)}  "
                  f"m_T {np.array2string(s.m[-1], precision=6)}  "
                  f"cost {s.cost:.8g}  {s.classification}")
        return EXIT_OK

    if args.command == "oc-value":
        nu0 = spec.nu0 if args.nu0 is None else np.full(spec.dim, args.nu0)
        v = value_function(spec, nu0)
        print(f"v(0, {np.array2string(nu0, precision=6)}) = {v:.10g}")
        return EXIT_OK

    if args.command == "field":
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            raise InvalidInput(f"cannot write {args.out}: no such directory")
        fld = field_for(cfg, build_grid(cfg, spec), N=args.N, eps=args.eps)
        _on_file("write", args.out, save_field_binary, fld, args.out)
        print(f"wrote {args.out} ({fld.tgrid.steps + 1} levels, grid {fld.grid.shape})")
        return EXIT_OK

    if args.command == "replay":
        ok = replay_row(cfg, args.report_csv, args.row)
        print("replay match" if ok else "replay MISMATCH")
        return EXIT_OK if ok else EXIT_VERDICT

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
