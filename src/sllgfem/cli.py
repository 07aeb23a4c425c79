"""Command line entry point: `simulate <config> [overrides]`.

Exit codes: 0 success, 2 invariant-suite failure (reported by the study,
not raised), 3 solver failure, 4 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError, SolverFailure
from .studies import run_study


def build_parser():
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Run a stochastic LLG finite element study described "
                    "by a sectioned text config (see the README for the "
                    "grammar). Study mode, mesh, scheme constants, noise, "
                    "and outputs all come from the config; the flags below "
                    "override individual fields.")
    p.add_argument("config", help="path to the config file")
    p.add_argument("--theta", type=float, metavar="X",
                   help="override scheme.theta")
    p.add_argument("--seed", type=int, metavar="N",
                   help="override run.seed")
    p.add_argument("--samples", type=int, metavar="N",
                   help="override run.samples (Monte Carlo / refinement)")
    p.add_argument("--levels", type=int, metavar="N",
                   help="override run.levels (refinement)")
    p.add_argument("--out", metavar="DIR", help="override run.out")
    p.add_argument("--snapshots", type=int, metavar="STRIDE",
                   help="override run.snapshots (0 disables VTK output)")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {}
    for name, val in (("scheme.theta", args.theta),
                      ("run.seed", args.seed),
                      ("run.samples", args.samples),
                      ("run.levels", args.levels),
                      ("run.out", args.out),
                      ("run.snapshots", args.snapshots)):
        if val is not None:
            overrides[name] = repr(val) if isinstance(val, float) else str(val)

    try:
        config = load_config(args.config, overrides)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 4

    try:
        report = run_study(config)
    except SolverFailure as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3

    n_runs = len({(r["level"], r["seed"]) for r in report.rows
                  if r["kind"] == "run"})
    print(f"{config.mode} study complete: {n_runs} trajectory(s), "
          f"report and artifacts in {config.out}")
    if report.invariant_failures:
        for msg in report.invariant_failures:
            print(f"invariant failure: {msg}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
