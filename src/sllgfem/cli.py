"""Command line entry point: `simulate <config> [overrides]`.

Loads the config, applies the overrides and hands it to
`studies.run_study`, whatever the mode. Flag values are passed to
`load_config` as text, so they are validated like the config values they
replace. `EXITS` maps each exception a run may end in to its exit code;
README's exit table documents the codes.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool

from .config import load_config
from .errors import ConfigError, SolverFailure
from .studies import run_study

# exception class -> (exit code, message prefix). Exit 0 is success and
# exit 2 an invariant failure, which the study reports and does not raise
EXITS = {
    SolverFailure: (3, "solver failure"),
    ConfigError: (4, "config error"),
    MemoryError: (5, "out of memory"),
    BrokenProcessPool: (5, "a worker process died"),
}

# flag -> (config key it overrides, metavar, help note)
FLAGS = {
    "theta": ("scheme.theta", "X", ""),
    "seed": ("run.seed", "N", ""),
    "samples": ("run.samples", "N", " (Monte Carlo / refinement)"),
    "levels": ("run.levels", "N", " (refinement)"),
    "out": ("run.out", "DIR", ""),
    "snapshots": ("run.snapshots", "STRIDE", " (0 disables VTK output)"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser():
    p = _Parser(
        prog="simulate",
        description="Run a stochastic LLG finite element study described "
                    "by a sectioned text config (see the README for the "
                    "grammar). Study mode, mesh, scheme constants, noise, "
                    "and outputs all come from the config; the flags below "
                    "override individual fields.")
    p.add_argument("config", help="path to the config file")
    for flag, (key, metavar, note) in FLAGS.items():
        p.add_argument(f"--{flag}", metavar=metavar,
                       help=f"override {key}{note}")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        overrides = {key: getattr(args, flag)
                     for flag, (key, _, _) in FLAGS.items()
                     if getattr(args, flag) is not None}
        config = load_config(args.config, overrides)
        report = run_study(config)
    except tuple(EXITS) as e:
        code, what = next(EXITS[c] for c in type(e).__mro__ if c in EXITS)
        print(f"{what}: {str(e) or type(e).__name__}", file=sys.stderr)
        return code

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
