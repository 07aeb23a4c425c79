"""Rewrite the pinned reports under reference/ from the current solver.

Usage, from the root of a checkout:

    python3 perfbench/pin_reference.py [WORKLOAD ...]

Runs each named workload (all by default) once at the default seed and
stores its report.csv as reference/WORKLOAD.csv. Only a change that is
meant to alter what the solver computes re-pins, and says so.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from sllgfem import load_config, run_study  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS, config_text  # noqa: E402


def pin(name):
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        ini = os.path.join(tmp, "config.ini")
        with open(ini, "w") as fh:
            fh.write(config_text(name, DEFAULT_SEED))
        out = os.path.join(tmp, "out")
        report = run_study(load_config(ini, {"run.out": out}))
        if report.invariant_failures:
            raise SystemExit(f"{name}: invariant failures "
                             f"{report.invariant_failures}")
        shutil.copyfile(os.path.join(out, "report.csv"),
                        os.path.join(HERE, "reference", f"{name}.csv"))
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    for workload in sys.argv[1:] or WORKLOADS:
        pin(workload)
        print(f"pinned {workload}")
