"""sllgfem benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload refine-2d --seed 7 --seconds 30 \
        --trace 0

Each run starts one fresh Python process for the workload (so peak RSS is
per workload) with the solver sources on PYTHONPATH and OpenBLAS/OpenMP
pinned to one thread, so that busy threads never exceed two even with two
Monte Carlo workers. That process drives the solver only through
``load_config`` and ``run_study`` and checks every report (checking.py).

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of
BENCHMARK.json. ``attempted`` and ``failed`` count trajectories; the line
before it records the machine and library versions. The exit code is 0
when a result was printed, nonzero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
TIMEOUT_S = 170

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def run_process(args, workdir):
    """Run study_process.py; returns its result dict, or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "study_process.py"),
           args.workload, str(args.seed), repr(args.seconds),
           str(args.trace), workdir]
    # A session of its own, so that a timeout also ends the pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"workload process exceeded {TIMEOUT_S} s", file=sys.stderr)
        return None
    if code != 0:
        print(f"workload process exited with {code}", file=sys.stderr)
        return None
    with open(os.path.join(workdir, "result.json")) as fh:
        return json.load(fh)


def metrics_of(args, raw, declared):
    if args.trace:
        values = dict(raw["layers"])
        values["fail_frac"] = raw["failed"] / raw["attempted"]
    else:
        values = {"wall_s": statistics.median(raw["wall_s"]),
                  "setup_s": statistics.median(raw["setup_s"]),
                  "peak_rss_mb": raw["peak_rss_mb"]}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sllgfem", "__init__.py")):
        print(f"solver sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = spec()["per_layer" if args.trace else "end_to_end"]
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        raw = run_process(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if raw is None:
        return 1

    print(f"{raw['studies']} studies", file=sys.stderr)
    if not raw["pinned"]:
        print(f"seed {args.seed} has no pinned report: checking the "
              "invariant suite only", file=sys.stderr)
    for msg in raw["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = raw["failed"] == 0
    if args.trace:
        if raw["absent"]:
            print("absent layers (read as zero): "
                  + ", ".join(raw["absent"]), file=sys.stderr)
        if not raw["identical"]:
            print("traced report.csv differs from the untraced one",
                  file=sys.stderr)
        correct = correct and raw["identical"]
    print("env " + json.dumps(raw["env"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics_of(args, raw, declared)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
