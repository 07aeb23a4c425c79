"""One benchmark run of one workload, in a fresh process.

Started by run.py with the solver sources on PYTHONPATH and BLAS pinned to
one thread. Usage:

    python3 perfbench/study_process.py WORKLOAD SEED SECONDS TRACE WORKDIR

Writes WORKDIR/result.json with the raw measurements and check outcomes.

TRACE 0: repeats, within SECONDS (at least once), a batch of cold set-ups
followed by one study. Spreading the set-ups over the whole run
exposes them to the same drift of machine speed as the studies.
TRACE 1: repeats, within SECONDS (at least once), a pair of one untraced
study and one traced study; the traced one runs with one worker, because
forked pool workers would take their spans with them.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

import sllgfem
from sllgfem import (SolverFailure, init_rotation_field, load_config,
                     sample_path)
from sllgfem import studies

from checking import check_report, failed_trajectories
from tracing import Tracer, installed, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, config_text

# Cold set-ups per study: at least SETUP_MIN, and more until SETUP_BUDGET_S
# is spent, so that a small set-up is sampled often enough for its median.
SETUP_MIN = 3
SETUP_BUDGET_S = 1.0

HERE = os.path.dirname(os.path.abspath(__file__))


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "sllgfem": getattr(sllgfem, "__version__", "?"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def repeat_for(seconds):
    """Yield at least once, then again while one more round of the mean
    length so far still ends within `seconds` of the start."""
    start = time.perf_counter()
    rounds = 0
    while True:
        yield rounds
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return


def cold_setup(ini):
    """The set-up a study repeats before stepping, on the finest level,
    on fresh objects; returns its duration in seconds."""
    gc.collect()        # every set-up starts from the same collector state
    start = time.perf_counter()
    config = load_config(ini)
    space = config.build_space()
    space.stiffness()
    space.lumped_mass_diagonal()
    coeffs = config.build_noise()
    config.initial_field(space)
    init_rotation_field(space, coeffs)
    p = config.params
    sample_path(config.seed, coeffs.q, p.J, p.T, stream=0)
    return time.perf_counter() - start


def trajectories(config):
    if config.mode == "refinement":
        return config.levels * config.samples
    if config.mode == "monte-carlo":
        return config.samples
    return 1


class Runner:
    def __init__(self, workload, seed, workdir):
        self.workdir = workdir
        self.ini = os.path.join(workdir, f"{workload}.ini")
        with open(self.ini, "w") as fh:
            fh.write(config_text(workload, seed))
        self.reference = None
        if seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "reference",
                                   f"{workload}.csv")) as fh:
                self.reference = fh.read()
        self.workers = WORKLOADS[workload]["workers"]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.n_studies = 0

    def study(self, workers, tracer=None):
        """One study; returns (wall seconds, report.csv text or None)."""
        self.n_studies += 1
        out = os.path.join(self.workdir, f"study{self.n_studies}")
        os.environ[studies.WORKERS_ENV] = str(workers)
        if tracer is None:
            config = load_config(self.ini, {"run.out": out})
        else:
            with tracer.span("config.load"):
                config = load_config(self.ini, {"run.out": out})
        attempted = trajectories(config)
        text = None
        start = time.perf_counter()
        try:
            if tracer is None:
                report = studies.run_study(config)
            else:
                with tracer.span("studies.study"):
                    report = studies.run_study(config)
        except SolverFailure as e:
            wall = time.perf_counter() - start
            problems = [(None, f"solver failure: {e}")]
        else:
            wall = time.perf_counter() - start
            with open(os.path.join(out, "report.csv")) as fh:
                text = fh.read()
            problems = check_report(text, studies.INVARIANT_TOLS,
                                    config.params.solver_tol, self.reference)
            problems += [(None, f"invariant failure: {msg}")
                         for msg in report.invariant_failures]
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += attempted
        self.failed += failed_trajectories(problems, attempted)
        self.problems += [msg for _, msg in problems]
        return wall, text


def measure(runner, seconds):
    setup, walls = [], []
    for _ in repeat_for(seconds):
        batch = []
        while len(batch) < SETUP_MIN or sum(batch) < SETUP_BUDGET_S:
            batch.append(cold_setup(runner.ini))
        setup += batch
        walls.append(runner.study(runner.workers)[0])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"setup_s": setup, "wall_s": walls,
            "peak_rss_mb": max(own, pool) / 1024.0}


def trace(runner, seconds):
    cold_setup(runner.ini)          # imports and first-touch, not timed
    layers, absent, identical = [], [], True
    for _ in repeat_for(seconds):
        wall, plain = runner.study(runner.workers)
        wall_one = wall
        if runner.workers > 1:
            wall_one, _ = runner.study(1)
        tracer = Tracer()
        with installed(tracer) as absent:
            traced_wall, traced = runner.study(1, tracer)
        identical = identical and plain is not None and plain == traced
        m = layer_metrics(tracer)
        m["studies.pool_efficiency"] = (tracer.total["studies.study"]
                                        / (runner.workers * wall))
        m["trace.overhead_frac"] = traced_wall / wall_one - 1.0
        layers.append(m)
    return {"layers": {k: statistics.median(m[k] for m in layers)
                       for k in layers[0]},
            "absent": absent, "identical": identical}


def main(argv):
    workload, seed, seconds, traced, workdir = argv
    seed, seconds, traced = int(seed), float(seconds), traced == "1"
    runner = Runner(workload, seed, workdir)
    result = trace(runner, seconds) if traced else measure(runner, seconds)
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems[:20], studies=runner.n_studies,
                  pinned=runner.reference is not None, env=environment())
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
