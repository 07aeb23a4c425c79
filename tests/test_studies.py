"""Study orchestration: aggregation arithmetic, parallel determinism,
refinement order rows, and the artifact files."""

import csv
import io
import os
import pathlib
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from sllgfem import ConfigError, load_config, studies
from sllgfem.studies import WORKERS_ENV, run_study

from children import child_python

try:
    import resource
except ImportError:                  # not on every platform
    resource = None


def make_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return load_config(str(path))


def mc_config(tmp_path, out, preset="constant-z", samples=3):
    return make_config(tmp_path, f"""\
[mesh]
divisions = 4

[scheme]
J = 8
T = 0.1

[noise]
preset = {preset}

[initial]
preset = spiral

[run]
mode = monte-carlo
samples = {samples}
out = {tmp_path / out}
""", name=f"{out}.ini")


def tiny_config(tmp_path, out, mode):
    """A study of each mode small enough to run twice in a test; the
    refinement ladder is 2/4/8 divisions with J = 2/4/8."""
    if mode == "refinement":
        return make_config(tmp_path, f"""\
[mesh]
divisions = 8

[scheme]
J = 8
T = 0.1

[noise]
preset = linear-gradient

[initial]
preset = spiral
tilt = 0.3

[run]
mode = refinement
levels = 3
samples = 2
out = {tmp_path / out}
""", name=f"{out}.ini")
    cfg = mc_config(tmp_path, out)
    return cfg if mode == "monte-carlo" else replace(cfg, mode=mode)


@pytest.fixture(scope="module")
def refine_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("refine")
    cfg = make_config(tmp, f"""\
[mesh]
divisions = 8

[scheme]
J = 40
T = 0.2

[noise]
preset = linear-gradient

[initial]
preset = spiral
tilt = 0.3

[run]
mode = refinement
levels = 3
samples = 2
seed = 5
out = {tmp / "out"}
""")
    return cfg, run_study(cfg)


def test_zero_noise_ensemble_has_zero_spread(tmp_path):
    # g = 0 makes every stream the same trajectory, whatever its path
    report = run_study(mc_config(tmp_path, "zero", preset="zero"))
    runs = report.values("sup_energy", kind="run")
    assert np.ptp(runs) == 0.0
    assert report.values("stderr:sup_energy", kind="aggregate")[0] == 0.0
    assert report.values("mean:sup_energy", kind="aggregate")[0] == runs[0]


def test_aggregate_rows_are_exact_means(tmp_path):
    report = run_study(mc_config(tmp_path, "mc"))
    for name in studies._AGGREGATED:
        runs = report.values(name, kind="run")
        assert runs.size == 3
        mean = report.values(f"mean:{name}", kind="aggregate")
        stderr = report.values(f"stderr:{name}", kind="aggregate")
        assert mean[0] == float(np.mean(runs))
        assert stderr[0] == float(np.std(runs, ddof=1) / np.sqrt(runs.size))
    # aggregate rows carry the sentinel seed
    assert all(r["seed"] == -1 for r in report.rows
               if r["kind"] == "aggregate")


@pytest.mark.parametrize("mode", ["monte-carlo", "refinement"])
def test_parallel_matches_sequential(tmp_path, monkeypatch, mode):
    monkeypatch.setenv(WORKERS_ENV, "1")
    seq = run_study(tiny_config(tmp_path, "seq", mode))
    monkeypatch.setenv(WORKERS_ENV, "2")
    par = run_study(tiny_config(tmp_path, "par", mode))
    assert par.csv_text() == seq.csv_text()


def test_tasks_run_largest_first_and_rows_stay_in_task_order(tmp_path,
                                                            monkeypatch):
    # the finest level's trajectories have the most nodes and steps, so
    # they start first; the rows and files do not move
    monkeypatch.setenv(WORKERS_ENV, "1")
    calls, trajectory = [], studies._trajectory

    def spy(config, level, stream):
        calls.append((level, stream))
        return trajectory(config, level, stream)

    monkeypatch.setattr(studies, "_trajectory", spy)
    cfg = tiny_config(tmp_path, "order", "refinement")
    report = run_study(cfg)
    assert calls == [(2, 0), (2, 1), (1, 0), (1, 1), (0, 0), (0, 1)]
    levels = [r["level"] for r in report.rows if r["kind"] == "run"]
    assert levels == sorted(levels)


def test_sequential_study_runs_its_monitors_on_no_thread(tmp_path,
                                                       monkeypatch):
    # one worker on 2 CPUs: every observer runs inline in the calling
    # thread, and no thread is started, not even while a step is observed
    monkeypatch.setenv(WORKERS_ENV, "1")
    monkeypatch.setattr(studies.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    inside, run = [], studies.run

    def spy(*args, observers, **kwargs):
        def count(step):
            inside.append((threading.current_thread(),
                           threading.active_count()))
        return run(*args, observers=[*observers, count], **kwargs)

    monkeypatch.setattr(studies, "run", spy)
    threads = threading.active_count()
    cfg = replace(tiny_config(tmp_path, "inline", "single"),
                  noise_preset="linear-gradient", snapshots=3)
    run_study(cfg)
    assert threading.active_count() == threads
    assert len(inside) == cfg.params.J
    assert set(inside) == {(threading.main_thread(), threads)}


def test_worker_count_env_validation(monkeypatch):
    for bad in ("three", "0", "-5", "1.5", ""):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ConfigError, match=WORKERS_ENV):
            studies._worker_count()
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert studies._worker_count() == 3


@pytest.mark.parametrize("mode", ["single", "monte-carlo", "refinement"])
def test_bad_worker_count_fails_before_writing(tmp_path, monkeypatch, mode):
    monkeypatch.setenv(WORKERS_ENV, "-5")
    cfg = tiny_config(tmp_path, "bad", mode)
    with pytest.raises(ConfigError):
        run_study(cfg)
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("mode, affinity, cpus, expected, trajectories", [
    ("monte-carlo", range(8), 8, 3, 3), ("monte-carlo", range(2), 2, 2, 3),
    ("monte-carlo", None, None, None, 3),
    ("refinement", range(8), 8, 6, 6), ("monte-carlo", {0}, 8, None, 3)],
    ids=["8-3", "2-2", "None-None", "refinement-8-6", "affinity-1-of-8"])
def test_pool_size_is_clamped(tmp_path, monkeypatch, mode, affinity, cpus,
                              expected, trajectories):
    # a stand-in pool that records its size and maps in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(studies, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(studies.os, "cpu_count", lambda: cpus)
    if affinity is None:            # a platform without CPU affinity
        monkeypatch.delattr(studies.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(studies.os, "sched_getaffinity",
                            lambda pid: set(affinity), raising=False)
    monkeypatch.setenv(WORKERS_ENV, "64")
    report = run_study(tiny_config(tmp_path, "clamp", mode))
    # one CPU allowed, or no CPU count known: one worker, so no pool at all
    assert sizes == ([] if expected is None else [expected])
    assert report.values("sup_energy", kind="run").size == trajectories


def test_refinement_order_rows_match_level_means(refine_report):
    _, report = refine_report
    for name in studies._ORDERED:
        means = [report.values(f"mean:{name}", kind="aggregate",
                               level=lvl)[0] for lvl in range(3)]
        for lvl in range(2):
            order = report.values(f"order:{name}", kind="order",
                                  level=lvl)
            assert order.size == 1
            assert order[0] == float(np.log2(means[lvl] / means[lvl + 1]))
    assert all(r["seed"] == -1 for r in report.rows if r["kind"] == "order")


def test_refinement_levels_halve_h_and_k(refine_report):
    _, report = refine_report
    meta = {r["level"]: (r["h"], r["k"]) for r in report.rows
            if r["kind"] == "run"}
    assert set(meta) == {0, 1, 2}
    for lvl in (0, 1):
        assert meta[lvl][0] == pytest.approx(2.0 * meta[lvl + 1][0])
        assert meta[lvl][1] == 2.0 * meta[lvl + 1][1]


def test_report_values_filtering(refine_report):
    _, report = refine_report
    assert report.values("m_gap_l2", kind="run").size == 6   # 3 levels x 2
    assert report.values("m_gap_l2", kind="run", level=2).size == 2
    assert report.values("mean:m_gap_l2", kind="aggregate").size == 3
    assert report.values("no_such_quantity").size == 0


def test_report_csv_round_trips(refine_report):
    cfg, report = refine_report
    text = (cfg.out and open(f"{cfg.out}/report.csv").read())
    assert text == report.csv_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(report.rows)
    picked = [r for r in rows if r["kind"] == "order"
              and r["quantity"] == "order:m_gap_l2" and r["level"] == "0"]
    assert len(picked) == 1
    want = report.values("order:m_gap_l2", kind="order", level=0)[0]
    assert float(picked[0]["value"]) == want


def test_single_run_artifacts(tmp_path):
    cfg = make_config(tmp_path, f"""\
[mesh]
divisions = 4

[scheme]
J = 10
T = 0.1

[noise]
preset = zero

[initial]
preset = spiral

[run]
out = {tmp_path / "out"}
""")
    report = run_study(cfg)
    assert not report.invariant_failures
    # resolved config echo reparses to the exact same configuration
    assert load_config(str(tmp_path / "out" / "resolved.ini")) == cfg

    with open(tmp_path / "out" / "diagnostics_seed0.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ("j,t,energy,v_norm_sq,F_value,residual,grad_v_sq,"
                        "tangency_max,unit_dev_max")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    # one row per step, stamped with the step's left endpoint
    assert [int(r["j"]) for r in rows] == list(range(10))
    k = cfg.params.k
    for r in rows:
        assert float(r["t"]) == pytest.approx(int(r["j"]) * k, abs=1e-15)
        assert abs(float(r["F_value"])) <= 1e-12      # zero noise
        assert float(r["grad_v_sq"]) >= 0.0
        assert (float(r["tangency_max"])
                <= studies.INVARIANT_TOLS["max_tangency"])
        assert (float(r["unit_dev_max"])
                <= studies.INVARIANT_TOLS["max_unit_dev"])
    energy = np.array([float(r["energy"]) for r in rows])
    assert energy[0] > 0.0
    assert np.all(np.diff(energy) <= 1e-9)            # theta = 1, g = 0


def test_invariant_failures_are_collected(tmp_path, monkeypatch):
    monkeypatch.setitem(studies.INVARIANT_TOLS, "max_tangency", -1.0)
    report = run_study(tiny_config(tmp_path, "inv", "single"))
    assert report.invariant_failures
    assert "max_tangency" in report.invariant_failures[0]


def test_refinement_checks_orthogonality_and_writes_diagnostics(
        tmp_path, monkeypatch):
    monkeypatch.setitem(studies.INVARIANT_TOLS, "max_orth_defect", -1.0)
    cfg = tiny_config(tmp_path, "orth", "refinement")
    report = run_study(cfg)
    assert report.values("max_orth_defect", kind="run").size == 6
    assert report.values("offdiag_worst", kind="run").size == 6
    assert any("max_orth_defect" in msg
               for msg in report.invariant_failures)
    names = sorted(p.name for p in (tmp_path / "orth").iterdir()
                   if p.name.startswith("diagnostics_"))
    assert names == [f"diagnostics_seed{cfg.seed}_level{lvl}_stream{s}.csv"
                     for lvl in range(cfg.levels)
                     for s in range(cfg.samples)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_invariant_quantity_fails(bad):
    quantities = {name: 0.0 for name in studies.INVARIANT_TOLS}
    quantities["max_tangency"] = bad
    failures = studies._invariant_failures(quantities, theta=1.0,
                                           offdiag_holds=True, seed=0)
    assert len(failures) == 1 and "max_tangency" in failures[0]


# One trajectory, timed in a child process: its CPU time over its wall time
_CPU_PER_WALL = """\
import resource, sys, time
from sllgfem import load_config, studies
config = load_config(sys.argv[1])
r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
studies._trajectory(config, 0, 0)
t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
cpu = r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime
print(cpu / (t1 - t0))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
def test_unpinned_blas_keeps_one_trajectory_on_one_core(tmp_path):
    # Users do not pin BLAS. A step-loop BLAS call that wakes OpenBLAS's
    # threads leaves a worker spinning on a second core for the rest of the
    # run, which doubles the CPU time and takes the core a second pool
    # worker would use
    path = tmp_path / "guard.ini"
    path.write_text("""\
[mesh]
divisions = 32

[scheme]
J = 60
T = 0.1

[noise]
preset = linear-gradient

[initial]
preset = spiral
tilt = 0.3
""")
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _CPU_PER_WALL, str(path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    ratio = float(proc.stdout)
    assert ratio <= 1.3, f"CPU time / wall time {ratio:.2f}"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a long dot or norm over its threads, and the order
    # of the sum follows their count: every reduction that reaches an
    # output is numpy's pairwise sum instead, and the float32 LU stays
    # thread-independent too
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        path = tmp_path / f"threads{threads}.ini"
        path.write_text(f"""\
[mesh]
divisions = 32

[scheme]
J = 20
T = 0.2

[noise]
preset = linear-gradient

[initial]
preset = spiral
tilt = 0.3

[run]
out = {out}
""")
        proc = child_python(["-m", "sllgfem.cli", str(path)],
                            OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr[-2000:]
        texts.append({name: (out / name).read_bytes()
                      for name in ("report.csv", "diagnostics_seed0.csv")})
    assert texts[0] == texts[1]


# One trajectory after a warm-up one, in a child process: its minor page
# faults per step
_FAULTS_PER_STEP = """\
import resource, sys
from sllgfem import load_config, studies
config = load_config(sys.argv[1])
studies._trajectory(config, 0, 0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
studies._trajectory(config, 0, 0)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / config.params.J)
"""


@pytest.mark.skipif(resource is None or not hasattr(
    resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"),
    reason="needs resource.getrusage with ru_minflt")
def test_steps_reuse_their_memory_instead_of_faulting_it_in(tmp_path):
    # A step that allocates and frees multi-MB temporaries lets the
    # allocator hand the memory back to the OS and fault it in again on
    # the next step: thousands of minor page faults per step at 3D 8^3
    path = tmp_path / "faults.ini"
    path.write_text("""\
[mesh]
dim = 3
divisions = 8

[scheme]
J = 40
T = 0.1

[noise]
preset = linear-gradient

[initial]
preset = spiral
""")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP, str(path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    faults = float(proc.stdout)
    assert faults <= 1000, f"{faults:.0f} minor page faults per step"
