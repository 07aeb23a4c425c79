"""Study orchestration: single runs, Monte Carlo ensembles, refinement.

`run_study` is the one entry point. Every mode is a list of (level,
stream) trajectory tasks run by one function, `_trajectory`, with the
same monitors and the same invariant suite: single mode is the task
(0, 0), Monte Carlo the tasks (0, s), and refinement the tasks (l, s) for
every level l. The modes differ only in that list and in how the run rows
are aggregated.

Every study is a pure function of (config, seeds): reruns produce byte-
identical artifacts. Artifacts per study, each written by `_write` under a
temporary name and moved into place, so that a file in run.out is only
ever complete: the resolved config echo, one diagnostics CSV per
trajectory, optional VTK snapshots (single mode), and one long-format
report CSV with columns

  kind, mode, level, h, k, theta, seed, quantity, value

where kind is "run" (one trajectory), "aggregate" (mean/stderr across
seeds, seed column -1), or "order" (log2 ratio between consecutive
refinement levels, attached to the coarser level's index). The seed
column holds the path stream index under the study's base seed (stream 0
for single runs); the base seed itself is recorded in the resolved
config echo next to the report.

Monte Carlo trajectories are independent streams of the base seed.
Refinement studies draw the finest-level path once per stream and coarsen
it for the coarser levels (common random numbers), then tabulate observed
convergence orders of the interpolant errors and the weak-form residual.
In every mode the worker count comes from the SLLGFEM_WORKERS environment
variable (a positive integer, capped at the task count and the count of
CPUs the process may run on), and rows and files are formed in task
order after all tasks have run, so parallel and sequential runs emit
identical reports. Every monitor is an observer of the one pass `run`
makes over a trajectory.
"""

from __future__ import annotations

import io
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import ConfigError, SolverFailure
from .fem import check_offdiag_condition
from .reconstruct import (interpolant_errors, make_test_field, reconstruct_M,
                          weak_residual)
from .scheme import DIAGNOSTIC_COLUMNS, energy_inequality_gaps, run
from .vtkio import vtk_geometry, write_vtk
from .wiener import coarsen, sample_path

WORKERS_ENV = "SLLGFEM_WORKERS"

# Runtime invariant-suite thresholds, looser than the acceptance-grade
# tolerances so that round-off accumulated over many steps on fine meshes
# does not trip them; failures, including non-finite values, set CLI exit
# code 2.
INVARIANT_TOLS = {
    "max_unit_dev": 1e-10,
    "max_tangency": 1e-7,
    "max_orth_defect": 1e-10,
    "max_energy_gap": 1e-8,
}

_N_TEST_FIELDS = 3
_REPORT_COLUMNS = ("kind", "mode", "level", "h", "k", "theta", "seed",
                   "quantity", "value")


@dataclass
class StudyReport:
    """Long-format result rows plus the list of invariant-suite failures."""

    rows: list
    invariant_failures: tuple = ()

    def values(self, quantity, kind="run", level=None):
        out = [r["value"] for r in self.rows
               if r["quantity"] == quantity and r["kind"] == kind
               and (level is None or r["level"] == level)]
        return np.array(out)

    def csv_text(self):
        buf = io.StringIO()
        buf.write(",".join(_REPORT_COLUMNS) + "\n")
        for r in self.rows:
            buf.write("%s,%s,%d,%.17g,%.17g,%.17g,%d,%s,%.17g\n" % (
                r["kind"], r["mode"], r["level"], r["h"], r["k"],
                r["theta"], r["seed"], r["quantity"], r["value"]))
        return buf.getvalue()


def _worker_count():
    """The requested worker count; ConfigError unless a positive integer."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"{WORKERS_ENV} = {raw!r} is not a positive "
                          f"integer")
    return n


def _cpu_count():
    """The CPUs this process may run on: its affinity where the platform
    has one, else the CPU count (1 when unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def diagnostics_csv_text(traj):
    """Per-step diagnostics, one column per scheme.DIAGNOSTIC_COLUMNS."""
    buf = io.StringIO()
    buf.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")
    line = ",".join(["%.17g"] * len(DIAGNOSTIC_COLUMNS)) + "\n"
    buf.writelines(line % row for row in traj.diagnostics.tolist())
    return buf.getvalue()


def _invariant_failures(quantities, theta, offdiag_holds, seed):
    failures = []
    for name, tol in INVARIANT_TOLS.items():
        if name == "max_energy_gap" and (theta < 0.5 or not offdiag_holds):
            # the per-step energy chain is only guaranteed for implicit
            # weighting on meshes with nonpositive stiffness off-diagonals
            continue
        val = quantities[name]
        if not (np.isfinite(val) and val <= tol):
            failures.append(f"seed {seed}: {name} = {val:.3e} "
                            f"exceeds {tol:.1e}")
    return failures


def _rows_from(quantities, kind, mode, level, h, k, theta, seed):
    return [{"kind": kind, "mode": mode, "level": level, "h": h, "k": k,
             "theta": theta, "seed": seed, "quantity": name, "value": val}
            for name, val in quantities.items()]




def _snapshot_writer(config, space, stream):
    """Observer writing M = Z m as VTK in run.out at j = 0, every
    config.snapshots steps and at j = J; the mesh's part of the files is
    formatted once."""
    stride, J = config.snapshots, config.params.J
    geometry = vtk_geometry(space.mesh)

    def write_snap(j, m, field):
        M = reconstruct_M(m, field)
        _write(config, f"snap_{j:06d}.vtk", lambda path: write_vtk(
            path, space.mesh, m, M,
            comment=f"step {j} seed {config.seed} stream {stream}",
            geometry=geometry))

    def snapshots(step):
        if step.j == 0:
            write_snap(0, step.m, step.field)
        j = step.j + 1
        if j % stride == 0 or j == J:
            write_snap(j, step.m_next, step.field_next)

    return snapshots


def _trajectory(config, level, stream):
    """One trajectory of a study, with every monitor attached.

    Level `level` of a refinement study divides config.divisions and J by
    2^(levels-1-level) and coarsens the finest-level path of `stream`;
    the other modes have the one level 0. In single mode with
    config.snapshots > 0, VTK snapshots go to run.out. The per-step
    invariants come from run's diagnostics; this function reduces them
    and applies INVARIANT_TOLS. Returns the run rows, the invariant
    failures and the diagnostics CSV text; the calling process writes all
    files but the snapshots. A SolverFailure or MemoryError is raised
    again with the level and stream named.
    """
    factor = (2 ** (config.levels - 1 - level)
              if config.mode == "refinement" else 1)
    p_fine = config.params
    cfg = replace(config, divisions=config.divisions // factor)
    p = replace(p_fine, J=p_fine.J // factor)
    where = f"level {level} stream {stream} (base seed {config.seed})"
    try:
        space = cfg.build_space()
        coeffs = cfg.build_noise()
        m0 = cfg.initial_field(space)
        offdiag = check_offdiag_condition(space)
        path = sample_path(config.seed, coeffs.q, p_fine.J, p_fine.T,
                           stream=stream)
        path = coarsen(path, factor)

        errs_obs, errs = interpolant_errors(space, p.k)
        fields = [make_test_field(i) for i in range(_N_TEST_FIELDS)]
        residual_obs, residuals = weak_residual(space, p, path, fields)
        observers = [errs_obs, residual_obs]
        if config.mode == "single" and config.snapshots > 0:
            observers.append(_snapshot_writer(config, space, stream))
        traj = run(m0, p, path, coeffs, space, observers=observers)
    except SolverFailure as e:
        raise SolverFailure(f"{where}: {e}", residual=e.residual)
    except MemoryError as e:
        raise MemoryError(f"{where}: {e}")

    diag = traj.diagnostics
    q = {
        "final_energy": float(traj.energy[-1]),
        "sup_energy": float(traj.energy.max()),
        # summed left to right: .sum() is pairwise and rounds differently
        "v_time_sum": p.k * float(diag["v_norm_sq"].cumsum()[-1]),
        "max_unit_dev": float(diag["unit_dev_max"].max()),
        "max_tangency": float(diag["tangency_max"].max()),
        "max_energy_gap": float(energy_inequality_gaps(traj).max()),
        "m0_drift": traj.m0_drift,
        "residual_max": float(diag["residual"].max()),
        "m_gap_l2": float(np.sqrt(errs["m_minus_mleft_sq"])),
        "unit_defect_l2": float(np.sqrt(errs["unit_defect_sq"])),
        "v_dtm_l1": errs["v_minus_dtm_l1"],
        "weak_residual_mean_abs": float(np.mean(np.abs(residuals))),
    }
    for i, val in enumerate(residuals):
        q[f"weak_residual_{i}"] = float(val)
    # the field at t_0 is the identity, whose defect is 0
    q["max_orth_defect"] = float(diag["orth_defect"].max())
    q["offdiag_worst"] = offdiag.worst_value
    failures = _invariant_failures(q, p.theta, offdiag.holds,
                                   f"{config.seed}/stream{stream}"
                                   f"/level{level}")
    rows = _rows_from(q, "run", config.mode, level, space.mesh.h, p.k,
                      p.theta, stream)
    return rows, failures, diagnostics_csv_text(traj)


_AGGREGATED = ("sup_energy", "v_time_sum", "final_energy",
               "m_gap_l2", "unit_defect_l2", "v_dtm_l1",
               "weak_residual_mean_abs")
_ORDERED = ("m_gap_l2", "unit_defect_l2", "v_dtm_l1",
            "weak_residual_mean_abs")


def _aggregate(runs):
    """Mean and standard error across the streams of one level for the
    headline quantities."""
    agg = {}
    for name in _AGGREGATED:
        vals = np.array([r["value"] for r in runs if r["quantity"] == name])
        agg[f"mean:{name}"] = float(np.mean(vals))
        if vals.size >= 2:
            agg[f"stderr:{name}"] = float(np.std(vals, ddof=1)
                                          / np.sqrt(vals.size))
    return agg


def _summary_rows(quantities, kind, like):
    """Study-wide rows (seed -1) at the level of the run row `like`."""
    return _rows_from(quantities, kind, like["mode"], like["level"],
                      like["h"], like["k"], like["theta"], -1)


def _write(config, name, write):
    """Write run.out/`name` as `write(path)` does, to `name`.part, and move
    it into place: a file named in run.out is only ever complete. Any
    exception removes the .part; an OSError raises ConfigError naming
    run.out and the file, and any other exception is raised again."""
    path = os.path.join(config.out, name)
    try:
        write(path + ".part")
        os.replace(path + ".part", path)
    except OSError as e:
        raise ConfigError(f"run.out = {config.out!r}: cannot write {name}: "
                          f"{e.strerror}") from e
    finally:        # after os.replace there is no .part to remove
        with suppress(OSError):
            os.remove(path + ".part")


def _text(text):
    """The writer of `text` to a path, for _write."""
    def write(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return write


def _prepare_out(config):
    """Make run.out, remove a previous run's report.csv from it and write
    resolved.ini in it; an OSError making the directory or removing the
    report raises ConfigError naming run.out. A study that then fails
    leaves no report.csv."""
    try:
        os.makedirs(config.out, exist_ok=True)
        with suppress(FileNotFoundError):
            os.remove(os.path.join(config.out, "report.csv"))
    except OSError as e:
        raise ConfigError(f"run.out = {config.out!r} is not a usable "
                          f"directory: {e.strerror}") from e
    _write(config, "resolved.ini", _text(config.echo_text()))


def _diagnostics_name(config, level, stream):
    tail = {"single": "",
            "monte-carlo": f"_stream{stream}",
            "refinement": f"_level{level}_stream{stream}"}[config.mode]
    return f"diagnostics_seed{config.seed}{tail}.csv"


def run_study(config):
    """Run the study config.mode describes, write its artifacts and
    return its report.

    The tasks run in a process pool when SLLGFEM_WORKERS, the task count
    and _cpu_count() all exceed 1, and in this process otherwise, finest
    level first; each trajectory's monitors run inline in its process,
    after every step. Rows and files follow task order: each level's run
    rows, then its aggregate rows (not in single mode), then the
    refinement orders, each skipped unless both levels' means are
    positive.
    Every file goes through _write, report.csv last; an OSError from a
    write in run.out raises ConfigError naming run.out and the file.
    """
    requested = _worker_count()     # a bad value fails before any write
    levels = config.levels if config.mode == "refinement" else 1
    streams = 1 if config.mode == "single" else config.samples
    tasks = [(level, stream) for level in range(levels)
             for stream in range(streams)]
    _prepare_out(config)
    workers = min(requested, len(tasks), _cpu_count())
    task = partial(_trajectory, config)
    # finest level, so largest trajectory, first, so that no worker starts
    # a long one last; the sort is stable, so a level keeps task order
    ordered = sorted(tasks, key=lambda t: -t[0])
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = dict(zip(ordered, pool.map(task, *zip(*ordered))))
    else:
        done = {t: task(*t) for t in ordered}
    results = [done[t] for t in tasks]

    by_level, failures = {}, []
    for (level, stream), (runs, run_failures, diag_text) in zip(tasks,
                                                                results):
        _write(config, _diagnostics_name(config, level, stream),
               _text(diag_text))
        by_level.setdefault(level, []).extend(runs)
        failures.extend(run_failures)

    rows, aggregates = [], []
    for runs in by_level.values():
        rows.extend(runs)
        if config.mode != "single":
            agg = _aggregate(runs)
            rows.extend(_summary_rows(agg, "aggregate", runs[0]))
            aggregates.append(agg)
    for level in range(levels - 1):
        coarse, fine = aggregates[level], aggregates[level + 1]
        orders = {f"order:{name}": float(np.log2(coarse[f"mean:{name}"]
                                                 / fine[f"mean:{name}"]))
                  for name in _ORDERED
                  if coarse[f"mean:{name}"] > 0.0 < fine[f"mean:{name}"]}
        rows.extend(_summary_rows(orders, "order", by_level[level][0]))

    report = StudyReport(rows=rows, invariant_failures=tuple(failures))
    _write(config, "report.csv", _text(report.csv_text()))
    return report
