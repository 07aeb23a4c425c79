"""Study orchestration: single runs, Monte Carlo ensembles, refinement.

Every study is a pure function of (config, seeds): reruns produce byte-
identical artifacts. Artifacts per study: the resolved config echo, one
diagnostics CSV per trajectory, optional VTK snapshots (single mode), and
one long-format report CSV with columns

  kind, mode, level, h, k, theta, seed, quantity, value

where kind is "run" (one trajectory), "aggregate" (mean/stderr across
seeds, seed column -1), or "order" (log2 ratio between consecutive
refinement levels, attached to the coarser level's index). The seed
column holds the path stream index under the study's base seed (stream 0
for single runs); the base seed itself is recorded in the resolved
config echo next to the report.

Monte Carlo trajectories are independent streams of the base seed; the
worker count comes from the SLLGFEM_WORKERS environment variable (a
positive integer, capped at the sample count and the CPU count) and the
aggregation is order-independent, so parallel and sequential runs emit
identical reports. Refinement studies draw the finest-level path once per
seed and coarsen it for the coarser levels (common random numbers), then
tabulate observed convergence orders of the interpolant errors and the
weak-form residual. Every monitor is an observer of the one pass `run`
makes over a trajectory.
"""

from __future__ import annotations

import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, SolverFailure
from .fem import check_offdiag_condition
from .reconstruct import (interpolant_errors, make_test_field, reconstruct_M,
                          weak_residual)
from .scheme import energy_inequality_gaps, run
from .vtkio import write_vtk
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

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())


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


def diagnostics_csv_text(traj):
    """Per-step diagnostics in the documented schema."""
    buf = io.StringIO()
    buf.write("j,t,energy,v_norm_sq,F_value,residual,grad_v_sq,"
              "tangency_max,unit_dev_max\n")
    for row in traj.diagnostics:
        buf.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
            row["j"], row["t"], row["energy"], row["v_norm_sq"],
            row["F_value"], row["residual"], row["grad_v_sq"],
            row["tangency_max"], row["unit_dev_max"]))
    return buf.getvalue()


def _monitored_run(m0, params, path, coeffs, space, observers=()):
    """One trajectory with the report's monitors attached; returns it and
    all its scalar report quantities."""
    errs_obs, errs = interpolant_errors(space, params.k)
    fields = [make_test_field(i, params.T) for i in range(_N_TEST_FIELDS)]
    residual_obs, residuals = weak_residual(space, params, path, fields)
    traj = run(m0, params, path, coeffs, space,
               observers=(errs_obs, residual_obs, *observers))
    diag = traj.diagnostics
    gaps = energy_inequality_gaps(traj)
    q = {
        "final_energy": traj.energy[-1],
        "sup_energy": float(traj.energy.max()),
        "v_time_sum": params.k * float(sum(r["v_norm_sq"] for r in diag)),
        "max_unit_dev": max(r["unit_dev_max"] for r in diag),
        "max_tangency": max(r["tangency_max"] for r in diag),
        "max_energy_gap": float(gaps.max()),
        "m0_drift": traj.m0_drift,
        "residual_max": max(r["residual"] for r in diag),
        "m_gap_l2": float(np.sqrt(errs["m_minus_mleft_sq"])),
        "unit_defect_l2": float(np.sqrt(errs["unit_defect_sq"])),
        "v_dtm_l1": errs["v_minus_dtm_l1"],
        "weak_residual_mean_abs": float(np.mean(np.abs(residuals))),
    }
    for i, val in enumerate(residuals):
        q[f"weak_residual_{i}"] = float(val)
    return traj, q


def _invariant_failures(quantities, theta, offdiag_holds, seed):
    failures = []
    for name, tol in INVARIANT_TOLS.items():
        if name == "max_energy_gap" and (theta < 0.5 or not offdiag_holds):
            # the per-step energy chain is only guaranteed for implicit
            # weighting on meshes with nonpositive stiffness off-diagonals
            continue
        val = quantities.get(name)
        if val is not None and not (np.isfinite(val) and val <= tol):
            failures.append(f"seed {seed}: {name} = {val:.3e} "
                            f"exceeds {tol:.1e}")
    return failures


def _rows_from(quantities, kind, mode, level, h, k, theta, seed):
    return [{"kind": kind, "mode": mode, "level": level, "h": h, "k": k,
             "theta": theta, "seed": seed, "quantity": name, "value": val}
            for name, val in quantities.items()]


def _run_stream(config, stream, snapshot_dir=None):
    """One seeded trajectory with monitoring; returns rows, failures, and
    the diagnostics CSV text (parent process writes all files)."""
    space = config.build_space()
    coeffs = config.build_noise()
    p = config.params
    path = sample_path(config.seed, coeffs.q, p.J, p.T, stream=stream)
    m0 = config.initial_field(space)
    offdiag = check_offdiag_condition(space)

    orth_defects = [0.0]            # the field at j = 0 is the identity
    observers = [lambda step: orth_defects.append(
        step.field_next.orthogonality_defect())]
    if snapshot_dir is not None and config.snapshots > 0:
        stride, J = config.snapshots, p.J

        def write_snap(j, m, field):
            write_vtk(os.path.join(snapshot_dir, f"snap_{j:06d}.vtk"),
                      space.mesh, m, reconstruct_M(m, field),
                      comment=f"step {j} seed {config.seed} stream {stream}")

        def snapshots(step):
            if step.j == 0:
                write_snap(0, step.m, step.field)
            j = step.j + 1
            if j % stride == 0 or j == J:
                write_snap(j, step.m_next, step.field_next)

        observers.append(snapshots)

    try:
        traj, quantities = _monitored_run(m0, p, path, coeffs, space,
                                          observers)
    except SolverFailure as e:
        raise SolverFailure(f"stream {stream} (base seed {config.seed}): "
                            f"{e}", residual=e.residual)
    quantities["max_orth_defect"] = max(orth_defects)
    quantities["offdiag_worst"] = offdiag.worst_value
    failures = _invariant_failures(quantities, p.theta, offdiag.holds,
                                   f"{config.seed}/stream{stream}")
    rows = _rows_from(quantities, "run", config.mode, 0, space.mesh.h, p.k,
                      p.theta, stream)
    return rows, failures, diagnostics_csv_text(traj)


def _mc_worker(args):
    config, stream = args
    return _run_stream(config, stream)


def _prepare_out(config):
    os.makedirs(config.out, exist_ok=True)
    with open(os.path.join(config.out, "resolved.ini"), "w") as fh:
        fh.write(config.echo_text())


def run_single(config):
    """One trajectory: diagnostics CSV, optional snapshots, report."""
    _prepare_out(config)
    rows, failures, diag_text = _run_stream(config, stream=0,
                                            snapshot_dir=config.out)
    with open(os.path.join(config.out,
                           f"diagnostics_seed{config.seed}.csv"), "w") as fh:
        fh.write(diag_text)
    report = StudyReport(rows=rows, invariant_failures=tuple(failures))
    report.write_csv(os.path.join(config.out, "report.csv"))
    return report


_AGGREGATED = ("sup_energy", "v_time_sum", "final_energy",
               "m_gap_l2", "unit_defect_l2", "v_dtm_l1",
               "weak_residual_mean_abs")


def _aggregate_rows(per_run_rows, mode, level, h, k, theta):
    """Mean and standard error across seeds for the headline quantities."""
    out = []
    for name in _AGGREGATED:
        vals = np.array([r["value"] for r in per_run_rows
                         if r["quantity"] == name and r["level"] == level])
        if vals.size == 0:
            continue
        agg = {f"mean:{name}": float(np.mean(vals))}
        if vals.size >= 2:
            agg[f"stderr:{name}"] = float(np.std(vals, ddof=1)
                                          / np.sqrt(vals.size))
        out.extend(_rows_from(agg, "aggregate", mode, level, h, k, theta,
                              -1))
    return out


def run_monte_carlo(config):
    """Independent seeded trajectories; sample mean and standard error of
    the headline energy quantities. Parallel execution (SLLGFEM_WORKERS)
    yields results identical to sequential."""
    workers = min(_worker_count(), config.samples, os.cpu_count() or 1)
    _prepare_out(config)
    tasks = [(config, stream) for stream in range(config.samples)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_mc_worker, tasks))
    else:
        results = [_mc_worker(t) for t in tasks]

    rows, failures = [], []
    for stream, (run_rows, run_failures, diag_text) in enumerate(results):
        rows.extend(run_rows)
        failures.extend(run_failures)
        name = f"diagnostics_seed{config.seed}_stream{stream}.csv"
        with open(os.path.join(config.out, name), "w") as fh:
            fh.write(diag_text)
    p = config.params
    rows.extend(_aggregate_rows(rows, config.mode, 0, rows[0]["h"], p.k,
                                p.theta))
    report = StudyReport(rows=rows, invariant_failures=tuple(failures))
    report.write_csv(os.path.join(config.out, "report.csv"))
    return report


_ORDERED = ("m_gap_l2", "unit_defect_l2", "v_dtm_l1",
            "weak_residual_mean_abs")


def run_refinement_study(config):
    """Common-random-numbers refinement across config.levels levels.

    The config describes the finest level; level i (0 = coarsest) halves
    divisions and J (levels-1-i) times. Each seed's finest path is drawn
    once and coarsened downward, so per-level differences isolate the
    discretization error. Observed orders are log2 ratios of consecutive
    per-level means (attached to the coarser level's index).
    """
    _prepare_out(config)
    L = config.levels
    p_fine = config.params
    rows, failures = [], []
    level_meta = []
    for lvl in range(L):
        factor = 2 ** (L - 1 - lvl)
        divs = config.divisions // factor
        J = p_fine.J // factor
        cfg_l = replace(config, divisions=divs)
        space = cfg_l.build_space()
        coeffs = cfg_l.build_noise()
        params = replace(p_fine, J=J)
        m0 = cfg_l.initial_field(space)
        level_meta.append((space.mesh.h, params.k))
        for stream in range(config.samples):
            fine_path = sample_path(config.seed, coeffs.q, p_fine.J,
                                    p_fine.T, stream=stream)
            path = coarsen(fine_path, factor) if factor > 1 else fine_path
            try:
                _, q = _monitored_run(m0, params, path, coeffs, space)
            except SolverFailure as e:
                raise SolverFailure(
                    f"level {lvl} stream {stream} (base seed "
                    f"{config.seed}): {e}", residual=e.residual)
            failures.extend(_invariant_failures(
                q, params.theta, check_offdiag_condition(space).holds,
                f"{config.seed}/stream{stream}/level{lvl}"))
            rows.extend(_rows_from(q, "run", config.mode, lvl,
                                   space.mesh.h, params.k, params.theta,
                                   stream))
        h, k = level_meta[lvl]
        rows.extend(_aggregate_rows(
            [r for r in rows if r["kind"] == "run"], config.mode, lvl, h, k,
            p_fine.theta))

    for lvl in range(L - 1):
        h, k = level_meta[lvl]
        orders = {}
        for name in _ORDERED:
            coarse = [r["value"] for r in rows
                      if r["kind"] == "aggregate" and r["level"] == lvl
                      and r["quantity"] == f"mean:{name}"]
            fine = [r["value"] for r in rows
                    if r["kind"] == "aggregate" and r["level"] == lvl + 1
                    and r["quantity"] == f"mean:{name}"]
            if coarse and fine and fine[0] > 0.0:
                orders[f"order:{name}"] = float(np.log2(coarse[0]
                                                        / fine[0]))
        rows.extend(_rows_from(orders, "order", config.mode, lvl, h, k,
                               p_fine.theta, -1))

    report = StudyReport(rows=rows, invariant_failures=tuple(failures))
    report.write_csv(os.path.join(config.out, "report.csv"))
    return report


def run_study(config):
    """Dispatch on config.mode."""
    if config.mode == "single":
        return run_single(config)
    if config.mode == "monte-carlo":
        return run_monte_carlo(config)
    return run_refinement_study(config)
