"""Tests of the benchmark's correctness check and tracer.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import os
import random

import pytest

from sllgfem import load_config
from sllgfem import studies

import tracing
from checking import ATOL, RTOL, check_report, failed_trajectories
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SOLVER_TOL = 1e-12


def pinned(name):
    with open(os.path.join(HERE, "reference", f"{name}.csv")) as fh:
        return fh.read()


def edit(text, quantity, fn, kind="run", level="0", seed="0"):
    """Apply fn to the value of one row; returns the new report text."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        cols = line.rstrip("\n").split(",")
        if (cols[0], cols[2], cols[6], cols[7]) == (kind, level, seed,
                                                    quantity):
            cols[8] = repr(fn(float(cols[8])))
            lines[i] = ",".join(cols) + "\n"
            return "".join(lines)
    raise KeyError(quantity)


def check(text, reference):
    return check_report(text, studies.INVARIANT_TOLS, SOLVER_TOL, reference)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_report_passes_against_itself(name):
    ref = pinned(name)
    assert check(ref, ref) == []
    assert check(ref, None) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_physics_value_perturbed_beyond_tolerance_is_flagged(name):
    ref = pinned(name)
    bad = edit(ref, "final_energy", lambda v: v * (1.0 + 10 * RTOL))
    problems = check(bad, ref)
    assert [traj for traj, _ in problems] == [(0, 0)]
    assert "final_energy" in problems[0][1]
    assert failed_trajectories(problems, attempted=4) == 1
    # without a pinned report only the invariants are checked
    assert check(bad, None) == []


def test_perturbation_within_tolerance_passes():
    ref = pinned("refine-2d")
    ok = edit(ref, "weak_residual_0", lambda v: v * (1.0 + 0.1 * RTOL))
    ok = edit(ok, "weak_residual_1", lambda v: v + 0.5 * ATOL)
    assert check(ok, ref) == []


def test_aggregate_mismatch_fails_every_trajectory():
    ref = pinned("refine-2d")
    bad = edit(ref, "order:m_gap_l2", lambda v: v + 1e-3, kind="order",
               seed="-1")
    problems = check(bad, ref)
    assert [traj for traj, _ in problems] == [None]
    assert failed_trajectories(problems, attempted=3) == 3


def test_roundoff_monitors_use_thresholds_not_pinned_values():
    ref = pinned("single-2d-96")
    # a reordered solve moves monitors by tens of percent at ~1e-15
    moved = edit(ref, "max_tangency", lambda v: 1.5 * v)
    moved = edit(moved, "residual_max", lambda v: 0.5 * v)
    moved = edit(moved, "solver_iters_max", lambda v: 0.0)
    assert check(moved, ref) == []
    tol = studies.INVARIANT_TOLS["max_unit_dev"]
    bad = edit(ref, "max_unit_dev", lambda v: 10 * tol)
    bad = edit(bad, "residual_max", lambda v: 10 * SOLVER_TOL)
    for reference in (ref, None):
        messages = [msg for _, msg in check(bad, reference)]
        assert len(messages) == 2
        assert "max_unit_dev" in messages[0]
        assert "residual_max" in messages[1]


def test_row_order_does_not_matter_but_missing_rows_do():
    ref = pinned("mc-3d-8")
    header, *rows = ref.splitlines(keepends=True)
    random.Random(0).shuffle(rows)
    assert check(header + "".join(rows), ref) == []
    dropped = "".join(r for r in ref.splitlines(keepends=True)
                      if ",1,v_time_sum," not in r)
    problems = check(dropped, ref)
    assert [traj for traj, _ in problems] == [(0, 1)]
    assert "missing" in problems[0][1]


def test_non_finite_value_is_flagged():
    ref = pinned("single-2d-96")
    bad = edit(ref, "sup_energy", lambda v: float("nan"))
    assert [traj for traj, _ in check(bad, None)] == [(0, 0)]


def test_tracer_self_time_excludes_children():
    t = tracing.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
    assert t.calls == {"outer": 1, "inner": 1}
    assert t.self_time("outer") == pytest.approx(
        t.total["outer"] - t.total["inner"])


def test_traced_study_sees_every_layer_and_keeps_the_report(tmp_path,
                                                            monkeypatch):
    ini = tmp_path / "tiny.ini"
    ini.write_text("[mesh]\ndivisions = 4\n[scheme]\nT = 0.04\nJ = 4\n"
                   "[noise]\npreset = linear-gradient\n"
                   "[initial]\npreset = spiral\n"
                   "[run]\nmode = single\nsnapshots = 2\n")
    monkeypatch.setenv(studies.WORKERS_ENV, "1")
    plain = studies.run_study(
        load_config(ini, {"run.out": str(tmp_path / "a")}))
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        with tracer.span("studies.study"):
            traced = studies.run_study(
                load_config(ini, {"run.out": str(tmp_path / "b")}))
    assert absent == []
    assert traced.csv_text() == plain.csv_text()
    m = tracing.layer_metrics(tracer)
    assert m["scheme.steps"] == 4
    assert m["rotation.evolve_per_step"] == 2.0
    assert m["vtkio.files"] == 3 and m["vtkio.bytes"] > 0
    assert m["scheme.step_unknowns"] == 2 * 25
    assert all(m[k] > 0 for k in ("scheme.solve_s", "rotation.kz_assembly_s",
                                  "rotation.replay_s", "mesh.build_s",
                                  "fem.space_s", "studies.self_s"))
    # the wrappers are gone again
    assert studies.run.__module__ == "sllgfem.scheme"


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("sllgfem.scheme", "no_such_function", "scheme.gone"),))
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        pass
    assert absent == ["sllgfem.scheme.no_such_function"]
    assert tracing.layer_metrics(tracer)["scheme.solve_s"] == 0.0
