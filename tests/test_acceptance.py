"""Acceptance gate: one test per shipped guarantee, at its stated
tolerance and runtime budget. Each test prints as a single pass/fail
line under pytest -v.

Stochastic order estimates use pinned seeds: they are strong-error
functionals of the sampled Brownian paths, so any single realization of
the estimator scatters around the theoretical rate (about +-0.04 for
the rotation integrator, much wider for the single-path load-correction
ladder). The pinned draws were chosen after checking that ensemble
means reproduce the expected rates; the thresholds below leave margin
under the theoretical values rather than chasing one lucky path.
"""

import csv
import time

import numpy as np
import pytest

from sllgfem import load_config
from sllgfem.cli import main
from sllgfem.fem import (P1Space, check_offdiag_condition,
                         interpolate_nodal)
from sllgfem.mesh import build_structured_mesh
from sllgfem.noise import make_noise
from sllgfem.reconstruct import solve_phi
from sllgfem.rotation import (compute_F_direct, compute_F_identity,
                              evolve_point_rotation, rodrigues_exp)
from sllgfem.scheme import SchemeParams, energy_inequality_gaps, run
from sllgfem.studies import run_study
from sllgfem.wiener import coarsen, sample_path

from test_rotation import evolve_field, pair_varying, smooth_u, smooth_v
from test_scheme import History


def spiral_field(space, winding=1.0, tilt=0.3):
    def f(x):
        ang = 2.0 * np.pi * winding * x[..., 0]
        return np.stack([np.cos(tilt) * np.cos(ang),
                         np.cos(tilt) * np.sin(ang),
                         np.sin(tilt) * np.ones_like(ang)], axis=-1)

    return interpolate_nodal(f, space)


@pytest.fixture(scope="module")
def constraint_run():
    """16x16 mesh, theta = 1, two non-commuting constant components,
    200 steps; shared by the constraint, tangency, and orthogonality
    gates. Collects the rotation orthogonality defect at every step."""
    space = P1Space(build_structured_mesh(2, 16))
    coeffs = make_noise("pair-noncommuting")
    params = SchemeParams(lambda1=1.0, lambda2=1.0, theta=1.0, T=1.0,
                          J=200)
    path = sample_path(2026, coeffs.q, params.J, params.T)
    m0 = spiral_field(space)
    history = History()
    defects = []

    def watch(step):
        if step.j == 0:
            defects.append(step.field.orthogonality_defect())
        defects.append(step.field_next.orthogonality_defect())

    t0 = time.monotonic()
    run(m0, params, path, coeffs, space, observers=[history, watch])
    wall = time.monotonic() - t0
    return history, np.array(defects), wall


@pytest.fixture(scope="module")
def refinement_study(tmp_path_factory):
    """Three-level common-path study with k proportional to h, theta = 1,
    spatially varying noise; shared by the interpolant-order and weak-
    residual gates. The config describes the finest level (32 divisions,
    400 steps); coarser levels halve both."""
    tmp = tmp_path_factory.mktemp("gate")
    cfg_path = tmp / "study.ini"
    cfg_path.write_text(f"""\
[mesh]
divisions = 32

[scheme]
theta = 1.0
T = 0.25
J = 400

[noise]
preset = linear-gradient

[initial]
preset = spiral
tilt = 0.3

[run]
mode = refinement
levels = 3
samples = 5
seed = 7
out = {tmp / "out"}
""")
    cfg = load_config(str(cfg_path))
    t0 = time.monotonic()
    report = run_study(cfg)
    wall = time.monotonic() - t0
    return report, wall


def _level_means(report, name):
    return [report.values(f"mean:{name}", kind="aggregate", level=lvl)[0]
            for lvl in range(3)]


def test_criterion_01_nodal_sphere_constraint(constraint_run):
    history, _, wall = constraint_run
    dev = np.abs(np.linalg.norm(history.m, axis=2) - 1.0).max()
    assert dev <= 1e-12, f"worst nodal |m| deviation {dev:.3e}"
    assert wall < 30.0, f"run took {wall:.1f} s, budget 30 s"


def test_criterion_02_update_tangency(constraint_run):
    history, _, _ = constraint_run
    dots = np.abs(np.einsum("jna,jna->jn", history.v, history.m[:-1])).max()
    assert dots <= 1e-9, f"worst nodal v.m {dots:.3e}"


def test_criterion_03_rotation_orthogonality_and_homomorphism(
        constraint_run):
    _, defects, _ = constraint_run
    assert defects.max() <= 1e-12, (
        f"worst ||Z^T Z - I||_F = {defects.max():.3e}")
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        w, a, b = rng.standard_normal((3, 3))
        R = rodrigues_exp(w)
        gap = np.abs(R @ np.cross(a, b) - np.cross(R @ a, R @ b)).max()
        worst = max(worst, gap)
    assert worst <= 1e-10, f"worst cross-product homomorphism gap {worst:.3e}"


def test_criterion_04_per_path_energy_inequality():
    space = P1Space(build_structured_mesh(2, 8))
    assert check_offdiag_condition(space).holds
    m0 = spiral_field(space)
    coeffs = make_noise("pair-noncommuting")
    worst = -np.inf
    for theta in (0.6, 1.0):
        params = SchemeParams(lambda1=1.0, lambda2=1.0, theta=theta,
                              T=0.5, J=50)
        for seed in range(5):
            path = sample_path(seed, coeffs.q, params.J, params.T)
            traj = run(m0, params, path, coeffs, space)
            worst = max(worst, energy_inequality_gaps(traj).max())
    assert worst <= 1e-9, f"worst per-step energy-chain slack {worst:.3e}"


def test_criterion_05_deterministic_reduction_when_noise_off():
    space = P1Space(build_structured_mesh(2, 8))
    m0 = spiral_field(space)
    coeffs = make_noise("zero")
    params = SchemeParams(lambda1=1.0, lambda2=1.0, theta=1.0, T=0.5,
                          J=50)
    histories = [History() for _ in range(3)]
    runs = [run(m0, params, sample_path(seed, 1, 50, 0.5), coeffs, space,
                observers=[history])
            for seed, history in zip((0, 1, 2), histories)]
    assert np.all(np.diff(runs[0].energy) <= 1e-12)
    for other in histories[1:]:
        np.testing.assert_array_equal(histories[0].m, other.m)
        np.testing.assert_array_equal(histories[0].v, other.v)


def test_criterion_06_load_correction_oracle_agreement():
    space = P1Space(build_structured_mesh(2, 4))
    u, v = smooth_u(space), smooth_v(space)
    coeffs = pair_varying()
    fine = sample_path(30, 2, 200, 1.0)
    errs = []
    for J in (50, 100, 200):
        path = coarsen(fine, 200 // J)
        field = evolve_field(space, coeffs, path)
        f_id = compute_F_identity(field, u, v)
        f_dir = compute_F_direct(path, coeffs, u, v, J, space)
        errs.append(abs(f_id - f_dir))
    assert errs[0] > errs[1] > errs[2], f"not decreasing: {errs}"
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 0.4, f"observed order {order:.3f}, errors {errs}"

    # constant g: the rotation is spatially uniform, so the correction
    # vanishes identically in both formulations
    const = make_noise("constant-z")
    path = sample_path(3, 1, 50, 1.0)
    field = evolve_field(space, const, path)
    assert abs(compute_F_identity(field, u, v)) <= 1e-8
    assert abs(compute_F_direct(path, const, u, v, 50, space)) <= 1e-8


def test_criterion_07_strong_order_of_rotation_integrator():
    gvals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    errs = []
    for J in (16, 32, 64):
        paths = [sample_path(500 + p, 2, J * 64, 1.0) for p in range(100)]
        Zf = evolve_point_rotation(
            gvals, np.stack([p.increments for p in paths]))
        Zc = evolve_point_rotation(
            gvals, np.stack([coarsen(p, 64).increments for p in paths]))
        errs.append(float(np.linalg.norm(Zf - Zc, axis=(1, 2)).mean()))
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 0.45, f"observed strong order {order:.3f}, errors {errs}"


def test_criterion_08_interpolant_error_orders(refinement_study):
    report, wall = refinement_study
    for name in ("unit_defect_l2", "m_gap_l2"):
        means = _level_means(report, name)
        order = float(np.log2(means[0] / means[2]) / 2)
        assert order >= 0.9, (
            f"{name}: observed order {order:.3f}, level means {means}")
    assert wall < 300.0, f"study took {wall:.1f} s, budget 300 s"


def test_criterion_09_weak_residual_decay(refinement_study):
    report, _ = refinement_study
    means = _level_means(report, "weak_residual_mean_abs")
    assert means[0] > means[1] > means[2], (
        f"weak residual not monotone across levels: {means}")


def test_criterion_10_weak_implicitness_guard(tmp_path, capsys):
    base = """\
[mesh]
divisions = 8

[scheme]
theta = 0.3
T = 0.5
J = {J}

[initial]
preset = spiral

[run]
out = {out}
"""
    # k = 0.1 exceeds the guard bound 2 h^2 = 0.0625 on this mesh
    violating = tmp_path / "violating.ini"
    violating.write_text(base.format(J=5, out=tmp_path / "v"))
    assert main([str(violating)]) == 4
    assert "config error" in capsys.readouterr().err

    satisfying = tmp_path / "satisfying.ini"
    satisfying.write_text(base.format(J=10, out=tmp_path / "s"))
    assert main([str(satisfying)]) == 0
    with open(tmp_path / "s" / "report.csv") as fh:
        rows = {r["quantity"]: float(r["value"])
                for r in csv.DictReader(fh) if r["kind"] == "run"}
    assert rows["max_unit_dev"] <= 1e-12
    assert rows["max_tangency"] <= 1e-9


def test_criterion_11_cross_product_system_solver():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        lambda1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
        lambda2 = rng.uniform(0.0, 2.0)
        zeta = rng.standard_normal(3)
        zeta /= np.linalg.norm(zeta)
        psi = rng.standard_normal(3)
        phi = solve_phi(lambda1, lambda2, zeta, psi)
        res = np.linalg.norm(lambda1 * phi + lambda2 * np.cross(phi, zeta)
                             - psi)
        worst = max(worst, res)
    assert worst <= 1e-12, f"worst back-substitution residual {worst:.3e}"
