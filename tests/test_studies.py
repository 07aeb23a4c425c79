"""Study orchestration: aggregation arithmetic, parallel determinism,
refinement order rows, and the artifact files."""

import csv
import io

import numpy as np
import pytest

from sllgfem import load_config, studies
from sllgfem.studies import (WORKERS_ENV, run_monte_carlo,
                             run_refinement_study, run_single, run_study)


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
    return cfg, run_refinement_study(cfg)


def test_zero_noise_ensemble_has_zero_spread(tmp_path):
    # g = 0 makes every stream the same trajectory, whatever its path
    report = run_monte_carlo(mc_config(tmp_path, "zero", preset="zero"))
    runs = report.values("sup_energy", kind="run")
    assert np.ptp(runs) == 0.0
    assert report.values("stderr:sup_energy", kind="aggregate")[0] == 0.0
    assert report.values("mean:sup_energy", kind="aggregate")[0] == runs[0]


def test_aggregate_rows_are_exact_means(tmp_path):
    report = run_monte_carlo(mc_config(tmp_path, "mc"))
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


def test_parallel_matches_sequential(tmp_path, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    seq = run_monte_carlo(mc_config(tmp_path, "seq"))
    monkeypatch.setenv(WORKERS_ENV, "2")
    par = run_monte_carlo(mc_config(tmp_path, "par"))
    assert par.csv_text() == seq.csv_text()


def test_worker_count_env_validation(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "three")
    with pytest.raises(ValueError, match=WORKERS_ENV):
        studies._worker_count()
    monkeypatch.setenv(WORKERS_ENV, "0")
    assert studies._worker_count() == 1


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
    assert lines[0] == "j,t,energy,v_norm_sq,F_value,residual"
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    # one row per step, stamped with the step's left endpoint
    assert [int(r["j"]) for r in rows] == list(range(10))
    k = cfg.params.k
    for r in rows:
        assert float(r["t"]) == pytest.approx(int(r["j"]) * k, abs=1e-15)
        assert abs(float(r["F_value"])) <= 1e-12      # zero noise
    energy = np.array([float(r["energy"]) for r in rows])
    assert energy[0] > 0.0
    assert np.all(np.diff(energy) <= 1e-9)            # theta = 1, g = 0


def test_invariant_failures_are_collected(tmp_path, monkeypatch):
    monkeypatch.setitem(studies.INVARIANT_TOLS, "max_tangency", -1.0)
    report = run_single(mc_config(tmp_path, "inv"))
    assert report.invariant_failures
    assert "max_tangency" in report.invariant_failures[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_invariant_quantity_fails(bad):
    quantities = {name: 0.0 for name in studies.INVARIANT_TOLS}
    quantities["max_tangency"] = bad
    failures = studies._invariant_failures(quantities, theta=1.0,
                                           offdiag_holds=True, seed=0)
    assert len(failures) == 1 and "max_tangency" in failures[0]
